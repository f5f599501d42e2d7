// Zero-cost-when-disabled instrumentation macros. The default build
// defines SUDOKU_OBS_ENABLED=1; configuring with -DSUDOKU_OBS=OFF defines
// it to 0 and every macro below compiles to nothing — no branch, no null
// check, no dead registry writes, no argument evaluation — which is how
// the perf-sensitive builds prove the instrumentation costs nothing when
// absent.
//
// All macros take a *pointer* instrument (Counter*/Gauge*/Histogram*) that
// may be null, so components can be instrumented unconditionally and only
// pay when a registry is actually attached.
#pragma once

#include "obs/metrics.h"
#include "obs/timer.h"

#ifndef SUDOKU_OBS_ENABLED
#define SUDOKU_OBS_ENABLED 1
#endif

#if SUDOKU_OBS_ENABLED

#define OBS_INC(counter_ptr)                        \
  do {                                              \
    if ((counter_ptr) != nullptr) (counter_ptr)->inc(); \
  } while (0)

#define OBS_ADD(counter_ptr, n)                                  \
  do {                                                           \
    if ((counter_ptr) != nullptr) (counter_ptr)->inc(static_cast<std::uint64_t>(n)); \
  } while (0)

#define OBS_SET(gauge_ptr, v)                                   \
  do {                                                          \
    if ((gauge_ptr) != nullptr) (gauge_ptr)->set(static_cast<double>(v)); \
  } while (0)

#define OBS_OBSERVE(hist_ptr, v)                                    \
  do {                                                              \
    if ((hist_ptr) != nullptr) (hist_ptr)->observe(static_cast<double>(v)); \
  } while (0)

#define OBS_DETAIL_CONCAT2(a, b) a##b
#define OBS_DETAIL_CONCAT(a, b) OBS_DETAIL_CONCAT2(a, b)

// Times the enclosing scope into `hist_ptr` (may be null).
#define OBS_SCOPED_TIMER(hist_ptr) \
  ::sudoku::obs::ScopedTimer OBS_DETAIL_CONCAT(obs_scoped_timer_, __LINE__)(hist_ptr)

#else  // !SUDOKU_OBS_ENABLED

// The arguments sit in unevaluated sizeof operands: nothing runs, but a
// handle that is only ever passed to these macros still counts as used, so
// the disabled build stays clean under -Werror.
#define OBS_INC(counter_ptr) ((void)sizeof(counter_ptr))
#define OBS_ADD(counter_ptr, n) ((void)sizeof(counter_ptr), (void)sizeof(n))
#define OBS_SET(gauge_ptr, v) ((void)sizeof(gauge_ptr), (void)sizeof(v))
#define OBS_OBSERVE(hist_ptr, v) ((void)sizeof(hist_ptr), (void)sizeof(v))
#define OBS_SCOPED_TIMER(hist_ptr) ((void)sizeof(hist_ptr))

#endif  // SUDOKU_OBS_ENABLED
