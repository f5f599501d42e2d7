// Per-bank resilient-memory backends for the concurrent service
// (src/service, docs/service.md). A Backend is one bank's storage + codec
// + repair machinery behind a uniform data-path interface; the service
// fronts an array of them with per-bank locking and a lock-free clean-read
// fast path.
//
// Thread contract: a Backend is NOT thread-safe. The owning BankShard
// serialises every mutating entry point behind its mutex and brackets them
// with the shard's seqlock epoch. The one concurrent entry point is
// try_clean_read(), which may run while a mutator is active: it must be
// side-effect free and must tolerate torn line images (the caller
// validates the shard epoch afterwards and discards anything observed
// during a write).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "obs/metrics.h"
#include "sttram/fault_injector.h"
#include "sudoku/controller.h"

namespace sudoku::service {

enum class ReadStatus {
  kClean,      // consistent on arrival (fast path or locked read)
  kCorrected,  // inner code fixed it inline
  kRepaired,   // needed the group repair machinery
  kDue,        // detectable uncorrectable: data lost
};

const char* to_string(ReadStatus status);

struct ReadReply {
  BitVec data;  // 512 bits; zeroed when kDue
  ReadStatus status = ReadStatus::kClean;
};

// What a scrub pass found, at fault-unit granularity. The service's
// retirement policy consumes the ids: a unit that keeps appearing in
// `repaired_units` is a repair that did not stick — a suspected permanent
// fault (see docs/faults.md).
struct ScrubReport {
  std::uint64_t due = 0;                      // units declared uncorrectable
  std::vector<std::uint64_t> due_units;       // their ids
  // Units some repair wrote back (inner-code corrections, RAID/SDR
  // victims); may contain duplicates, in repair order.
  std::vector<std::uint64_t> repaired_units;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  // Data geometry: 512-bit lines a client addresses.
  virtual std::uint64_t num_lines() const = 0;

  // Fault/scrub geometry: the protection granule faults are injected into
  // and scrubs operate on (SuDoku: the stored line; Hi-ECC: the 1 KB
  // region). unit_of_line maps a data line to its granule.
  virtual std::uint64_t num_units() const = 0;
  virtual std::uint32_t bits_per_unit() const = 0;
  virtual std::uint64_t unit_of_line(std::uint64_t line) const = 0;

  // Fill every line with make_data(line) and rebuild parity state.
  virtual void format(const std::function<BitVec(std::uint64_t)>& make_data) = 0;

  // Full data path, including demand repair (may mutate storage).
  virtual ReadReply read(std::uint64_t line) = 0;
  virtual void write(std::uint64_t line, const BitVec& data512) = 0;

  // Scrub the given fault units (sparse) or everything, reporting which
  // units were uncorrectable and which needed a repair written back.
  virtual ScrubReport scrub_units_report(std::span<const std::uint64_t> units) = 0;
  virtual ScrubReport scrub_all_report() = 0;

  // Flip stored bits; batch keys are fault-unit ids within this bank.
  virtual void inject(const FaultBatch& batch) = 0;

  // The raw stored-bit array (fault-unit granularity), for harnesses that
  // assert stuck cells directly (faults::assert_cells). Caller must hold
  // the owning shard's mutator bracket.
  virtual SttramArray& raw_array() = 0;

  // Lock-free probe for the service's fast path: copy the stored line into
  // `stored_scratch`, and iff it is fully consistent extract the data
  // field into `data_out` and return true. Never mutates storage. May
  // observe a torn image while a mutator runs — any result is only used
  // after the caller re-validates the shard epoch.
  virtual bool try_clean_read(std::uint64_t line, BitVec& stored_scratch,
                              BitVec& data_out) const = 0;

  // Controller/backend-level instruments (sudoku.* for the controller
  // backends). Only called while quiesced; recorded under the bank lock.
  virtual void attach_metrics(obs::MetricsRegistry* registry) = 0;

  // Test hook: parity/codec invariants hold for the current contents.
  virtual bool consistent() const = 0;
};

// SuDoku-X/Y/Z bank: wraps a SudokuController with the paper's geometry.
std::unique_ptr<Backend> make_sudoku_backend(const SudokuConfig& config);

// Hi-ECC baseline bank (ECC-t over 1 KB regions); num_lines % 16 == 0.
std::unique_ptr<Backend> make_hiecc_backend(std::uint64_t num_lines, int t = 6);

}  // namespace sudoku::service
