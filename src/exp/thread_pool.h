// Shard runner for the experiment engine: parallel_for over plain threads.
// Each call starts min(size(), n) threads that claim indices in ascending
// order from one atomic counter, and joins them before it returns, so
// nothing outlives the call and an idle engine holds no threads.
//
// Determinism note: which thread runs which index, and when, is up to the
// OS; reproducibility is the *engine's* job (per-trial seed streams +
// order-independent merges, see engine.h) — nothing here is ordered.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>

namespace sudoku::exp {

class ThreadPool {
 public:
  // 0 = one thread per hardware thread.
  explicit ThreadPool(unsigned num_threads = 0)
      : size_(num_threads ? num_threads : hardware_threads()) {}

  // Run fn(0..n-1), each index exactly once, on up to size() threads, and
  // return once all have finished. With one thread the indices run in
  // ascending order on that thread.
  //
  // A throwing fn(i) does not tear anything down: every other index still
  // runs, and the first exception (in completion order) is rethrown to the
  // caller after the join. Callers wanting finer-grained policy (retry,
  // quarantine) catch inside fn — see exp/engine.h.
  void parallel_for(std::uint64_t n, const std::function<void(std::uint64_t)>& fn);

  unsigned size() const { return size_; }

  static unsigned hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
  }

 private:
  unsigned size_;
};

}  // namespace sudoku::exp
