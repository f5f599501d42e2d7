// Deterministic decomposition of a trial budget into shards, plus the
// early-stop tracker that lets shards be cancelled without ever changing a
// merged result.
//
// A shard is a contiguous trial range [first, first + count). The plan is
// a pure function of (total, chunk) — never of thread count — and the
// merge (engine.h) walks shards in index order, so every engine run with
// the same plan and base seed produces bit-identical merged results.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace sudoku::exp {

struct Shard {
  std::uint64_t index = 0;  // position in the plan (and merge order)
  std::uint64_t first = 0;  // first trial index covered
  std::uint64_t count = 0;  // number of trials
};

// Split `total` trials into chunks of `chunk` (last one may be short).
// total == 0 yields an empty plan; chunk == 0 is clamped to 1.
std::vector<Shard> make_shards(std::uint64_t total, std::uint64_t chunk);

// Default chunk size: a pure function of `total` (so plans are stable
// across hosts), sized to amortise per-shard setup — each shard copies
// the experiment's formatted prototype and registers its instruments —
// while still yielding ~16 shards for load balancing.
std::uint64_t default_chunk(std::uint64_t total);

// Early-stop accounting across shards. Shards report their failure counts
// as they complete; `triggered()` turns true only once the *contiguous
// completed prefix* of shards already meets the target. At that point the
// deterministic merge cutoff provably falls inside that prefix, so every
// shard still running (all have higher indices) will be discarded by the
// merge — cancelling them can only save work, never change the result.
class EarlyStop {
 public:
  // target == 0 disables early stop entirely.
  EarlyStop(std::uint64_t num_shards, std::uint64_t target);

  // Record a *deterministically completed* shard (ran its full range or
  // stopped on its own intra-shard target) — never a cancelled one.
  void record(std::uint64_t shard_index, std::uint64_t failures);

  bool triggered() const;

  // Failures accumulated over the contiguous completed prefix (for tests).
  std::uint64_t prefix_failures() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t target_;
  std::vector<std::uint64_t> failures_;   // by shard index
  std::vector<bool> completed_;           // by shard index
  std::uint64_t prefix_len_ = 0;          // shards [0, prefix_len_) complete
  std::uint64_t prefix_failures_ = 0;
};

}  // namespace sudoku::exp
