// Composable fault-scenario engine (ROADMAP item 4). The Monte-Carlo
// harnesses and the concurrent service have so far assumed purely i.i.d.
// transient flips — the paper's §VII model. Field studies (DDR4 fleet
// data, arXiv 2408.15302) show deployed memories are instead dominated by
// permanent and intermittent faults and by spatially-correlated multi-bit
// patterns, and error-mitigation behaviour changes qualitatively once
// faults stop being i.i.d. (Patel, arXiv 2204.10387).
//
// A `FaultScenario` layers independent fault *sources* over one array
// geometry:
//
//   iid           Binomial(total_bits, ber) flips/interval — the classic model
//   stuck_at      fixed cells pinned to a value; repair never sticks
//   intermittent  stuck cells with an active/dormant duty cycle
//   cluster       Poisson-arriving row/column/rect multi-bit events
//   thermal       iid flips whose BER follows a temperature→Δ trajectory
//                 through device_model's Gauss–Hermite integration
//   weibull       a cell population whose members become permanently stuck
//                 at Weibull-distributed lifetimes (wear-out segment)
//
// Determinism is the load-bearing property: every source draws from its own
// seed stream (derive_stream_seed(scenario_seed, source_index)), placement
// is drawn once at construction from that stream's format sub-stream, and
// interval t's faults come from sub-stream t alone. Two scenarios built
// from the same (spec, geometry, seed) therefore agree bit-for-bit at every
// t, independent of which shard, thread, or process asks — the same
// contract the experiment engine's per-trial reseeding relies on.
//
// Transient flips from different sources merge by XOR (two sources flipping
// the same bit cancel, as physical flips do); stuck cells merge last-wins
// in source order. Both merges sort flat vectors; no hash or tree container
// is built per interval. See docs/faults.md for the full model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "sttram/array.h"
#include "sttram/fault_injector.h"

namespace sudoku::faults {

// Array geometry a scenario is instantiated against. `unit` is the fault
// unit of the scheme under test: a 553-bit codeword line for SuDoku, a
// 1 KB region for Hi-ECC.
struct Geometry {
  std::uint64_t num_units = 0;
  std::uint32_t bits_per_unit = 0;
  std::uint64_t total_bits() const {
    return num_units * static_cast<std::uint64_t>(bits_per_unit);
  }
  bool operator==(const Geometry&) const = default;
};

// One cell pinned to a value (the shape tests/test_permanent_faults.cpp
// used to hand-roll).
struct StuckCell {
  std::uint64_t unit = 0;
  std::uint32_t bit = 0;
  bool value = false;
  bool operator==(const StuckCell&) const = default;
};

// Force every listed cell to its stuck value (flip the stored bit iff it
// currently disagrees). Models "the repair wrote the right value but the
// cell won't hold it".
void assert_cells(SttramArray& array, std::span<const StuckCell> cells);

// The set of cells stuck *now* (at one interval), with the query the MC
// harness needs: "is this unit golden outside its stuck positions?" —
// a re-asserted stuck bit must not be misclassified as silent corruption.
class ActiveStuck {
 public:
  ActiveStuck() = default;
  // Duplicate (unit,bit) entries resolve last-wins, in input order.
  explicit ActiveStuck(const std::vector<StuckCell>& cells);

  const std::vector<StuckCell>& cells() const { return cells_; }
  const std::vector<std::uint64_t>& units() const { return units_; }  // sorted, unique
  bool empty() const { return cells_.empty(); }

  void assert_on(SttramArray& array) const { assert_cells(array, cells_); }

  // True iff `stored` equals `golden` on every bit that is not stuck in
  // this unit. Both vectors must be bits_per_unit wide.
  bool equal_outside_stuck(std::uint64_t unit, const BitVec& stored,
                           const BitVec& golden) const;

 private:
  friend class FaultScenario;  // fills input_ and calls settle()

  // Rebuilds cells_ and units_ from input_, reusing every buffer.
  void settle();

  std::vector<StuckCell> input_;        // as given, duplicates included
  std::vector<std::uint32_t> order_;    // settle()'s scratch
  std::vector<StuckCell> cells_;        // sorted by (unit, bit)
  std::vector<std::uint64_t> units_;    // sorted, unique
};

enum class SourceKind { kIid, kStuckAt, kIntermittent, kCluster, kThermal, kWeibull };
enum class ClusterShape { kRow, kCol, kRect };

const char* to_string(SourceKind kind);
const char* to_string(ClusterShape shape);

// One fault source. Only the fields of the active kind are meaningful;
// to_json() emits exactly those, so specs round-trip canonically.
struct SourceSpec {
  SourceKind kind = SourceKind::kIid;

  double ber = 0.0;                    // kIid: per-interval bit error rate

  std::uint32_t cells = 0;             // kStuckAt/kIntermittent/kWeibull
  int stuck_value = -1;                // -1 = random per cell, else 0/1

  std::uint32_t period = 8;            // kIntermittent: duty cycle length
  std::uint32_t active = 4;            // ...intervals stuck per period

  double events_per_interval = 0.0;    // kCluster: Poisson arrival rate
  ClusterShape shape = ClusterShape::kRect;
  std::uint32_t span_units = 1;        // cluster footprint (clipped at edges)
  std::uint32_t span_bits = 1;

  double delta_start = 35.0;           // kThermal: Δ trajectory endpoints
  double delta_end = 35.0;
  std::uint64_t ramp_intervals = 1;    // intervals to ramp start→end
  double sigma_frac = 0.10;            // process-variation σ/μ of Δ
  double interval_s = 0.020;           // exposure window per interval

  double weibull_k = 2.0;              // kWeibull: shape (k>1 = wear-out)
  double weibull_scale = 100.0;        // characteristic life, in intervals

  bool operator==(const SourceSpec&) const = default;
};

struct ScenarioSpec {
  std::string name;
  std::vector<SourceSpec> sources;

  bool operator==(const ScenarioSpec&) const = default;

  // Canonical JSON: {"name": ..., "sources": [...]}. parse(to_json())
  // round-trips to an equal spec.
  std::string to_json() const;
  static std::optional<ScenarioSpec> parse(std::string_view json,
                                           std::string* error = nullptr);

  // Named presets shared by benches and tests (each is a JSON literal run
  // through parse(), so the parser is exercised on every construction).
  static ScenarioSpec builtin(std::string_view name);  // aborts on unknown name
  static std::vector<std::string> builtin_names();
};

// Per-interval telemetry filled by transient_positions() and transient().
struct ScenarioTick {
  std::uint64_t transient_bits = 0;   // flips after cross-source XOR merge
  std::uint64_t cluster_events = 0;   // cluster arrivals this interval
};

// A spec instantiated against a geometry and a seed. Immutable after
// construction; every query is const and thread-safe, so one instance can
// be shared by all shards of a parallel run.
class FaultScenario {
 public:
  // Validates the spec against the geometry (e.g. more stuck cells than
  // bits) and aborts loudly on nonsense — a misconfigured scenario must
  // not silently skew a campaign.
  FaultScenario(ScenarioSpec spec, const Geometry& geometry, std::uint64_t seed);

  const ScenarioSpec& spec() const { return spec_; }
  const Geometry& geometry() const { return geom_; }
  std::uint64_t seed() const { return seed_; }

  // Stable hash over (canonical spec JSON, geometry, seed); feeds the
  // experiment engine's config fingerprint so checkpoints from a different
  // scenario can never be adopted.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Transient flips for interval t as sorted flat positions (`unit *
  // bits_per_unit + bit`), replacing `out`: all sources' draws, of which a
  // sort keeps those drawn an odd number of times (the XOR merge).
  void transient_positions(std::uint64_t t, std::vector<std::uint64_t>& out,
                           ScenarioTick* tick = nullptr) const;

  // transient_positions grouped by unit (bit lists sorted ascending; map
  // built in sorted unit order).
  FaultBatch transient(std::uint64_t t, ScenarioTick* tick = nullptr) const;

  // Cells stuck during interval t: all stuck_at cells, intermittent cells
  // in the active phase of their duty cycle, and weibull cells whose
  // lifetime has expired. Cross-source conflicts resolve last-wins.
  // Replaces `out`, reusing its storage: a caller that keeps one
  // ActiveStuck across intervals allocates nothing once it has held the
  // largest set.
  void stuck(std::uint64_t t, ActiveStuck& out) const;
  ActiveStuck stuck(std::uint64_t t) const {
    ActiveStuck out;
    stuck(t, out);
    return out;
  }

  // True if any source can ever pin cells (lets harnesses skip the stuck
  // bookkeeping for purely transient scenarios).
  bool has_stuck_sources() const { return has_stuck_; }

 private:
  struct PlacedCell {
    std::uint64_t unit = 0;
    std::uint32_t bit = 0;
    bool value = false;
    std::uint32_t phase = 0;   // kIntermittent: duty-cycle offset
    double birth = 0.0;        // kWeibull: lifetime in intervals
  };
  struct Source {
    SourceSpec spec;
    std::uint64_t seed = 0;          // derive_stream_seed(scenario seed, index)
    std::vector<PlacedCell> cells;   // fixed placement (stuck-type kinds)
  };

  double thermal_ber(const SourceSpec& s, std::uint64_t t) const;

  ScenarioSpec spec_;
  Geometry geom_;
  std::uint64_t seed_ = 0;
  std::uint64_t fingerprint_ = 0;
  bool has_stuck_ = false;
  std::vector<Source> sources_;
};

}  // namespace sudoku::faults
