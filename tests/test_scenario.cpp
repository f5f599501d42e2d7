// Composable fault-scenario engine (src/faults/scenario.h): determinism
// contract, per-kind semantics, JSON round-trip, and the end-to-end MC
// integration (mixed faults with bit-identical shard splits).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "baselines/ecck_cache.h"
#include "baselines/mc_runner.h"
#include "faults/scenario.h"
#include "reliability/montecarlo.h"
#include "sttram/fault_injector.h"
#include "sudoku/controller.h"

namespace sudoku::faults {
namespace {

Geometry sudoku_geometry(std::uint64_t num_lines = 1024) {
  SudokuConfig cfg;
  cfg.geo.num_lines = num_lines;
  cfg.geo.group_size = 32;
  SudokuController ctrl(cfg);
  return {num_lines, ctrl.codec().total_bits()};
}

bool batches_equal(const FaultBatch& a, const FaultBatch& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [unit, bits] : a) {
    const auto it = b.find(unit);
    if (it == b.end() || it->second != bits) return false;
  }
  return true;
}

TEST(FaultScenario, SameSpecSeedGeometryIsBitIdentical) {
  const Geometry geo = sudoku_geometry();
  const ScenarioSpec spec = ScenarioSpec::builtin("mixed");
  const FaultScenario a(spec, geo, 42);
  const FaultScenario b(spec, geo, 42);
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  for (std::uint64_t t = 0; t < 50; ++t) {
    ScenarioTick ta, tb;
    EXPECT_TRUE(batches_equal(a.transient(t, &ta), b.transient(t, &tb))) << t;
    EXPECT_EQ(ta.transient_bits, tb.transient_bits);
    EXPECT_EQ(ta.cluster_events, tb.cluster_events);
    EXPECT_EQ(a.stuck(t).cells(), b.stuck(t).cells()) << t;
  }
}

TEST(FaultScenario, QueriesAreOrderIndependent) {
  // A shard starting at t=30 sees exactly what a full run sees there.
  const Geometry geo = sudoku_geometry();
  const FaultScenario s(ScenarioSpec::builtin("mixed"), geo, 7);
  ScenarioTick tick;
  const FaultBatch late_first = s.transient(30, &tick);
  for (std::uint64_t t = 0; t < 30; ++t) (void)s.transient(t);
  EXPECT_TRUE(batches_equal(late_first, s.transient(30)));
}

TEST(FaultScenario, FingerprintSeparatesSeedGeometryAndSpec) {
  const Geometry geo = sudoku_geometry();
  const ScenarioSpec spec = ScenarioSpec::builtin("stuck");
  const FaultScenario base(spec, geo, 1);
  EXPECT_NE(base.fingerprint(), FaultScenario(spec, geo, 2).fingerprint());
  const Geometry geo2 = sudoku_geometry(2048);
  EXPECT_NE(base.fingerprint(), FaultScenario(spec, geo2, 1).fingerprint());
  EXPECT_NE(base.fingerprint(),
            FaultScenario(ScenarioSpec::builtin("iid"), geo, 1).fingerprint());
}

TEST(FaultScenario, StuckAtCellsAreConstantOverTime) {
  const Geometry geo = sudoku_geometry();
  ScenarioSpec spec;
  spec.name = "stuck-only";
  SourceSpec src;
  src.kind = SourceKind::kStuckAt;
  src.cells = 20;
  spec.sources.push_back(src);
  const FaultScenario s(spec, geo, 9);
  const auto first = s.stuck(0).cells();
  ASSERT_EQ(first.size(), 20u);
  for (std::uint64_t t : {1ull, 13ull, 999ull}) {
    EXPECT_EQ(s.stuck(t).cells(), first) << t;
  }
  EXPECT_TRUE(s.has_stuck_sources());
  EXPECT_TRUE(s.transient(5).empty());  // no transient sources
}

TEST(FaultScenario, IntermittentDutyCycleActivatesCellsPeriodically) {
  const Geometry geo = sudoku_geometry();
  ScenarioSpec spec;
  spec.name = "blink";
  SourceSpec src;
  src.kind = SourceKind::kIntermittent;
  src.cells = 8;
  src.period = 6;
  src.active = 2;
  spec.sources.push_back(src);
  const FaultScenario s(spec, geo, 3);

  // Each cell must be stuck in exactly `active` out of every `period`
  // consecutive intervals, and the duty cycle must repeat.
  std::set<std::pair<std::uint64_t, std::uint32_t>> seen;
  std::uint64_t active_cell_intervals = 0;
  for (std::uint64_t t = 0; t < src.period; ++t) {
    const auto cells = s.stuck(t).cells();
    active_cell_intervals += cells.size();
    for (const auto& c : cells) seen.insert({c.unit, c.bit});
    EXPECT_EQ(s.stuck(t + src.period).cells(), cells) << t;
  }
  EXPECT_EQ(active_cell_intervals, 8u * src.active);
  EXPECT_EQ(seen.size(), 8u);  // every cell was active at some point
}

TEST(FaultScenario, WeibullPopulationGrowsMonotonically) {
  const Geometry geo = sudoku_geometry();
  ScenarioSpec spec;
  spec.name = "wearout";
  SourceSpec src;
  src.kind = SourceKind::kWeibull;
  src.cells = 32;
  src.weibull_k = 2.0;
  src.weibull_scale = 50.0;
  spec.sources.push_back(src);
  const FaultScenario s(spec, geo, 5);

  std::size_t prev = 0;
  for (std::uint64_t t = 0; t < 400; t += 20) {
    const std::size_t now = s.stuck(t).cells().size();
    EXPECT_GE(now, prev) << "wear-out must be monotone at t=" << t;
    prev = now;
  }
  // By 8x the characteristic life essentially the whole population is dead.
  EXPECT_EQ(s.stuck(400).cells().size(), 32u);
  EXPECT_LT(s.stuck(0).cells().size(), 32u);
}

TEST(FaultScenario, ClusterEventsRespectShapeAndGeometry) {
  const Geometry geo{128, 64};
  ScenarioSpec spec;
  spec.name = "rows";
  SourceSpec src;
  src.kind = SourceKind::kCluster;
  src.events_per_interval = 2.0;
  src.shape = ClusterShape::kRow;
  src.span_bits = 9;
  spec.sources.push_back(src);
  const FaultScenario s(spec, geo, 11);

  std::uint64_t events = 0;
  for (std::uint64_t t = 0; t < 200; ++t) {
    ScenarioTick tick;
    const auto batch = s.transient(t, &tick);
    events += tick.cluster_events;
    for (const auto& [unit, bits] : batch) {
      ASSERT_LT(unit, geo.num_units);
      ASSERT_FALSE(bits.empty());
      ASSERT_TRUE(std::is_sorted(bits.begin(), bits.end()));
      for (const auto bit : bits) ASSERT_LT(bit, geo.bits_per_unit);
      // A single row event is confined to one unit and spans at most
      // span_bits consecutive bits (possibly clipped at the unit edge).
      // Intervals with multiple events can overlap in a unit, so only
      // single-event intervals pin the footprint.
      if (tick.cluster_events == 1) {
        EXPECT_LE(bits.back() - bits.front() + 1, src.span_bits);
      }
    }
  }
  EXPECT_GT(events, 0u);
}

TEST(FaultScenario, ColumnClusterHitsSameBitAcrossUnits) {
  const Geometry geo{64, 32};
  ScenarioSpec spec;
  spec.name = "cols";
  SourceSpec src;
  src.kind = SourceKind::kCluster;
  src.events_per_interval = 1.0;
  src.shape = ClusterShape::kCol;
  src.span_units = 5;
  spec.sources.push_back(src);
  const FaultScenario s(spec, geo, 13);

  bool saw_multi_unit = false;
  for (std::uint64_t t = 0; t < 100; ++t) {
    ScenarioTick tick;
    const auto batch = s.transient(t, &tick);
    if (tick.cluster_events != 1 || batch.size() < 2) continue;
    saw_multi_unit = true;
    // One column event: every touched unit has the same single bit set.
    const std::uint32_t bit = batch.begin()->second.front();
    for (const auto& [unit, bits] : batch) {
      EXPECT_EQ(bits.size(), 1u);
      EXPECT_EQ(bits.front(), bit);
    }
  }
  EXPECT_TRUE(saw_multi_unit);
}

TEST(FaultScenario, ThermalRampRaisesFaultRate) {
  const Geometry geo = sudoku_geometry();
  ScenarioSpec spec;
  spec.name = "ramp";
  SourceSpec src;
  src.kind = SourceKind::kThermal;
  src.delta_start = 35.0;
  src.delta_end = 29.0;  // hotter end of the ramp = smaller Δ = more faults
  src.ramp_intervals = 100;
  spec.sources.push_back(src);
  const FaultScenario s(spec, geo, 17);

  std::uint64_t early = 0, late = 0;
  for (std::uint64_t t = 0; t < 30; ++t) {
    ScenarioTick tick;
    (void)s.transient(t, &tick);
    early += tick.transient_bits;
    (void)s.transient(t + 100, &tick);  // past the ramp: steady hot state
    late += tick.transient_bits;
  }
  EXPECT_GT(late, early);
}

TEST(FaultScenario, XorMergeCancelsDoubleFlips) {
  // Two identical overlapping cluster sources: every event pair flipping
  // the same footprint cancels to nothing. Seeded identically they always
  // coincide, so the merged batch must be empty whenever both fire alike.
  // (We can't force coincidence from the outside, so this just pins that
  // the merge path never produces a bit listed twice.)
  const Geometry geo{64, 32};
  ScenarioSpec spec;
  spec.name = "pair";
  SourceSpec src;
  src.kind = SourceKind::kIid;
  src.ber = 0.02;
  spec.sources.push_back(src);
  spec.sources.push_back(src);
  const FaultScenario s(spec, geo, 19);
  for (std::uint64_t t = 0; t < 50; ++t) {
    const auto batch = s.transient(t);
    for (const auto& [unit, bits] : batch) {
      ASSERT_TRUE(std::adjacent_find(bits.begin(), bits.end()) == bits.end());
    }
  }
}

// Differential check of the flat XOR merge. Dense sources on a tiny
// geometry make positions coincide across two or more sources; the
// reference replays each source's stream (derive_stream_seed(scenario
// seed, source index), sub-stream t) and toggles every flip into a
// std::set, as physical flips compose.
TEST(FaultScenario, FlatXorMergeMatchesToggleReference) {
  const Geometry geo{16, 24};
  ScenarioSpec spec;
  spec.name = "dense";
  SourceSpec iid;
  iid.kind = SourceKind::kIid;
  iid.ber = 0.08;
  spec.sources.push_back(iid);
  iid.ber = 0.05;
  spec.sources.push_back(iid);
  SourceSpec rect;
  rect.kind = SourceKind::kCluster;
  rect.events_per_interval = 2.0;
  rect.shape = ClusterShape::kRect;
  rect.span_units = 3;
  rect.span_bits = 5;
  spec.sources.push_back(rect);
  SourceSpec col = rect;
  col.shape = ClusterShape::kCol;
  col.span_units = 6;
  col.span_bits = 1;
  spec.sources.push_back(col);

  std::uint64_t cancelled = 0;
  for (const std::uint64_t seed : {3ull, 29ull}) {
    const FaultScenario s(spec, geo, seed);
    for (std::uint64_t t = 0; t < 300; ++t) {
      std::set<std::uint64_t> ref;
      std::uint64_t toggles = 0, events = 0;
      const auto toggle = [&](std::uint64_t pos) {
        ++toggles;
        if (!ref.insert(pos).second) ref.erase(pos);
      };
      for (std::size_t i = 0; i < spec.sources.size(); ++i) {
        const SourceSpec& src = spec.sources[i];
        Rng rng(Rng::derive_stream_seed(Rng::derive_stream_seed(seed, i), t));
        if (src.kind == SourceKind::kIid) {
          const FaultInjector inj(geo.num_units, geo.bits_per_unit, src.ber);
          for (const auto& [unit, bits] : inj.sample_interval(rng))
            for (const auto bit : bits) toggle(unit * geo.bits_per_unit + bit);
          continue;
        }
        const std::uint64_t n = rng.next_poisson(src.events_per_interval);
        events += n;
        for (std::uint64_t e = 0; e < n; ++e) {
          const std::uint64_t unit0 = rng.next_below(geo.num_units);
          const std::uint64_t bit0 = rng.next_below(geo.bits_per_unit);
          // Footprint clipped at the array edges.
          const std::uint64_t unit_end = std::min(unit0 + src.span_units, geo.num_units);
          const std::uint64_t bit_end =
              std::min<std::uint64_t>(bit0 + src.span_bits, geo.bits_per_unit);
          for (std::uint64_t u = unit0; u < unit_end; ++u)
            for (std::uint64_t b = bit0; b < bit_end; ++b) toggle(u * geo.bits_per_unit + b);
        }
      }
      cancelled += toggles - ref.size();

      std::vector<std::uint64_t> flat = {42};  // replaced, not appended to
      ScenarioTick tick;
      s.transient_positions(t, flat, &tick);
      ASSERT_EQ(flat, std::vector<std::uint64_t>(ref.begin(), ref.end()))
          << "seed " << seed << " t " << t;
      EXPECT_EQ(tick.transient_bits, flat.size()) << "seed " << seed << " t " << t;
      EXPECT_EQ(tick.cluster_events, events) << "seed " << seed << " t " << t;

      // transient() is the grouping of the same list, with the same tick.
      FaultBatch grouped;
      for (const auto pos : flat)
        grouped[pos / geo.bits_per_unit].push_back(
            static_cast<std::uint32_t>(pos % geo.bits_per_unit));
      ScenarioTick batch_tick;
      EXPECT_TRUE(batches_equal(s.transient(t, &batch_tick), grouped))
          << "seed " << seed << " t " << t;
      EXPECT_EQ(batch_tick.transient_bits, tick.transient_bits) << "seed " << seed << " t " << t;
      EXPECT_EQ(batch_tick.cluster_events, tick.cluster_events) << "seed " << seed << " t " << t;
    }
  }
  // The spec is dense enough that the merge really cancels flips.
  EXPECT_GT(cancelled, 0u);
}

TEST(ScenarioSpec, JsonRoundTripPreservesSpec) {
  for (const auto& name : ScenarioSpec::builtin_names()) {
    const ScenarioSpec spec = ScenarioSpec::builtin(name);
    std::string error;
    const auto parsed = ScenarioSpec::parse(spec.to_json(), &error);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
    EXPECT_EQ(*parsed, spec) << name;
  }
}

TEST(ScenarioSpec, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ScenarioSpec::parse("[]", &error).has_value());
  EXPECT_FALSE(
      ScenarioSpec::parse(R"({"name":"x","sources":[{"kind":"martian"}]})",
                          &error)
          .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioSpec, BuiltinNamesCoverTheMatrix) {
  const auto names = ScenarioSpec::builtin_names();
  EXPECT_GE(names.size(), 7u);
  for (const auto& name : names) {
    EXPECT_FALSE(ScenarioSpec::builtin(name).sources.empty()) << name;
  }
}

TEST(AssertCells, IsIdempotent) {
  SttramArray array(8, 64);
  const std::vector<StuckCell> cells = {{1, 3, true}, {1, 7, false}, {5, 63, true}};
  assert_cells(array, cells);
  const BitVec line1 = array.read_line(1);
  const BitVec line5 = array.read_line(5);
  assert_cells(array, cells);
  EXPECT_TRUE(array.line_equals(1, line1));
  EXPECT_TRUE(array.line_equals(5, line5));
  EXPECT_TRUE(array.test(1, 3));
  EXPECT_FALSE(array.test(1, 7));
  EXPECT_TRUE(array.test(5, 63));
}

TEST(ActiveStuck, EqualOutsideStuckMasksOnlyStuckPositions) {
  ActiveStuck stuck(std::vector<StuckCell>{{2, 4, true}, {2, 9, false}});
  BitVec golden(16);
  golden.set(1);
  BitVec stored = golden;
  stored.set(4);  // differs only at the stuck position
  EXPECT_TRUE(stuck.equal_outside_stuck(2, stored, golden));
  stored.set(11);  // a genuine divergence
  EXPECT_FALSE(stuck.equal_outside_stuck(2, stored, golden));
  // A unit with no stuck cells degenerates to plain equality.
  EXPECT_FALSE(stuck.equal_outside_stuck(3, stored, golden));
  EXPECT_TRUE(stuck.equal_outside_stuck(3, golden, golden));
}

TEST(ActiveStuck, DuplicateCellsResolveLastWinsInInputOrder) {
  const ActiveStuck stuck(std::vector<StuckCell>{{3, 5, true},
                                                 {1, 2, false},
                                                 {3, 5, false},
                                                 {1, 2, true},
                                                 {0, 7, true},
                                                 {3, 5, true},
                                                 {3, 1, false}});
  const std::vector<StuckCell> want = {
      {0, 7, true}, {1, 2, true}, {3, 1, false}, {3, 5, true}};
  EXPECT_EQ(stuck.cells(), want);
  EXPECT_EQ(stuck.units(), (std::vector<std::uint64_t>{0, 1, 3}));
}

TEST(ActiveStuck, MatchesOrderedMapReference) {
  // Random cell lists over a small key space (many duplicates), resolved
  // against a std::map that assigns in input order.
  Rng rng(91);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<StuckCell> cells(rng.next_below(40));
    for (StuckCell& c : cells)
      c = {rng.next_below(6), static_cast<std::uint32_t>(rng.next_below(5)), rng.next_bool(0.5)};
    std::map<std::pair<std::uint64_t, std::uint32_t>, bool> ref;
    for (const StuckCell& c : cells) ref[{c.unit, c.bit}] = c.value;
    std::vector<StuckCell> want;
    std::vector<std::uint64_t> units;
    for (const auto& [key, value] : ref) {
      want.push_back({key.first, key.second, value});
      if (units.empty() || units.back() != key.first) units.push_back(key.first);
    }
    const ActiveStuck stuck(cells);
    ASSERT_EQ(stuck.cells(), want) << "trial " << trial;
    ASSERT_EQ(stuck.units(), units) << "trial " << trial;
  }
}

// ---- MC integration -------------------------------------------------------

TEST(ScenarioMc, StuckOnlyScenarioIsFullyToleratedBySudokuX) {
  // §VI: a sparse population of permanent cells is corrected on every
  // scrub — no DUEs, no SDC, and the fault never "heals".
  reliability::McConfig cfg;
  cfg.cache.num_lines = 1024;
  cfg.cache.group_size = 32;
  cfg.level = SudokuLevel::kX;
  cfg.max_intervals = 64;
  cfg.seed = 21;
  cfg.per_trial_seed_streams = true;

  ScenarioSpec spec;
  spec.name = "stuck-sparse";
  SourceSpec src;
  src.kind = SourceKind::kStuckAt;
  src.cells = 16;
  spec.sources.push_back(src);
  const FaultScenario scenario(spec, sudoku_geometry(1024), cfg.seed);
  cfg.scenario = &scenario;

  const auto result = reliability::run_montecarlo(cfg);
  EXPECT_EQ(result.intervals, 64u);
  EXPECT_EQ(result.due_lines, 0u);
  EXPECT_EQ(result.sdc_lines, 0u);
  EXPECT_GT(result.ecc1_corrections, 0u);
}

TEST(ScenarioMc, ShardSplitIsBitIdenticalToMonolithicRun) {
  const Geometry geo = sudoku_geometry(1024);
  const FaultScenario scenario(ScenarioSpec::builtin("mixed"), geo, 33);

  reliability::McConfig cfg;
  cfg.cache.num_lines = 1024;
  cfg.cache.group_size = 32;
  cfg.level = SudokuLevel::kZ;
  cfg.seed = 33;
  cfg.per_trial_seed_streams = true;
  cfg.scenario = &scenario;

  cfg.max_intervals = 40;
  cfg.first_trial = 0;
  const auto whole = reliability::run_montecarlo(cfg);

  cfg.max_intervals = 25;
  auto merged = reliability::run_montecarlo(cfg);
  cfg.first_trial = 25;
  cfg.max_intervals = 15;
  merged += reliability::run_montecarlo(cfg);

  EXPECT_EQ(whole.intervals, merged.intervals);
  EXPECT_EQ(whole.faults_injected, merged.faults_injected);
  EXPECT_EQ(whole.ecc1_corrections, merged.ecc1_corrections);
  EXPECT_EQ(whole.raid4_repairs, merged.raid4_repairs);
  EXPECT_EQ(whole.sdr_repairs, merged.sdr_repairs);
  EXPECT_EQ(whole.due_lines, merged.due_lines);
  EXPECT_EQ(whole.sdc_lines, merged.sdc_lines);
  EXPECT_EQ(whole.failure_intervals, merged.failure_intervals);
}

TEST(ScenarioMc, BaselineRunnerShardSplitMatchesToo) {
  baselines::EccKCache cache(256, 4);
  const Geometry geo{cache.num_units(), cache.bits_per_unit()};
  const FaultScenario scenario(ScenarioSpec::builtin("clustered"), geo, 55);

  baselines::BaselineMcConfig cfg;
  cfg.seed = 55;
  cfg.per_trial_seed_streams = true;
  cfg.scenario = &scenario;

  cfg.max_intervals = 40;
  cfg.first_trial = 0;
  baselines::EccKCache whole_cache(256, 4);
  const auto whole = baselines::run_baseline_mc(whole_cache, cfg);

  cfg.max_intervals = 17;
  baselines::EccKCache a_cache(256, 4);
  auto merged = baselines::run_baseline_mc(a_cache, cfg);
  cfg.first_trial = 17;
  cfg.max_intervals = 23;
  baselines::EccKCache b_cache(256, 4);
  merged += baselines::run_baseline_mc(b_cache, cfg);

  EXPECT_EQ(whole.intervals, merged.intervals);
  EXPECT_EQ(whole.faults_injected, merged.faults_injected);
  EXPECT_EQ(whole.corrected, merged.corrected);
  EXPECT_EQ(whole.due_units, merged.due_units);
  EXPECT_EQ(whole.sdc_units, merged.sdc_units);
  EXPECT_EQ(whole.failure_intervals, merged.failure_intervals);
}

TEST(ScenarioMc, GoldenRestoreLeavesParitiesConsistent) {
  // The scenario MC loop restores touched lines from golden without
  // rebuilding parity: no interval writes a PLT, and the restore puts back
  // exactly the codewords the PLTs were built from. Replay that loop on
  // mixed-preset intervals and check the PLTs after every interval.
  SudokuConfig cfg;
  cfg.geo.num_lines = 1024;
  cfg.geo.group_size = 32;
  cfg.level = SudokuLevel::kZ;
  SudokuController ctrl(cfg);
  Rng rng(17);
  ctrl.format_random(rng);
  const SttramArray golden = ctrl.array();
  const FaultScenario scn(ScenarioSpec::builtin("mixed"), sudoku_geometry(), 23);
  BitVec want;
  std::uint64_t repairs = 0;
  std::uint64_t group_repairs = 0;
  for (std::uint64_t t = 0; t < 400; ++t) {
    const FaultBatch batch = scn.transient(t);
    const ActiveStuck stuck = scn.stuck(t);
    FaultInjector::apply(batch, ctrl.array());
    stuck.assert_on(ctrl.array());
    std::vector<std::uint64_t> touched;
    for (const auto& [line, bits] : batch) touched.push_back(line);
    touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

    const ScrubStats stats = ctrl.scrub_lines(touched);
    repairs += stats.ecc1_corrections + stats.raid4_repairs + stats.sdr_repairs;
    group_repairs += stats.groups_repaired;
    stuck.assert_on(ctrl.array());
    for (const auto line : touched) {
      golden.read_line(line, want);
      if (!ctrl.array().line_equals(line, want)) ctrl.array().write_line(line, want);
    }
    ASSERT_TRUE(ctrl.parities_consistent()) << "interval " << t;
  }
  EXPECT_GT(repairs, 0u);
  EXPECT_GT(group_repairs, 0u);  // the RAID machinery read the PLTs
}

}  // namespace
}  // namespace sudoku::faults
