// Covers the shared bench plumbing: the exp JSON emitter (escaping and
// round-trip-exact number formatting), the --threads/--seed/--json arg
// parser, and the bench runner (bench::Run, bench::Table) in bench_util.h.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/json.h"
#include "exp/result_sink.h"

namespace sudoku::exp {
namespace {

// A fresh directory per test case, named from the test and the pid, so
// tests running in parallel processes never share (or delete) each
// other's files.
std::filesystem::path case_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("sudoku_bench_util_") + info->test_suite_name() +
                    "." + info->name() + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab\r"), "line\\nbreak\\ttab\\r");
  EXPECT_EQ(json_escape(std::string("nul\x01" "byte")), "nul\\u0001byte");
  EXPECT_EQ(json_escape("utf8 \xc3\xa9"), "utf8 \xc3\xa9");  // passthrough
}

TEST(JsonNumber, ScientificValuesRoundTripExactly) {
  const double values[] = {0.0,       1.0,     -1.0,         0.1,
                           5.3e-6,    1e-300,  -2.5e17,      3.141592653589793,
                           1.8e14,    2e-31,   1.0 / 3.0,    6.02214076e23};
  for (const double v : values) {
    const std::string s = json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(JsonNumber, PrefersShortRepresentations) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(std::uint64_t{18446744073709551615ull}),
            "18446744073709551615");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonObject, PreservesInsertionOrderAndTypes) {
  JsonObject o;
  o.set("name", "mc").set("trials", std::uint64_t{42}).set("ok", true).set("p", 0.25);
  EXPECT_EQ(o.str(), "{\"name\":\"mc\",\"trials\":42,\"ok\":true,\"p\":0.25}");
}

TEST(JsonObject, NestedObjectsAndArrays) {
  JsonObject inner;
  inner.set("a", 1);
  JsonArray arr;
  arr.push(std::uint64_t{1}).push("two").push(inner);
  JsonObject o;
  o.set("items", arr).set("empty", JsonObject{});
  EXPECT_EQ(o.str(), "{\"items\":[1,\"two\",{\"a\":1}],\"empty\":{}}");
}

TEST(JsonObject, PrettyPrintsOneMemberPerLine) {
  JsonObject o;
  o.set("a", 1).set("b", 2);
  EXPECT_EQ(o.str(true), "{\n  \"a\": 1,\n  \"b\": 2\n}");
}

TEST(ResultSinkTest, WritesArtifactUnderOutDir) {
  const auto dir = case_dir();
  const ResultSink sink(dir);
  JsonObject config, result;
  config.set("seed", std::uint64_t{9});
  result.set("failures", std::uint64_t{3});
  RunStats stats;
  stats.trials = 100;
  stats.wall_seconds = 2.0;
  stats.threads = 4;
  stats.shards = 7;
  const auto path = sink.write("unit_test", config, result, stats);
  EXPECT_EQ(path, dir / "unit_test.json");
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"experiment\": \"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"trials_per_second\":50"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(BenchArgs, ParsesSharedFlags) {
  const char* argv[] = {"bench", "--threads=8", "--seed=1234", "--json",
                        "--out=/tmp/x", "--scale=3"};
  const auto args = bench::BenchArgs::parse(6, const_cast<char**>(argv));
  EXPECT_EQ(args.threads, 8u);
  EXPECT_EQ(args.seed, 1234u);
  EXPECT_TRUE(args.json);
  EXPECT_EQ(args.out_dir, "/tmp/x");
  EXPECT_EQ(args.scale, 3u);
}

TEST(BenchArgs, LegacyPositionalScaleAndDefaults) {
  const char* argv[] = {"bench", "7"};
  const auto args = bench::BenchArgs::parse(2, const_cast<char**>(argv));
  EXPECT_EQ(args.scale, 7u);
  EXPECT_EQ(args.threads, 0u);
  EXPECT_FALSE(args.json);
  EXPECT_EQ(args.out_dir, "bench/out");
  EXPECT_EQ(args.seed_or(99), 99u);
}

TEST(BenchArgs, SeedOverrideWinsOverFallback) {
  const char* argv[] = {"bench", "--seed=5"};
  const auto args = bench::BenchArgs::parse(2, const_cast<char**>(argv));
  EXPECT_EQ(args.seed_or(99), 5u);
}

TEST(BenchArgs, ParsesCheckpointAndResume) {
  const char* argv[] = {"bench", "--checkpoint=/tmp/ck", "--resume"};
  const auto args = bench::BenchArgs::parse(3, const_cast<char**>(argv));
  EXPECT_TRUE(args.checkpointing());
  EXPECT_EQ(args.checkpoint_dir, "/tmp/ck");
  EXPECT_TRUE(args.resume);
}

TEST(BenchArgs, CheckpointingOffByDefault) {
  const char* argv[] = {"bench"};
  const auto args = bench::BenchArgs::parse(1, const_cast<char**>(argv));
  EXPECT_FALSE(args.checkpointing());
  EXPECT_FALSE(args.resume);
}

// Malformed/unknown input must exit 2 with a usage message — never escape
// as an uncaught std::invalid_argument/std::out_of_range.
using BenchArgsDeath = ::testing::Test;

int parse_and_return(std::initializer_list<const char*> argv_list) {
  std::vector<const char*> argv(argv_list);
  bench::BenchArgs::parse(static_cast<int>(argv.size()),
                          const_cast<char**>(argv.data()));
  return 0;  // only reached when parse() did not exit
}

TEST(BenchArgsDeath, NonNumericSeedExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--seed=abc"}),
              ::testing::ExitedWithCode(2), "invalid value for --seed");
}

TEST(BenchArgsDeath, OverflowSeedExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--seed=99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "out of range for --seed");
}

TEST(BenchArgsDeath, NegativeScaleExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--scale=-3"}),
              ::testing::ExitedWithCode(2), "invalid value for --scale");
}

TEST(BenchArgsDeath, ThreadsBeyondUnsignedExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--threads=4294967296"}),
              ::testing::ExitedWithCode(2), "out of range for --threads");
}

TEST(BenchArgsDeath, TrailingJunkExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--seed=12abc"}),
              ::testing::ExitedWithCode(2), "invalid value for --seed");
}

TEST(BenchArgsDeath, UnknownFlagExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--bogus"}),
              ::testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchArgsDeath, ResumeWithoutCheckpointExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--resume"}),
              ::testing::ExitedWithCode(2), "--resume requires --checkpoint");
}

TEST(BenchArgsDeath, EmptyCheckpointDirExitsTwo) {
  EXPECT_EXIT(parse_and_return({"bench", "--checkpoint="}),
              ::testing::ExitedWithCode(2), "--checkpoint needs a directory");
}

TEST(BenchArgsDeath, HelpExitsZeroWithUsage) {
  EXPECT_EXIT(parse_and_return({"bench", "--help"}),
              ::testing::ExitedWithCode(0), "");
}

// Analytical benches have no worker pool, trial budget, or checkpointable
// shards: the corresponding flags must hit the usage+exit-2 path instead
// of being silently swallowed.
int parse_analytical_and_return(std::initializer_list<const char*> argv_list) {
  std::vector<const char*> argv(argv_list);
  bench::BenchArgs::Options opts;
  opts.threads = false;
  opts.checkpoint = false;
  opts.scale = false;
  bench::BenchArgs::parse(static_cast<int>(argv.size()),
                          const_cast<char**>(argv.data()), opts);
  return 0;
}

TEST(BenchArgsDeath, AnalyticalBenchRejectsThreads) {
  EXPECT_EXIT(parse_analytical_and_return({"bench", "--threads=4"}),
              ::testing::ExitedWithCode(2),
              "--threads is not supported by this bench");
}

TEST(BenchArgsDeath, AnalyticalBenchRejectsCheckpointAndResume) {
  EXPECT_EXIT(parse_analytical_and_return({"bench", "--checkpoint=/tmp/ck"}),
              ::testing::ExitedWithCode(2),
              "--checkpoint is not supported by this bench");
  EXPECT_EXIT(parse_analytical_and_return({"bench", "--resume"}),
              ::testing::ExitedWithCode(2),
              "--resume is not supported by this bench");
}

TEST(BenchArgsDeath, AnalyticalBenchRejectsScaleAndPositional) {
  EXPECT_EXIT(parse_analytical_and_return({"bench", "--scale=3"}),
              ::testing::ExitedWithCode(2),
              "--scale is not supported by this bench");
  EXPECT_EXIT(parse_analytical_and_return({"bench", "7"}),
              ::testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchArgs, AnalyticalBenchStillTakesSeedJsonOut) {
  const char* argv[] = {"bench", "--seed=3", "--json", "--out=/tmp/o"};
  bench::BenchArgs::Options opts;
  opts.threads = false;
  opts.checkpoint = false;
  opts.scale = false;
  const auto args =
      bench::BenchArgs::parse(4, const_cast<char**>(argv), opts);
  EXPECT_EQ(args.seed, 3u);
  EXPECT_TRUE(args.json);
  EXPECT_EQ(args.out_dir, "/tmp/o");
}

TEST(BenchArgs, ExtraFlagsAreCollected) {
  const char* argv[] = {"bench", "--gbench"};
  bench::BenchArgs::Options opts;
  opts.extra_flags = {"--gbench"};
  const auto args = bench::BenchArgs::parse(2, const_cast<char**>(argv), opts);
  EXPECT_TRUE(args.has_extra("--gbench"));
  EXPECT_FALSE(args.has_extra("--other"));
}

TEST(BenchArgsDeath, UndeclaredExtraFlagStillUnknown) {
  EXPECT_EXIT(parse_and_return({"bench", "--gbench"}),
              ::testing::ExitedWithCode(2), "unknown argument");
}

// ---- load-sweep flags (--clients/--banks/--duration-ms) ---------------

int parse_load_and_return(std::initializer_list<const char*> argv_list) {
  std::vector<const char*> argv(argv_list);
  bench::BenchArgs::Options opts;
  opts.threads = false;
  opts.checkpoint = false;
  opts.scale = false;
  opts.load = true;
  bench::BenchArgs::parse(static_cast<int>(argv.size()),
                          const_cast<char**>(argv.data()), opts);
  return 0;
}

TEST(BenchArgs, ParsesLoadSweepFlags) {
  const char* argv[] = {"bench", "--clients=8", "--banks=4",
                        "--duration-ms=250"};
  bench::BenchArgs::Options opts;
  opts.load = true;
  const auto args = bench::BenchArgs::parse(4, const_cast<char**>(argv), opts);
  EXPECT_EQ(args.clients, 8u);
  EXPECT_EQ(args.banks, 4u);
  EXPECT_EQ(args.duration_ms, 250u);
}

TEST(BenchArgs, LoadSweepFlagsDefaultToZeroMeaningSweep) {
  const char* argv[] = {"bench"};
  bench::BenchArgs::Options opts;
  opts.load = true;
  const auto args = bench::BenchArgs::parse(1, const_cast<char**>(argv), opts);
  EXPECT_EQ(args.clients, 0u);
  EXPECT_EQ(args.banks, 0u);
  EXPECT_EQ(args.duration_ms, 0u);
}

TEST(BenchArgsDeath, NonLoadBenchRejectsClients) {
  EXPECT_EXIT(parse_and_return({"bench", "--clients=8"}),
              ::testing::ExitedWithCode(2),
              "--clients is not supported by this bench");
}

TEST(BenchArgsDeath, NonLoadBenchRejectsBanksAndDuration) {
  EXPECT_EXIT(parse_and_return({"bench", "--banks=4"}),
              ::testing::ExitedWithCode(2),
              "--banks is not supported by this bench");
  EXPECT_EXIT(parse_and_return({"bench", "--duration-ms=100"}),
              ::testing::ExitedWithCode(2),
              "--duration-ms is not supported by this bench");
}

TEST(BenchArgsDeath, MalformedClientsExitsTwo) {
  EXPECT_EXIT(parse_load_and_return({"bench", "--clients=abc"}),
              ::testing::ExitedWithCode(2), "invalid value for --clients");
}

// A zero-client or zero-bank service measures nothing: explicit 0 is an
// error, not "use the default".
TEST(BenchArgsDeath, ExplicitZeroClientsExitsTwo) {
  EXPECT_EXIT(parse_load_and_return({"bench", "--clients=0"}),
              ::testing::ExitedWithCode(2), "out of range for --clients");
}

TEST(BenchArgsDeath, ExplicitZeroBanksExitsTwo) {
  EXPECT_EXIT(parse_load_and_return({"bench", "--banks=0"}),
              ::testing::ExitedWithCode(2), "out of range for --banks");
}

TEST(BenchArgsDeath, OverflowDurationExitsTwo) {
  EXPECT_EXIT(parse_load_and_return({"bench", "--duration-ms=4294967296"}),
              ::testing::ExitedWithCode(2), "out of range for --duration-ms");
}

// The batch-sweep accounting that keeps throughput honest on partial
// final batches (bench_codec_throughput's batch rows charge
// batched_items, never nominal-batch * count).
TEST(BenchBatchAccounting, BatchCountRoundsUp) {
  using sudoku::bench::batch_count;
  EXPECT_EQ(batch_count(0, 64), 0u);
  EXPECT_EQ(batch_count(1, 64), 1u);
  EXPECT_EQ(batch_count(63, 64), 1u);
  EXPECT_EQ(batch_count(64, 64), 1u);
  EXPECT_EQ(batch_count(65, 64), 2u);
  EXPECT_EQ(batch_count(130, 64), 3u);
  EXPECT_EQ(batch_count(200, 64), 4u);
  EXPECT_EQ(batch_count(10, 0), 0u);  // degenerate batch size
}

TEST(BenchBatchAccounting, BatchWidthChargesPartialTail) {
  using sudoku::bench::batch_width;
  // 200 items in 64-batches: 64, 64, 64, then a partial 8-line tail.
  EXPECT_EQ(batch_width(200, 64, 0), 64u);
  EXPECT_EQ(batch_width(200, 64, 2), 64u);
  EXPECT_EQ(batch_width(200, 64, 3), 8u);
  EXPECT_EQ(batch_width(200, 64, 4), 0u);  // past the end
  EXPECT_EQ(batch_width(1, 64, 0), 1u);
  EXPECT_EQ(batch_width(63, 64, 0), 63u);
  EXPECT_EQ(batch_width(64, 64, 0), 64u);
  EXPECT_EQ(batch_width(65, 64, 1), 1u);
  EXPECT_EQ(batch_width(65, 0, 0), 0u);
}

TEST(BenchBatchAccounting, BatchedItemsNeverExceedsRequested) {
  using sudoku::bench::batch_count;
  using sudoku::bench::batched_items;
  for (const std::uint64_t items : {0u, 1u, 63u, 64u, 65u, 130u, 200u}) {
    const std::uint64_t nb = batch_count(items, 64);
    // Every batch processed: payload is exactly the stream length, not
    // the nominal nb * 64 (which overstates 200 -> 256).
    EXPECT_EQ(batched_items(items, 64, nb), items) << items;
    // Truncated run: payload is only the full batches actually touched.
    if (nb > 0) {
      EXPECT_EQ(batched_items(items, 64, nb - 1), (nb - 1) * 64) << items;
    }
  }
  EXPECT_EQ(batched_items(200, 64, 4), 200u);
  EXPECT_EQ(batched_items(200, 64, 99), 200u);  // extra batches add nothing
}

// ---- bench::Table -------------------------------------------------------

TEST(BenchTable, RowsEqualHandBuiltJsonObjects) {
  ::testing::internal::CaptureStdout();
  bench::Table table({{"name", "%-6s", "name"},
                      {"", "", "count"},
                      {"p", "%9s", "p"},
                      {"paper", "%9s", ""},
                      {"n", "%4d", "n"},
                      {"ok", "%4s", "ok"},
                      {"big", "%21u", "big"},
                      {"x", "%6.2fx", "ratio"}});
  table.row("a", std::uint64_t{42}, 0.25, 1e-4, -3, true,
            std::uint64_t{18446744073709551615ull}, 2.0);
  table.row(std::string("b"), 7u, 1.0, 3.0, 0, false, std::uint64_t{0}, 0.5);
  const std::string console = ::testing::internal::GetCapturedStdout();

  JsonObject a;
  a.set("name", "a")
      .set("count", std::uint64_t{42})
      .set("p", 0.25)
      .set("n", -3)
      .set("ok", true)
      .set("big", std::uint64_t{18446744073709551615ull})
      .set("ratio", 2.0);
  JsonObject b;
  b.set("name", "b")
      .set("count", 7u)
      .set("p", 1.0)
      .set("n", 0)
      .set("ok", false)
      .set("big", std::uint64_t{0})
      .set("ratio", 0.5);
  JsonArray expected;
  expected.push(a).push(b);
  EXPECT_EQ(table.json().str(), expected.str());
  EXPECT_EQ(table.json().str(true), expected.str(true));

  // Console: header, the console-only paper column through sci(), no
  // JSON-only count, integers never routed through a double.
  EXPECT_NE(console.find("name"), std::string::npos);
  EXPECT_NE(console.find("1.00e-04"), std::string::npos);
  EXPECT_NE(console.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(console.find("  2.00x"), std::string::npos);
  EXPECT_NE(console.find(" yes"), std::string::npos);
  EXPECT_EQ(console.find("42"), std::string::npos);
  EXPECT_EQ(table.json().str().find("paper"), std::string::npos);
}

TEST(BenchTable, RowReturnsTheJsonRowForNestedExtras) {
  ::testing::internal::CaptureStdout();
  bench::Table table({{"scheme", "%-8s", "scheme"}});
  JsonArray series;
  series.push(0.5);
  table.row("X").set("series", series);
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(table.json().str(), "[{\"scheme\":\"X\",\"series\":[0.5]}]");
}

// ---- bench::Run ---------------------------------------------------------

// Parses {"bench", args...} into a Run whose artifacts land in `dir`.
struct RunArgs {
  explicit RunArgs(const std::filesystem::path& dir,
                   std::vector<std::string> extra = {}) {
    text = {"bench", "--out=" + dir.string()};
    text.insert(text.end(), extra.begin(), extra.end());
    for (auto& t : text) argv.push_back(t.data());
  }
  int argc() const { return static_cast<int>(argv.size()); }
  std::vector<std::string> text;
  std::vector<char*> argv;
};

reliability::McConfig tiny_mc() {
  reliability::McConfig cfg;
  cfg.cache.num_lines = 256;
  cfg.cache.group_size = 16;
  cfg.cache.ber = 1e-4;
  cfg.level = SudokuLevel::kX;
  cfg.max_intervals = 4;
  cfg.seed = 3;
  return cfg;
}

TEST(BenchRunDeath, EngineCallAfterShutdownExitsInterrupted) {
  const auto dir = case_dir();
  EXPECT_EXIT(
      {
        RunArgs a(dir);
        bench::Run run(a.argc(), a.argv.data());
        request_shutdown();
        run.mc(tiny_mc(), "shutdown_test");
        std::exit(0);  // only reached when mc() did not exit
      },
      ::testing::ExitedWithCode(kExitInterrupted), "interrupted");
  EXPECT_FALSE(std::filesystem::exists(dir));  // no artifact, no out dir
}

TEST(BenchRun, MetricsKeyPresentIffARegistryWasMerged) {
  reset_shutdown();
  const auto dir = case_dir();
  RunArgs a(dir);
  ::testing::internal::CaptureStdout();
  {
    bench::Run run(a.argc(), a.argv.data());
    run.stats.trials = 1;
    run.finish("plain", JsonObject{}, JsonObject{});
  }
  {
    bench::Run run(a.argc(), a.argv.data());
    reliability::McConfig group = tiny_mc();
    group.cache.num_lines = 16;
    RareEventConfig rare;
    rare.base = reliability::kernel_config(group);
    rare.trials = 128;
    run.rare([&group] { return reliability::make_scheme(group); }, rare, "rare_only");
    run.finish("rare_only", JsonObject{}, JsonObject{});
  }
  {
    bench::Run run(a.argc(), a.argv.data());
    run.mc(tiny_mc(), "with_mc");
    run.finish("with_mc", JsonObject{}, JsonObject{});
  }
  {
    bench::Run run(a.argc(), a.argv.data());
    run.metrics().counter("bench.own")->inc();
    run.finish("own_registry", JsonObject{}, JsonObject{});
  }
  ::testing::internal::GetCapturedStdout();
  const auto has_metrics = [&](const char* name) {
    return slurp(dir / (std::string(name) + ".json")).find("\n  \"metrics\": ") !=
           std::string::npos;
  };
  EXPECT_FALSE(has_metrics("plain"));
  EXPECT_FALSE(has_metrics("rare_only"));
  EXPECT_TRUE(has_metrics("with_mc"));
  EXPECT_TRUE(has_metrics("own_registry"));
  std::filesystem::remove_all(dir);
}

TEST(BenchRun, JsonFlagPrintsTheWrittenRoot) {
  reset_shutdown();
  const auto dir = case_dir();
  RunArgs a(dir, {"--json"});
  bench::Run run(a.argc(), a.argv.data());
  ::testing::internal::CaptureStdout();
  const auto r = run.mc(tiny_mc(), "json_root");
  JsonObject config, result;
  config.set("seed", std::uint64_t{3});
  result.set("intervals", r.intervals);
  const auto path = run.finish("json_root", config, result);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string file = slurp(path);
  ASSERT_FALSE(file.empty());
  ASSERT_GE(out.size(), file.size());
  EXPECT_EQ(out.substr(out.size() - file.size()), file);
  EXPECT_EQ(run.stats.trials, 4u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sudoku::exp
