// Fault-tolerance layer: atomic file publication, the JSON parser the
// checkpoint codecs rely on, the CheckpointStore, round-trip-exact shard
// payload codecs, and the headline property — a run killed after (or in
// the middle of) K shards and then resumed produces the same merged result
// bit for bit, for any K and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "common/json_parse.h"
#include "exp/atomic_file.h"
#include "exp/checkpoint.h"
#include "exp/mc_experiments.h"
#include "exp/metrics_io.h"
#include "exp/result_sink.h"
#include "exp/shutdown.h"
#include "reliability/montecarlo.h"

namespace sudoku::exp {
namespace {

using reliability::McConfig;
using reliability::McResult;

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sudoku_ckpt_test_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ---- atomic_write_file -------------------------------------------------

TEST(AtomicFile, WritesAndOverwritesWithoutTempLeftovers) {
  const auto dir = fresh_dir("atomic");
  std::filesystem::create_directories(dir);
  const auto path = dir / "payload.json";
  atomic_write_file(path, "first");
  EXPECT_EQ(slurp(path), "first");
  atomic_write_file(path, "second version");
  EXPECT_EQ(slurp(path), "second version");
  // rename() published the file; no temp siblings may remain.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, ThrowsWhenDirectoryMissing) {
  const auto dir = fresh_dir("atomic_missing");  // never created
  EXPECT_THROW(atomic_write_file(dir / "x.json", "data"), std::runtime_error);
}

// Cross-process contract (docs/fleet.md): rename(2) replaces the target
// atomically, so concurrent publishers of the same path — fleet siblings
// emitting the same artifact — always leave one COMPLETE payload behind,
// never a mix, and their pid/thread-unique temp files never collide.
TEST(AtomicFile, ConcurrentWritersLeaveOneCompletePayload) {
  const auto dir = fresh_dir("atomic_race");
  std::filesystem::create_directories(dir);
  const auto path = dir / "artifact.json";
  const std::string payloads[2] = {std::string(4096, 'A'),
                                   std::string(4096, 'B')};
  std::thread writers[2];
  for (int w = 0; w < 2; ++w) {
    writers[w] = std::thread([&, w] {
      for (int i = 0; i < 50; ++i) atomic_write_file(path, payloads[w]);
    });
  }
  for (auto& t : writers) t.join();
  const std::string final = slurp(path);
  EXPECT_TRUE(final == payloads[0] || final == payloads[1]);
  // Nothing staged left behind: the only directory entry is the artifact.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, ExclusiveCreateIsAnExclusiveAtom) {
  const auto dir = fresh_dir("atomic_excl");
  std::filesystem::create_directories(dir);
  const auto path = dir / "claim";
  EXPECT_TRUE(atomic_create_file(path, "owner-1"));
  EXPECT_FALSE(atomic_create_file(path, "owner-2"));  // exists -> refused
  EXPECT_EQ(slurp(path), "owner-1");                  // loser changed nothing
  std::filesystem::remove(path);
  EXPECT_TRUE(atomic_create_file(path, "owner-3"));
  // Unlike atomic_write_file, a missing parent directory is an error the
  // caller must hear about (the claim would silently never exist).
  EXPECT_THROW(atomic_create_file(dir / "no_dir" / "claim", "x"),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ---- json_parse --------------------------------------------------------

TEST(JsonParse, LargeU64SurvivesExactly) {
  // 2^64-1 is not representable as a double; the parser must keep the raw
  // digits so checkpointed counters round-trip exactly.
  const auto v = json_parse("{\"n\":18446744073709551615}");
  ASSERT_TRUE(v.has_value());
  const JsonValue* n = v->find("n");
  ASSERT_NE(n, nullptr);
  ASSERT_TRUE(n->as_u64().has_value());
  EXPECT_EQ(*n->as_u64(), 18446744073709551615ull);
}

TEST(JsonParse, DoublesReparseBitExactly) {
  const double values[] = {0.0, 0.1, 5.3e-6, 1e-300, -2.5e17,
                           3.141592653589793, 1.0 / 3.0};
  for (const double d : values) {
    JsonObject o;
    o.set("x", d);
    const auto v = json_parse(o.str());
    ASSERT_TRUE(v.has_value()) << o.str();
    const JsonValue* x = v->find("x");
    ASSERT_NE(x, nullptr);
    ASSERT_TRUE(x->as_double().has_value());
    EXPECT_EQ(*x->as_double(), d) << o.str();
  }
}

TEST(JsonParse, StringsUnescapeAndNestingWorks) {
  const auto v = json_parse(
      "{\"s\":\"a\\n\\\"b\\\"\\u0041\",\"arr\":[1,{\"k\":true},null]}");
  ASSERT_TRUE(v.has_value());
  const JsonValue* s = v->find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->scalar, "a\n\"b\"A");
  const JsonValue* arr = v->find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items.size(), 3u);
  const JsonValue* k = arr->items[1].find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_TRUE(k->boolean);
}

TEST(JsonParse, MalformedInputsReturnNulloptNotThrow) {
  const char* bad[] = {
      "",
      "{",
      "{\"a\":}",
      "{\"a\":1,}",
      "[1 2]",
      "{\"a\" 1}",
      "\"unterminated",
      "tru",
      "1e",
      "{\"a\":1}trailing",
      "{\"\\ud800\":1}",  // lone surrogate escape
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(json_parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParse, U64RejectsNonIntegers) {
  const auto v = json_parse("{\"a\":-1,\"b\":1.5,\"c\":1e3,\"d\":7}");
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(v->find("a")->as_u64().has_value());
  EXPECT_FALSE(v->find("b")->as_u64().has_value());
  EXPECT_FALSE(v->find("c")->as_u64().has_value());
  EXPECT_EQ(v->find("d")->as_u64().value(), 7u);
}

TEST(JsonParse, DepthGuardStopsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(json_parse(deep).has_value());
}

// ---- CheckpointStore ---------------------------------------------------

TEST(CheckpointStore, SaveThenLoadRoundTripsUnderResume) {
  const auto root = fresh_dir("store");
  const CheckpointKey key{"unit test/exp", 0xabcdef0123456789ull, 42};
  {
    const CheckpointStore writer(root, /*resume=*/false);
    writer.save(key, 3, "{\"payload\":1}");
    // resume off: the store persists but never replays.
    EXPECT_FALSE(writer.load(key, 3).has_value());
  }
  const CheckpointStore reader(root, /*resume=*/true);
  const auto payload = reader.load(key, 3);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"payload\":1}");
  EXPECT_FALSE(reader.load(key, 4).has_value());  // absent shard
  // A different config hash is a different directory — structural miss.
  CheckpointKey other = key;
  other.config_hash ^= 1;
  EXPECT_FALSE(reader.load(other, 3).has_value());
  std::filesystem::remove_all(root);
}

TEST(CheckpointStore, SanitizesExperimentNameIntoPath) {
  const CheckpointKey key{"table11.RAID-6+CRC-31/x", 1, 2};
  const std::string sub = key.subdir();
  EXPECT_EQ(sub.find(".."), std::string::npos);
  // Exactly one separator: between experiment dir and the hash-seed dir.
  EXPECT_EQ(std::count(sub.begin(), sub.end(), '/'), 1);
  EXPECT_NE(sub.find("0000000000000001-s2"), std::string::npos);
}

// ---- payload codecs ----------------------------------------------------

McResult small_real_result() {
  McConfig cfg;
  cfg.cache.num_lines = 1ull << 12;
  cfg.cache.group_size = 64;
  cfg.cache.ber = 2e-4;
  cfg.level = SudokuLevel::kX;
  cfg.max_intervals = 40;
  cfg.seed = 11;
  return run_montecarlo_parallel(cfg, {.threads = 2, .chunk = 8});
}

TEST(CheckpointCodec, McResultRoundTripsBitExactly) {
  const McResult r = small_real_result();
  EXPECT_GT(r.faults_injected, 0u);
  const std::string payload = encode_payload<McResult>(r);
  const auto back = decode_payload<McResult>(payload);
  ASSERT_TRUE(back.has_value());
  // Bit-exactness witnessed through the canonical serialization, which
  // covers every counter and the full metrics registry.
  EXPECT_EQ(encode_payload<McResult>(*back), payload);
}

TEST(CheckpointCodec, RejectsTornAndAlienPayloads) {
  const std::string payload = encode_payload<McResult>(small_real_result());
  EXPECT_FALSE(decode_payload<McResult>("").has_value());
  EXPECT_FALSE(decode_payload<McResult>("not json").has_value());
  EXPECT_FALSE(
      decode_payload<McResult>(payload.substr(0, payload.size() / 2)).has_value());
  EXPECT_FALSE(decode_payload<McResult>("{\"v\":999}").has_value());
  EXPECT_FALSE(decode_payload<McResult>("{\"v\":1,\"intervals\":5}").has_value());
  // Baseline decoder must not accept an MC payload (missing fields).
  EXPECT_FALSE(decode_payload<baselines::BaselineMcResult>(payload).has_value());
}

// ---- kill-and-resume determinism ---------------------------------------

McConfig resume_config() {
  McConfig cfg;
  cfg.cache.num_lines = 1ull << 12;
  cfg.cache.group_size = 64;
  cfg.cache.ber = 2e-4;
  cfg.level = SudokuLevel::kX;
  cfg.max_intervals = 160;  // 20 shards of 8
  cfg.seed = 23;
  return cfg;
}

class ShutdownGuard : public ::testing::Test {
 protected:
  void SetUp() override { reset_shutdown(); }
  void TearDown() override { reset_shutdown(); }
};

using CheckpointResume = ShutdownGuard;

TEST_F(CheckpointResume, KillAfterKShardsThenResumeIsBitIdentical) {
  const auto cfg = resume_config();
  const std::string reference = encode_payload<McResult>(
      run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 8}));

  for (const unsigned threads : {1u, 8u}) {
    for (const std::uint64_t K : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{5}}) {
      const auto root = fresh_dir("resume_k" + std::to_string(K) + "_t" +
                                  std::to_string(threads));
      CheckpointStore store(root, /*resume=*/true);
      reset_shutdown();

      // Phase 1: request shutdown after K live shards complete.
      std::atomic<std::uint64_t> done{0};
      ShardRunReport killed;
      ExpOptions opts;
      opts.threads = threads;
      opts.chunk = 8;
      opts.checkpoint = &store;
      opts.report = &killed;
      opts.after_shard = [&done, K](const Shard&) {
        if (done.fetch_add(1) + 1 >= K) request_shutdown();
      };
      (void)run_montecarlo_parallel(cfg, opts);
      EXPECT_GE(done.load(), K);
      EXPECT_TRUE(killed.interrupted)
          << "K=" << K << " threads=" << threads;

      // Phase 2: resume without the kill hook.
      reset_shutdown();
      ShardRunReport resumed;
      ExpOptions ropts;
      ropts.threads = threads;
      ropts.chunk = 8;
      ropts.checkpoint = &store;
      ropts.report = &resumed;
      const auto r = run_montecarlo_parallel(cfg, ropts);
      EXPECT_EQ(encode_payload<McResult>(r), reference)
          << "K=" << K << " threads=" << threads;
      EXPECT_GE(resumed.shards_resumed, K);
      EXPECT_FALSE(resumed.interrupted);
      std::filesystem::remove_all(root);
    }
  }
}

TEST_F(CheckpointResume, MidShardKillFromBackgroundThreadIsResumable) {
  const auto cfg = resume_config();
  const std::string reference = encode_payload<McResult>(
      run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 8}));

  const auto root = fresh_dir("resume_midshard");
  CheckpointStore store(root, /*resume=*/true);
  // Fire the signal asynchronously, mid-run: in-flight shards abandon
  // through their stop hooks, whatever finished stays checkpointed.
  std::thread killer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    request_shutdown();
  });
  ExpOptions opts;
  opts.threads = 4;
  opts.chunk = 8;
  opts.checkpoint = &store;
  (void)run_montecarlo_parallel(cfg, opts);
  killer.join();

  reset_shutdown();
  ExpOptions ropts;
  ropts.threads = 4;
  ropts.chunk = 8;
  ropts.checkpoint = &store;
  const auto r = run_montecarlo_parallel(cfg, ropts);
  EXPECT_EQ(encode_payload<McResult>(r), reference);
  std::filesystem::remove_all(root);
}

TEST_F(CheckpointResume, ConfigChangeColdStartsInsteadOfReplaying) {
  auto cfg = resume_config();
  const auto root = fresh_dir("resume_invalidate");
  CheckpointStore store(root, /*resume=*/true);
  ExpOptions opts;
  opts.threads = 2;
  opts.chunk = 8;
  opts.checkpoint = &store;
  (void)run_montecarlo_parallel(cfg, opts);  // full run, all shards saved

  cfg.cache.ber = 3e-4;  // any config delta => different hash directory
  ShardRunReport report;
  ExpOptions ropts = opts;
  ropts.report = &report;
  (void)run_montecarlo_parallel(cfg, ropts);
  EXPECT_EQ(report.shards_resumed, 0u);
  std::filesystem::remove_all(root);
}

TEST_F(CheckpointResume, CorruptShardFileIsRecomputedNotFatal) {
  const auto cfg = resume_config();
  const std::string reference = encode_payload<McResult>(
      run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 8}));

  const auto root = fresh_dir("resume_corrupt");
  CheckpointStore store(root, /*resume=*/true);
  ExpOptions opts;
  opts.threads = 2;
  opts.chunk = 8;
  opts.checkpoint = &store;
  (void)run_montecarlo_parallel(cfg, opts);

  // Mangle one shard payload on disk.
  bool mangled = false;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) {
      std::ofstream(e.path(), std::ios::trunc) << "{torn";
      mangled = true;
      break;
    }
  }
  ASSERT_TRUE(mangled);

  ShardRunReport report;
  ExpOptions ropts = opts;
  ropts.report = &report;
  const auto r = run_montecarlo_parallel(cfg, ropts);
  EXPECT_EQ(encode_payload<McResult>(r), reference);
  ASSERT_FALSE(report.errors.empty());
  EXPECT_EQ(report.errors.front().kind, ShardErrorKind::kCheckpointCorrupt);
  EXPECT_FALSE(report.degraded());  // recomputed, nothing lost
  std::filesystem::remove_all(root);
}

// ---- degraded artifact shape -------------------------------------------

TEST(DegradedArtifact, RootCarriesFlagAndStructuredErrors) {
  ShardRunReport report;
  report.shards_total = 4;
  report.shards_quarantined = 1;
  report.trials_quarantined = 8;
  report.errors.push_back(
      {2, ShardErrorKind::kTrialException, 3, "deterministic failure"});
  const JsonObject root = ResultSink::make_root(
      "exp", JsonObject{}, JsonObject{}, RunStats{}, nullptr, &report);
  const std::string text = root.str();
  EXPECT_NE(text.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(text.find("\"shard_errors\":["), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"trial_exception\""), std::string::npos);
  EXPECT_NE(text.find("\"shard\":2"), std::string::npos);
}

TEST(DegradedArtifact, CleanReportLeavesArtifactUntouched) {
  ShardRunReport clean;
  clean.shards_total = 4;
  clean.shards_resumed = 2;  // resume alone is not degradation
  const std::string with_report =
      ResultSink::make_root("exp", JsonObject{}, JsonObject{}, RunStats{},
                            nullptr, &clean)
          .str();
  const std::string without_report =
      ResultSink::make_root("exp", JsonObject{}, JsonObject{}, RunStats{})
          .str();
  EXPECT_EQ(with_report, without_report);
}

}  // namespace
}  // namespace sudoku::exp
