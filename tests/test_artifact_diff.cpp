// Covers the golden-artifact comparator (src/exp/artifact_diff.h): exact
// integer semantics (beyond 2^53), float tolerance, glob ignore pruning,
// NaN/Inf (rendered as null by the emitter) handling, and the CLI's
// exit-code contract including the pointed, path-qualified message a
// perturbed golden must produce.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/json_parse.h"
#include "exp/artifact_diff.h"
#include "exp/json.h"

namespace sudoku::exp {
namespace {

JsonValue parse_or_die(const std::string& text) {
  std::string error;
  auto v = json_parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error << " in: " << text;
  return *v;
}

ArtifactDiffResult diff(const std::string& golden, const std::string& actual,
                        const ArtifactDiffOptions& options = {}) {
  return diff_artifacts(parse_or_die(golden), parse_or_die(actual), options);
}

TEST(NumberTextIsInteger, ClassifiesByShape) {
  EXPECT_TRUE(number_text_is_integer("0"));
  EXPECT_TRUE(number_text_is_integer("18446744073709551615"));
  EXPECT_TRUE(number_text_is_integer("-42"));
  EXPECT_FALSE(number_text_is_integer("1.0"));
  EXPECT_FALSE(number_text_is_integer("1e9"));
  EXPECT_FALSE(number_text_is_integer("5.3e-6"));
  EXPECT_FALSE(number_text_is_integer(""));
  EXPECT_FALSE(number_text_is_integer("-"));
}

TEST(PathGlobMatch, LiteralStarAndQuestion) {
  EXPECT_TRUE(path_glob_match("throughput", "throughput"));
  EXPECT_FALSE(path_glob_match("throughput", "throughput2"));
  EXPECT_TRUE(path_glob_match("result.rows[*].seconds", "result.rows[12].seconds"));
  EXPECT_FALSE(path_glob_match("result.rows[*].seconds", "result.rows[12].iters"));
  EXPECT_TRUE(path_glob_match("result.*", "result.anything.nested"));
  EXPECT_TRUE(path_glob_match("a?c", "abc"));
  EXPECT_FALSE(path_glob_match("a?c", "abbc"));
}

TEST(ArtifactDiff, IdenticalDocumentsProduceNoEntries) {
  const std::string doc =
      R"({"experiment":"x","config":{"seed":7},"result":{"rows":[1,2.5,"s",true,null]}})";
  EXPECT_TRUE(diff(doc, doc).identical());
}

TEST(ArtifactDiff, IntegerCountersCompareExactlyBeyond2Pow53) {
  // 2^53 = 9007199254740992; +1 and +2 collapse to the same double, so a
  // double-based diff would call these equal. Raw-text comparison must not.
  const auto d = diff(R"({"n":9007199254740993})", R"({"n":9007199254740994})");
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "n");
  EXPECT_NE(d.entries[0].message.find("9007199254740993"), std::string::npos);
  // And tolerance never applies to integer-shaped counters.
  ArtifactDiffOptions loose;
  loose.rel_tol = 1.0;
  EXPECT_FALSE(
      diff(R"({"n":9007199254740993})", R"({"n":9007199254740994})", loose)
          .identical());
}

TEST(ArtifactDiff, FloatToleranceAcceptsWithinAndRejectsBeyond) {
  ArtifactDiffOptions options;
  options.rel_tol = 1e-9;
  EXPECT_TRUE(diff(R"({"p":1.0e-6})", R"({"p":1.0000000001e-6})", options)
                  .identical());
  const auto d = diff(R"({"p":1.0e-6})", R"({"p":1.01e-6})", options);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "p");
  EXPECT_NE(d.entries[0].message.find("rtol"), std::string::npos);
}

TEST(ArtifactDiff, ZeroToleranceMeansExactTextForFloats) {
  EXPECT_FALSE(diff(R"({"p":0.1})", R"({"p":0.10000000000000002})").identical());
  EXPECT_TRUE(diff(R"({"p":0.1})", R"({"p":0.1})").identical());
}

TEST(ArtifactDiff, MixedIntegerFloatShapesCompareNumerically) {
  // "1" vs "1.0" differ in shape but not value: compared as doubles.
  EXPECT_TRUE(diff(R"({"x":1})", R"({"x":1.0})").identical());
  EXPECT_FALSE(diff(R"({"x":1})", R"({"x":1.5})").identical());
}

TEST(ArtifactDiff, NonFiniteValuesRenderAsNullAndMismatchNumbers) {
  // The emitter renders NaN/Inf as null (json.h); a golden that recorded a
  // finite value must flag an actual that went non-finite, and vice versa.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  const auto d = diff(R"({"fit":0.092})", R"({"fit":null})");
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "fit");
  EXPECT_NE(d.entries[0].message.find("null"), std::string::npos);
  // Two non-finite values render identically and compare equal.
  EXPECT_TRUE(diff(R"({"fit":null})", R"({"fit":null})").identical());
}

TEST(ArtifactDiff, MissingAndExtraKeysArePathQualified) {
  const auto d = diff(R"({"result":{"a":1,"b":2}})", R"({"result":{"a":1,"c":3}})");
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[0].path, "result.b");
  EXPECT_NE(d.entries[0].message.find("missing in actual"), std::string::npos);
  EXPECT_EQ(d.entries[1].path, "result.c");
  EXPECT_NE(d.entries[1].message.find("present in actual"), std::string::npos);
}

TEST(ArtifactDiff, ArrayLengthAndElementMismatches) {
  const auto d = diff(R"({"rows":[1,2,3]})", R"({"rows":[1,9]})");
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[0].path, "rows");
  EXPECT_NE(d.entries[0].message.find("length"), std::string::npos);
  EXPECT_EQ(d.entries[1].path, "rows[1]");
}

TEST(ArtifactDiff, IgnoreListPrunesWholeSubtrees) {
  const std::string golden =
      R"({"throughput":{"wall_seconds":1.5,"trials_per_second":100},"result":{"n":3}})";
  const std::string actual =
      R"({"throughput":{"wall_seconds":9.9,"trials_per_second":7},"result":{"n":3}})";
  EXPECT_FALSE(diff(golden, actual).identical());
  ArtifactDiffOptions options;
  options.ignore = {"throughput"};
  EXPECT_TRUE(diff(golden, actual, options).identical());
  // A real drift outside the ignored section still surfaces.
  const auto d = diff(golden, R"({"throughput":{},"result":{"n":4}})", options);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "result.n");
}

TEST(ArtifactDiff, IgnoreGlobHitsOneFieldAcrossAnArray) {
  const std::string golden =
      R"({"result":{"rows":[{"kernel":"a","mb_per_s":10.0},{"kernel":"b","mb_per_s":20.0}]}})";
  const std::string actual =
      R"({"result":{"rows":[{"kernel":"a","mb_per_s":99.0},{"kernel":"b","mb_per_s":1.0}]}})";
  ArtifactDiffOptions options;
  options.ignore = {"result.rows[*].mb_per_s"};
  EXPECT_TRUE(diff(golden, actual, options).identical());
  // The non-ignored sibling keeps protecting the row identity.
  const std::string renamed =
      R"({"result":{"rows":[{"kernel":"a","mb_per_s":10.0},{"kernel":"X","mb_per_s":20.0}]}})";
  const auto d = diff(golden, renamed, options);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "result.rows[1].kernel");
}

TEST(ArtifactDiff, IgnoredMissingKeyIsNotReported) {
  ArtifactDiffOptions options;
  options.ignore = {"degraded", "shard_errors"};
  EXPECT_TRUE(
      diff(R"({"n":1,"degraded":true,"shard_errors":[1]})", R"({"n":1})", options)
          .identical());
  EXPECT_TRUE(
      diff(R"({"n":1})", R"({"n":1,"degraded":true,"shard_errors":[1]})", options)
          .identical());
}

TEST(ArtifactDiff, KindChangesAreReported) {
  const auto d = diff(R"({"v":1})", R"({"v":"1"})");
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "v");
  EXPECT_NE(d.entries[0].message.find("kind"), std::string::npos);
}

TEST(ArtifactDiff, RenderProducesOneLinePerEntry) {
  const auto d = diff(R"({"a":1,"b":2})", R"({"a":9,"b":8})");
  const std::string text = render_artifact_diff(d);
  EXPECT_NE(text.find("a: integer golden 1 != actual 9"), std::string::npos);
  EXPECT_NE(text.find("b: integer golden 2 != actual 8"), std::string::npos);
}

// ---- CLI (artifact_diff_main) ------------------------------------------

class ArtifactDiffCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "sudoku_artifact_diff_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const auto path = dir_ / name;
    std::ofstream out(path);
    out << text;
    return path.string();
  }

  static int run_cli(std::vector<std::string> args) {
    std::vector<char*> argv;
    args.insert(args.begin(), "artifact_diff");
    argv.reserve(args.size());
    for (auto& a : args) argv.push_back(a.data());
    return artifact_diff_main(static_cast<int>(argv.size()), argv.data());
  }

  std::filesystem::path dir_;
};

TEST_F(ArtifactDiffCli, IdenticalFilesExitZero) {
  const auto a = write_file("a.json", R"({"result":{"n":3}})");
  const auto b = write_file("b.json", R"({"result":{"n":3}})");
  EXPECT_EQ(run_cli({a, b}), 0);
}

TEST_F(ArtifactDiffCli, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run_cli({}), 2);
  EXPECT_EQ(run_cli({"only_one.json"}), 2);
  const auto a = write_file("a.json", R"({"n":1})");
  EXPECT_EQ(run_cli({a, (dir_ / "missing.json").string()}), 2);
  const auto bad = write_file("bad.json", "{not json");
  EXPECT_EQ(run_cli({a, bad}), 2);
  EXPECT_EQ(run_cli({"--rtol=nope", a, a}), 2);
  EXPECT_EQ(run_cli({"--bogus", a, a}), 2);
}

TEST_F(ArtifactDiffCli, RtolAndIgnoreFlagsApply) {
  const auto golden = write_file(
      "golden.json", R"({"throughput":{"wall_seconds":1.0},"result":{"p":1.0e-6}})");
  const auto close_enough = write_file(
      "actual.json",
      R"({"throughput":{"wall_seconds":5.0},"result":{"p":1.0000000001e-6}})");
  EXPECT_EQ(run_cli({golden, close_enough}), 1);
  EXPECT_EQ(run_cli({"--rtol=1e-9", "--ignore=throughput", golden, close_enough}), 0);
}

// A perturbed golden must fail the diff loudly, with the mismatch message
// naming the exact path that drifted — this is the regression signal the
// paper-repro CI job relies on. Death-style so the check covers the whole
// CLI surface (stderr + exit code) exactly as scripts/repro.sh sees it.
TEST_F(ArtifactDiffCli, PerturbedGoldenDiesWithPathQualifiedMessage) {
  const auto golden = write_file(
      "golden.json",
      R"({"experiment":"table3_sdc","result":{"mc_due_lines":24,"sdc_fit":3.1e-11}})");
  const auto perturbed = write_file(
      "perturbed.json",
      R"({"experiment":"table3_sdc","result":{"mc_due_lines":25,"sdc_fit":3.1e-11}})");
  EXPECT_EXIT(
      {
        const int rc = run_cli({golden, perturbed});
        std::exit(rc);
      },
      ::testing::ExitedWithCode(1),
      "result\\.mc_due_lines: integer golden 24 != actual 25");
}

}  // namespace
}  // namespace sudoku::exp
