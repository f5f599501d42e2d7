// The benchmark's own tests: the exact-percentile and best-segment
// throughput helpers on known inputs, and reduced-size rounds of every
// workload, which must repeat every exact count for the same seed, traced
// or not, and change the fault draws for another seed.
#include <gtest/gtest.h>

#include <numeric>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, PicksTheRankedSampleWithoutInterpolating) {
  const auto v = iota(100);
  EXPECT_EQ(nearest_rank(v, 0.50).value, 50.0);
  EXPECT_EQ(nearest_rank(v, 0.99).value, 99.0);
  EXPECT_EQ(nearest_rank(v, 1.00).value, 100.0);
  EXPECT_EQ(nearest_rank(v, 0.001).value, 1.0);
  EXPECT_EQ(nearest_rank({2.5, 7.5}, 0.5).value, 2.5);
  EXPECT_EQ(nearest_rank({2.5, 7.5}, 0.51).value, 7.5);
}

TEST(NearestRank, ReportsOnlyWithTenSamplesBeyond) {
  const auto p50 = nearest_rank(iota(100), 0.50);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.reportable);
  const auto p99_small = nearest_rank(iota(100), 0.99);
  EXPECT_EQ(p99_small.beyond, 1u);
  EXPECT_FALSE(p99_small.reportable);
  const auto p99 = nearest_rank(iota(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.reportable);
  EXPECT_FALSE(nearest_rank(iota(999), 0.99).reportable);
  EXPECT_FALSE(nearest_rank(iota(19), 0.50).reportable);
  EXPECT_TRUE(nearest_rank(iota(20), 0.50).reportable);
}

TEST(NearestRank, EmptyInputIsNotReportable) {
  const auto p = nearest_rank({}, 0.5);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_FALSE(p.reportable);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(BestOpsPerS, TakesEachSegmentsFastestRound) {
  RoundResult a, b, whole;
  a.ops = b.ops = 600;
  a.segment_s = {1.0, 4.0};
  b.segment_s = {2.0, 2.0};
  EXPECT_DOUBLE_EQ(best_ops_per_s({&a, &b}), 200.0);  // 600 / (1 + 2)
  whole.ops = 100;
  whole.wall_s = 0.5;  // no segments: the whole timed phase is one
  EXPECT_DOUBLE_EQ(best_ops_per_s({&whole}), 200.0);
  EXPECT_EQ(best_ops_per_s({}), 0.0);
}

RoundResult run(const std::string& workload, std::uint64_t seed, double scale,
                bool trace = true) {
  const RoundSpec spec{seed, scale, trace};
  if (workload == "mc-campaign") return run_mc_campaign(spec);
  if (workload == "svc-mixed") return run_svc_mixed(spec);
  return run_sim_llc(spec, PERFBENCH_TRACES_DIR);
}

class ReducedRound : public ::testing::TestWithParam<const char*> {};

TEST_P(ReducedRound, RepeatsCountsForASeedAndChangesThemForAnother) {
  const std::string workload = GetParam();
  const double scale = 0.02;
  const RoundResult a = run(workload, 7, scale);
  const RoundResult b = run(workload, 7, scale);
  const RoundResult c = run(workload, 8, scale);
  const RoundResult untraced = run(workload, 7, scale, /*trace=*/false);
  for (const auto* r : {&a, &b, &c, &untraced}) {
    EXPECT_TRUE(r->errors.empty()) << r->errors.front();
    EXPECT_EQ(r->failed, 0u);
    EXPECT_GT(r->ops, 0u);
    EXPECT_GT(r->setup_s, 0.0);
    EXPECT_GT(r->wall_s, 0.0);
  }
  ASSERT_FALSE(a.exact.empty());
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.exact, untraced.exact);  // traced and untraced rounds alternate in one run
  EXPECT_NE(a.exact, c.exact);
  EXPECT_EQ(a.exact.size(), c.exact.size());
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReducedRound,
                         ::testing::Values("mc-campaign", "svc-mixed", "sim-llc"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::erase(name, '-');
                           return name;
                         });

TEST(LayerProbes, PreparedOutcomesHoldAndEveryCostIsPositive) {
  const RoundResult r = run_layer_probes(RoundSpec{3, 0.05, true}, PERFBENCH_TRACES_DIR);
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_GE(r.values.size(), 19u);
  for (const auto& [name, v] : r.values) EXPECT_GT(v, 0.0) << name;
}

}  // namespace
}  // namespace perfbench
