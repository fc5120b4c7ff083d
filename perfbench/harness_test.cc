#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_EQ(Percentile(OneTo(1000), 99), 990);
  EXPECT_EQ(Percentile(OneTo(10), 99), 10);
  EXPECT_EQ(Percentile({7}, 1), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  // Order of the input does not matter.
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 60), 3);
}

TEST(Percentile, MissesSortLast) {
  std::vector<double> v = OneTo(99);
  v.push_back(kMissed);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_TRUE(std::isinf(Percentile(v, 100)));
}

TEST(PercentileRule, TenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
  // p99 needs 1000 samples; p99.9 needs 10000.
  EXPECT_EQ(HighestReportablePercentile(1000), 99);
  EXPECT_EQ(HighestReportablePercentile(999), 98);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
  EXPECT_EQ(HighestReportablePercentile(200), 95);
  EXPECT_EQ(HighestReportablePercentile(100), 90);
  // Too few samples for any rung: the median is all that is reportable.
  EXPECT_EQ(HighestReportablePercentile(5), 50);
  // The ladder order is irrelevant.
  EXPECT_EQ(HighestReportablePercentile(1000, {50, 99, 95}), 99);
}

std::vector<double> Latencies(const std::vector<RequestSample>& s) {
  std::vector<double> out;
  for (const RequestSample& r : s) out.push_back(r.latency_ms);
  return out;
}

std::vector<RequestSample> Step(double seconds, double rate,
                                double lateness_slope_ms_per_s,
                                double jitter_ms) {
  std::vector<RequestSample> out;
  const size_t n = static_cast<size_t>(seconds * rate);
  for (size_t i = 0; i < n; ++i) {
    RequestSample s;
    s.due_s = static_cast<double>(i) / rate;
    // Deterministic zero-mean wobble standing in for scheduling noise.
    const double wobble = (i % 2 == 0 ? 1 : -1) * jitter_ms;
    s.lateness_ms = std::max(0.0, s.due_s * lateness_slope_ms_per_s + wobble);
    s.latency_ms = s.lateness_ms + 5;
    out.push_back(s);
  }
  return out;
}

TEST(Backlog, FlatLatenessIsNotABacklog) {
  EXPECT_FALSE(GrowingBacklog(Step(2, 100, 0, 0), 2, 50));
  EXPECT_FALSE(GrowingBacklog(Step(2, 100, 0, 20), 2, 50));
}

TEST(Backlog, ClimbingLatenessIsABacklog) {
  // 20 ms/s over 2 s = 40 ms rise > 25 ms (half the 50 ms limit).
  EXPECT_TRUE(GrowingBacklog(Step(2, 100, 20, 1), 2, 50));
  // A slow drift that stays under half the limit is tolerated.
  EXPECT_FALSE(GrowingBacklog(Step(2, 100, 10, 1), 2, 50));
}

TEST(Backlog, TooFewSamplesOrUnsentOnly) {
  EXPECT_FALSE(GrowingBacklog({}, 1, 50));
  std::vector<RequestSample> unsent(5);
  for (auto& s : unsent) s.lateness_ms = kMissed;
  EXPECT_FALSE(GrowingBacklog(unsent, 1, 50));
}

TEST(JudgeStep, LimitAndBacklogBothDecide) {
  EXPECT_TRUE(JudgeStep(100, Step(2, 100, 0, 0), 2, 50).holds);
  // p99 over the limit.
  std::vector<RequestSample> slow = Step(2, 100, 0, 0);
  for (size_t i = 0; i < 5; ++i) slow[i].latency_ms = 80;
  StepVerdict v = JudgeStep(100, slow, 2, 50);
  EXPECT_FALSE(v.holds);
  EXPECT_FALSE(v.backlog);
  EXPECT_EQ(v.p99_ms, 80);
  // Unsent requests are misses.
  std::vector<RequestSample> unsent = Step(2, 100, 0, 0);
  for (size_t i = 0; i < 3; ++i) unsent.push_back({2, kMissed, kMissed});
  EXPECT_FALSE(JudgeStep(100, unsent, 2, 50).holds);
  // A backlog fails the step even while p99 is still within the limit.
  v = JudgeStep(100, Step(2, 100, 15, 0), 2, 50);
  EXPECT_TRUE(v.backlog);
  EXPECT_LE(v.p99_ms, 50);
  EXPECT_FALSE(v.holds);
  EXPECT_FALSE(JudgeStep(100, {}, 2, 50).holds);
}

TEST(Capacity, BisectsToTheBoundary) {
  const double truth = 137;
  std::vector<StepVerdict> trail;
  auto run = [&](double qps) {
    StepVerdict v;
    v.offered_qps = qps;
    v.holds = qps <= truth;
    return v;
  };
  const double cap = SearchCapacity(60, 200, 10, 1, run, &trail);
  EXPECT_EQ(trail.size(), 10u);
  EXPECT_LE(cap, truth);
  EXPECT_GT(cap, truth - (200.0 - 60.0) / 1024 - 1e-9);
  for (const StepVerdict& v : trail) EXPECT_EQ(v.holds, v.offered_qps <= truth);
}

TEST(Capacity, NothingHoldsReturnsLowerBound) {
  auto never = [](double qps) {
    StepVerdict v;
    v.offered_qps = qps;
    return v;
  };
  EXPECT_EQ(SearchCapacity(0, 100, 6, 1, never), 0);
  auto always = [](double qps) {
    StepVerdict v;
    v.offered_qps = qps;
    v.holds = true;
    return v;
  };
  EXPECT_NEAR(SearchCapacity(0, 100, 6, 1, always), 100 - 100.0 / 64, 1e-9);
  EXPECT_EQ(SearchCapacity(50, 50, 6, 1, always), 50);
}

TEST(Capacity, ARetryOutvotesOneStall) {
  // The machine stalls during the first run at 100 qps only.
  const double truth = 137;
  int runs_at_100 = 0;
  std::vector<StepVerdict> trail;
  auto run = [&](double qps) {
    StepVerdict v;
    v.offered_qps = qps;
    v.holds = qps <= truth && !(qps == 100 && runs_at_100++ == 0);
    return v;
  };
  // Without a retry the stall caps the search below 100.
  runs_at_100 = 0;
  EXPECT_LT(SearchCapacity(0, 200, 8, 1, run), 100);
  // With two tries the stalled rate is run again and holds.
  runs_at_100 = 0;
  const double cap = SearchCapacity(0, 200, 8, 2, run, &trail);
  EXPECT_GT(cap, truth - 200.0 / 256 - 1e-9);
  EXPECT_LE(cap, truth);
  // 8 decisions: each failing rate ran twice, and so did the stalled one.
  EXPECT_EQ(runs_at_100, 2);
  size_t fails = 0;
  for (const StepVerdict& v : trail) fails += v.holds ? 0 : 1;
  EXPECT_EQ(trail.size(), 8 + (fails + 1) / 2);
}

TEST(WindowedMedian, OneNoisyWindowDoesNotMoveIt) {
  std::vector<RequestSample> s;
  for (int i = 0; i < 600; ++i) {
    RequestSample r;
    r.due_s = i * 0.01;  // six 1-second windows
    r.latency_ms = (i >= 100 && i < 200) ? 50 : 5 + (i % 3);
    s.push_back(r);
  }
  EXPECT_EQ(WindowedMedian(s, 1.0), 6);
  // Over all samples the noisy window would shift the median's rank.
  EXPECT_EQ(WindowedMedian({}, 1.0), 0);
  // A single window is the plain median.
  EXPECT_EQ(WindowedMedian(s, 100.0), Percentile(Latencies(s), 50));
}

TEST(SelfTime, LeafAndParentWithChildren) {
  std::vector<Span> spans = {
      {"query", -1, 0, 100},
      {"trapdoor", 0, 10, 20},
      {"roundtrip", 0, 30, 80},
      {"search", 2, 40, 60},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 10 - 50);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 50 - 20);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  std::vector<Span> spans = {
      {"batch", -1, 0, 100},
      {"a", 0, 10, 50},
      {"b", 0, 30, 70},  // overlaps a: the union is [10, 70)
      {"c", 0, 70, 75},  // touches b's end
  };
  EXPECT_EQ(SelfTimes(spans)[0], 100 - 65);
}

TEST(SelfTime, ChildrenAreClippedToTheirParent) {
  std::vector<Span> spans = {
      {"parent", -1, 100, 200},
      {"early", 0, 50, 120},  // only [100, 120) counts
      {"late", 0, 190, 400},  // only [190, 200) counts
      {"outside", 0, 300, 400},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 70);
}

TEST(SelfTime, GrandchildrenDoNotReduceGrandparent) {
  std::vector<Span> spans = {
      {"root", -1, 0, 100},
      {"child", 0, 0, 40},
      {"grandchild", 1, 0, 40},
      {"bad-parent", 7, 0, 10},  // dangling parent: ignored
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 0);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self[3], 10);
}

}  // namespace
}  // namespace perfbench
