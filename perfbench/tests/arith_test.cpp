// Tests of the arithmetic the benchmark reports with.
#include <gtest/gtest.h>

#include <numeric>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
}

TEST(Percentile, P99OfOneToThousand) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_NEAR(Percentile(v, 0.99), 990.01, 1e-9);
  EXPECT_EQ(SamplesForPercentile(0.99), 1000u);
  EXPECT_EQ(SamplesForPercentile(0.5), 20u);
}

TEST(Percentile, RejectsEmptySampleAndBadRank) {
  EXPECT_THROW(Percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(Percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(SelfTimes, ChildrenAreSubtractedAndRowsSumToWall) {
  // root [0,100) holds a [10,40) and b [50,90); a holds c [20,30).
  std::vector<SpanRecord> spans = {{"root", 0, -1, 0, 100},
                                   {"a", 0, 0, 10, 40},
                                   {"c", 0, 1, 20, 30},
                                   {"b", 0, 0, 50, 90},
                                   {"a", 0, -1, 120, 130}};
  const auto rows = SelfTimes(spans, 150);
  EXPECT_EQ(rows.at("root"), 100 - 30 - 40);
  EXPECT_EQ(rows.at("a"), (30 - 10) + 10);
  EXPECT_EQ(rows.at("c"), 10);
  EXPECT_EQ(rows.at("b"), 40);
  EXPECT_EQ(rows.at("unattributed"), 150 - 100 - 10);
  std::int64_t sum = 0;
  for (const auto& row : rows) sum += row.second;
  EXPECT_EQ(sum, 150);
}

TEST(SelfTimes, TracerRecordsNesting) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span outer(tracer, "outer");
    Span inner(tracer, "inner");
  }
  { Span after(tracer, "after"); }
  tracer.set_enabled(false);
  { Span ignored(tracer, "ignored"); }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
}

TEST(OpenLoop, LatenessIsNeverNegative) {
  EXPECT_EQ(LatenessNs(1000, 900), 0);
  EXPECT_EQ(LatenessNs(1000, 1000), 0);
  EXPECT_EQ(LatenessNs(1000, 1750), 750);
}

TEST(OpenLoop, ArrivalScheduleIsSeededAndHasItsRate) {
  const auto a = ArrivalOffsetsNs(2000.0, 5.0, 7);
  EXPECT_EQ(a, ArrivalOffsetsNs(2000.0, 5.0, 7));
  EXPECT_NE(a, ArrivalOffsetsNs(2000.0, 5.0, 8));
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);  // 4 sigma
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 5'000'000'000);
}

TEST(OpenLoop, RungHoldsOnlyWithoutFailuresTailOrBacklog) {
  EXPECT_TRUE(RungHolds(40.0, 50.0, 0, 1'000'000'000, 1'020'000'000));
  EXPECT_FALSE(RungHolds(60.0, 50.0, 0, 1'000'000'000, 1'020'000'000));
  EXPECT_FALSE(RungHolds(40.0, 50.0, 1, 1'000'000'000, 1'020'000'000));
  EXPECT_FALSE(RungHolds(40.0, 50.0, 0, 1'000'000'000, 1'060'000'000));
}

}  // namespace
}  // namespace perfbench
