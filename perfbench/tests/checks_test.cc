// Self-tests for the benchmark's output checks and statistics: each check
// must reject deliberately wrong input (a tombstoned id, a short or
// duplicated result list, a wrong neighbour) and accept ties; percentile
// support, open-loop lateness accounting and span self times are pinned.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "checks.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

// Four 1-d points: ids 10..13 at positions 0, 1, 1, 3 (ids 11 and 12 tie).
EmbeddingTable LineTable() {
  EmbeddingTable t(1);
  const float pos[] = {0, 1, 1, 3};
  for (u32 i = 0; i < 4; ++i) t.Add(10 + i, &pos[i]);
  return t;
}

bool Valid(u32 id) { return id >= 10 && id < 14; }

TEST(CheckIdList, AcceptsKDistinctValidIds) {
  EXPECT_EQ(CheckIdList({10, 11, 12}, 3, Valid), "");
}

TEST(CheckIdList, RejectsShortList) {
  EXPECT_NE(CheckIdList({10, 11}, 3, Valid), "");
}

TEST(CheckIdList, RejectsDuplicate) {
  EXPECT_NE(CheckIdList({10, 11, 11}, 3, Valid), "");
}

TEST(CheckIdList, RejectsOutOfRangeId) {
  EXPECT_NE(CheckIdList({10, 11, 99}, 3, Valid), "");
}

TEST(CheckNoRemoved, RejectsIdTombstonedBeforeTheSearch) {
  const std::unordered_map<u32, size_t> removed_at = {{11, 0}, {12, 1}};
  // Two removals acknowledged before the search began: both are banned.
  EXPECT_NE(CheckNoRemoved({10, 12}, removed_at, 2), "");
  // Only the first was acknowledged: id 12 may still legitimately appear.
  EXPECT_EQ(CheckNoRemoved({10, 12}, removed_at, 1), "");
  EXPECT_NE(CheckNoRemoved({11, 13}, removed_at, 1), "");
}

TEST(ExactTopK, NearestFirst) {
  const EmbeddingTable t = LineTable();
  const float q = 0.1f;
  const auto hits = t.ExactTopK(&q, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 10u);
  EXPECT_NEAR(hits[1].dist, 0.9, 1e-6);
}

TEST(RecallByDistance, TieAtTheBoundaryCountsAsAHit) {
  const EmbeddingTable t = LineTable();
  const float q = 0;
  const auto exact = t.ExactTopK(&q, 2);  // {10, 11} (12 ties with 11)
  EXPECT_DOUBLE_EQ(RecallByDistance(t, &q, {10, 11}, exact), 1.0);
  EXPECT_DOUBLE_EQ(RecallByDistance(t, &q, {12, 10}, exact), 1.0);
}

TEST(RecallByDistance, WrongNeighbourLowersRecall) {
  const EmbeddingTable t = LineTable();
  const float q = 0;
  const auto exact = t.ExactTopK(&q, 2);
  EXPECT_DOUBLE_EQ(RecallByDistance(t, &q, {10, 13}, exact), 0.5);
}

TEST(CheckEqualsExact, AcceptsTiesRejectsWrongNeighbour) {
  const EmbeddingTable t = LineTable();
  const float q = 0;
  const auto exact = t.ExactTopK(&q, 2);
  EXPECT_EQ(CheckEqualsExact(t, &q, {11, 10}, exact), "");
  EXPECT_EQ(CheckEqualsExact(t, &q, {10, 12}, exact), "");
  EXPECT_NE(CheckEqualsExact(t, &q, {10, 13}, exact), "");
  EXPECT_NE(CheckEqualsExact(t, &q, {10}, exact), "");
}

TEST(PrecisionAtK, TiedJoinabilityCountsZeroDoesNot) {
  // Exact top-2 scores 0.9 and 0.5; id 7 also scores 0.5 (a tie).
  const std::vector<deepjoin::Scored> exact = {{0.9, 1}, {0.5, 2}};
  const auto jn = [](u32 id) {
    switch (id) {
      case 1: return 0.9;
      case 2: return 0.5;
      case 7: return 0.5;
      case 8: return 0.4;
      default: return 0.0;
    }
  };
  EXPECT_DOUBLE_EQ(PrecisionAtK({1, 7}, exact, 2, jn), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK({1, 8}, exact, 2, jn), 0.5);
  const std::vector<deepjoin::Scored> none = {{0.0, 1}, {0.0, 2}};
  EXPECT_DOUBLE_EQ(PrecisionAtK({3, 4}, none, 2, jn), 0.0);
}

TEST(CheckLog, CountsAndKeepsMessages) {
  CheckLog log;
  log.Expect(true, "fine");
  log.ExpectEmpty("", "also fine");
  log.ExpectEmpty("broken", "call 3");
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.checked(), 3u);
  EXPECT_EQ(log.failed(), 1u);
  ASSERT_EQ(log.messages().size(), 1u);
  EXPECT_EQ(log.messages()[0], "call 3: broken");
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 50);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 99);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 100);
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 0.5), 2);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(Percentile, MissingRequestsLandInTheTail) {
  std::vector<double> v(98, 1.0);
  v.push_back(kMissing);
  v.push_back(kMissing);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.98), 1.0);
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));
}

TEST(Percentile, TailSupportNeedsTenBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(MinSamplesForTail(0.99), 1000u);
  EXPECT_EQ(MinSamplesForTail(0.5), 20u);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Request 0 on time; request 1 submitted 5 ms late behind a stall (its
  // latency includes the stall); request 2 refused (missing).
  const std::vector<OpenLoopSample> s = {
      {0.000, 0.000, 0.002},
      {0.010, 0.015, 0.017},
      {0.020, 0.020, kMissing},
  };
  const OpenLoopSummary sum = SummarizeOpenLoop(s);
  EXPECT_EQ(sum.attempted, 3u);
  EXPECT_EQ(sum.completed, 2u);
  EXPECT_EQ(sum.missing, 1u);
  EXPECT_NEAR(sum.latency_ms[0], 2.0, 1e-9);
  EXPECT_NEAR(sum.latency_ms[1], 7.0, 1e-9);
  EXPECT_TRUE(std::isinf(sum.latency_ms[2]));
  EXPECT_NEAR(sum.lag_ms[1], 5.0, 1e-9);
  EXPECT_NEAR(sum.lag_ms[2], 0.0, 1e-9);
  EXPECT_TRUE(std::isinf(Percentile(sum.latency_ms, 0.99)));
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfChildren) {
  const auto epoch = SpanLog::Clock::now();
  const auto at = [&](int ms) { return epoch + std::chrono::milliseconds(ms); };
  SpanLog log(true, epoch);
  const int root = log.Record("root", at(0), at(100), SpanLog::kNoParent, 1);
  log.Record("a", at(10), at(40), root, 1);
  log.Record("b", at(30), at(50), root, 1);  // overlaps a
  log.Record("c", at(90), at(120), root, 1);  // runs past the parent
  const auto self = log.SelfNs();
  EXPECT_EQ(self[0], 50'000'000);  // 100 - |[10,50) u [90,100)|
  EXPECT_EQ(self[1], 30'000'000);
  const auto g = log.GroupByName();
  EXPECT_DOUBLE_EQ(g.at("root").total_us[0], 100'000.0);
  EXPECT_DOUBLE_EQ(g.at("root").self_us[0], 50'000.0);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false, SpanLog::Clock::now());
  const int s = log.Begin("x", SpanLog::kNoParent, 0);
  log.End(s);
  EXPECT_EQ(s, SpanLog::kNoParent);
  EXPECT_TRUE(log.spans().empty());
}

}  // namespace
}  // namespace perfbench
