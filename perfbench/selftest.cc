// Self-tests for the benchmark's own arithmetic (bench_lib.h):
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "perfbench/bench_lib.h"
#include "src/obs/quantile.h"

namespace perfbench {
namespace {

TEST(Percentiles, AgreeWithTheTreeWideRankRule) {
  std::mt19937_64 rng(7);
  for (int n : {1, 2, 3, 10, 99, 100, 101, 1000, 1201}) {
    std::vector<double> values(static_cast<size_t>(n));
    std::exponential_distribution<double> d(0.2);
    for (double& v : values) v = d(rng);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(SortedQuantile(sorted, q),
                rntraj::obs::ExactQuantile(values, q))
          << "n=" << n << " q=" << q;
    }
    const Dist dist = Summarize(values);
    EXPECT_EQ(dist.n, n);
    EXPECT_EQ(dist.p50, rntraj::obs::ExactQuantile(values, 0.5));
    EXPECT_EQ(dist.p99, rntraj::obs::ExactQuantile(values, 0.99));
    EXPECT_EQ(dist.max, sorted.back());
  }
  EXPECT_EQ(SortedQuantile({}, 0.5), 0.0);
}

/// A synthetic service whose p99 crosses the limit at `knee` req/s.
bool SyntheticProbe(double rate, double knee) {
  WindowVerdict v;
  v.ok_share = 1.0;
  v.p99_ms = rate < knee ? 10.0 + 30.0 * rate / knee : 400.0;
  v.backlog_end = rate < knee ? 5 : 500;
  return MeetsGoodput(v, rate, /*limit_ms=*/50.0, /*min_ok_share=*/0.99);
}

TEST(Goodput, BisectionFindsAKnownRateWithinItsResolution) {
  for (double knee : {601.0, 700.0, 834.0, 1000.0, 1234.5, 1599.0}) {
    std::vector<std::pair<double, bool>> probed;
    const double found = BisectGoodput(
        600.0, 1600.0, 0.02, [&](double r) { return SyntheticProbe(r, knee); },
        &probed);
    EXPECT_LT(found, knee) << "knee=" << knee;
    EXPECT_GE(found, knee * (1.0 - 0.02)) << "knee=" << knee;
    EXPECT_LE(probed.size(), 8u);
    for (const auto& [rate, pass] : probed) {
      EXPECT_EQ(pass, rate < knee);
    }
  }
}

TEST(Goodput, EveryConditionCanFailAProbe) {
  const WindowVerdict good{1.0, 20.0, 3};
  EXPECT_TRUE(MeetsGoodput(good, 800.0, 50.0, 0.99));
  WindowVerdict v = good;
  v.ok_share = 0.98;
  EXPECT_FALSE(MeetsGoodput(v, 800.0, 50.0, 0.99));
  v = good;
  v.p99_ms = 50.5;
  EXPECT_FALSE(MeetsGoodput(v, 800.0, 50.0, 0.99));
  v = good;
  v.backlog_end = 41;  // 800 req/s x 50 ms holds 40
  EXPECT_FALSE(MeetsGoodput(v, 800.0, 50.0, 0.99));
}

TEST(Outcomes, AttemptedIsOkPlusEachFailureKind) {
  Outcomes a;
  for (int i = 0; i < 7; ++i) a.Ok();
  a.Fail(Failure::kShed);
  a.Fail(Failure::kDeadlineMissed);
  a.Fail(Failure::kDeadlineMissed);
  a.Fail(Failure::kWrongAnswer);
  Outcomes b;
  b.Ok();
  b.Fail(Failure::kInternalError);
  b.Fail(Failure::kValidationError);
  a.Add(b);
  EXPECT_EQ(a.attempted, 14);
  EXPECT_EQ(a.ok, 8);
  EXPECT_EQ(a.failed_total(), 6);
  int64_t sum = a.ok;
  for (int f = 0; f < kFailureKinds; ++f) sum += a.failed[f];
  EXPECT_EQ(a.attempted, sum);
  EXPECT_TRUE(a.Balanced());
  EXPECT_EQ(a.failed[static_cast<int>(Failure::kDeadlineMissed)], 2);
}

TEST(Outcomes, ServiceKindsMapToTheirFailure) {
  using rntraj::serve::ResponseKind;
  EXPECT_EQ(FailureOf(ResponseKind::kShed), Failure::kShed);
  EXPECT_EQ(FailureOf(ResponseKind::kDeadlineMissed), Failure::kDeadlineMissed);
  EXPECT_EQ(FailureOf(ResponseKind::kInternalError), Failure::kInternalError);
  EXPECT_EQ(FailureOf(ResponseKind::kValidationError),
            Failure::kValidationError);
}

rntraj::MatchedTrajectory Answer() {
  rntraj::MatchedTrajectory t;
  for (int i = 0; i < 6; ++i) {
    t.points.push_back({/*seg_id=*/10 + i, /*ratio=*/0.1 * i, /*t=*/12.0 * i});
  }
  return t;
}

TEST(AnswerCheck, AcceptsTheSameAnswerWithinTolerance) {
  rntraj::MatchedTrajectory served = Answer();
  served.points[3].ratio += 5e-6;
  std::string why;
  EXPECT_TRUE(AnswerMatches(served, Answer(), 1e-5, &why)) << why;
}

TEST(AnswerCheck, RejectsEachCorruption) {
  std::string why;
  rntraj::MatchedTrajectory seg = Answer();
  seg.points[2].seg_id += 1;
  EXPECT_FALSE(AnswerMatches(seg, Answer(), 1e-5, &why));
  EXPECT_NE(why.find("segment"), std::string::npos);

  rntraj::MatchedTrajectory ratio = Answer();
  ratio.points[4].ratio += 2e-5;
  EXPECT_FALSE(AnswerMatches(ratio, Answer(), 1e-5, &why));
  EXPECT_NE(why.find("ratio"), std::string::npos);

  rntraj::MatchedTrajectory nan = Answer();
  nan.points[1].ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(AnswerMatches(nan, Answer(), 1e-5, &why));
  EXPECT_NE(why.find("non-finite"), std::string::npos);

  rntraj::MatchedTrajectory short_answer = Answer();
  short_answer.points.pop_back();
  EXPECT_FALSE(AnswerMatches(short_answer, Answer(), 1e-5, &why));
  EXPECT_NE(why.find("length"), std::string::npos);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 0},
      {"a", 10, 30, 0, 1},
      {"b", 20, 40, 0, 2},    // overlaps a: the union [10, 40) counts once
      {"c", 90, 120, 0, 3},   // runs past the root: clipped to [90, 100)
      {"a.child", 12, 18, 1, 1},
      {"leaf", 50, 50, 0, 4},  // empty
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 0);
}

TEST(Spans, LogRecordsNothingWhenDisabled) {
  SpanLog off(false);
  EXPECT_EQ(off.Begin("x", -1, 0), -1);
  off.End(-1);
  EXPECT_TRUE(off.spans().empty());

  SpanLog on(true);
  const int root = on.Begin("root", -1, 7);
  const int child = on.Add("child", on.NowNs(), on.NowNs() + 5, root, 7);
  on.End(root);
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[static_cast<size_t>(child)].parent, root);
  EXPECT_EQ(spans[0].trace_id, 7);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

TEST(Json, NumbersKeepTheirDigitsAndStringsAreEscaped) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(4.860373), "4.860373");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonString("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonObject().Num("x", 1.5).Int("n", 3).Bool("ok", true).str(),
            "{\"x\": 1.5, \"n\": 3, \"ok\": true}");
}

}  // namespace
}  // namespace perfbench
