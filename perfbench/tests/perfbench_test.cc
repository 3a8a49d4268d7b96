// Tests of the benchmark's own pieces: the percentile rule, open-loop
// timing from due time, and the timing decorator's batch contract.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "bench_util.h"
#include "open_loop.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // Descending on purpose: Summarize must sort.
}

TEST(PercentileRule, ReportsP99WhenTenSamplesLieBeyondIt) {
  const TailSummary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
}

TEST(PercentileRule, FallsBackToHighestPercentileWithTenBeyond) {
  // p99 of 500 samples has only 5 beyond it; p98 has exactly 10.
  const TailSummary s = Summarize(OneTo(500));
  EXPECT_EQ(s.tail, 490.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 98.0);
  // 25 samples: the tail is rank 15 (p60), ten samples beyond it.
  const TailSummary small = Summarize(OneTo(25));
  EXPECT_EQ(small.tail, 15.0);
  EXPECT_DOUBLE_EQ(small.tail_percentile, 60.0);
}

TEST(PercentileRule, TinyAndEmptySamples) {
  // Too few samples for any percentile with ten beyond and above p50.
  const TailSummary tiny = Summarize(OneTo(16));
  EXPECT_EQ(tiny.p50, 8.0);
  EXPECT_EQ(tiny.tail, 8.0);
  EXPECT_DOUBLE_EQ(tiny.tail_percentile, 50.0);
  EXPECT_EQ(Summarize(OneTo(5)).tail, 3.0);
  const TailSummary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.tail, 0.0);
}

TEST(OpenLoop, StalledHandlerInflatesLaterSamples) {
  // 1000 req/s for 0.1 s on one sender; request 10 stalls 30 ms. Requests
  // due during the stall queue behind it, and their latency is timed from
  // when they fell due, so it shows the wait.
  const OpenLoopStep step = RunOpenLoop(1000.0, 0.1, 1, 1.0, [](size_t i) {
    if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  ASSERT_EQ(step.due, 100u);
  EXPECT_EQ(step.completed, 100u);
  EXPECT_EQ(step.failed, 0u);
  EXPECT_GE(step.latency_ms[10], 29.0);
  EXPECT_GE(step.latency_ms[11], 20.0);  // Due 1 ms later, sent ~29 ms late.
  EXPECT_GE(step.latency_ms[20], 10.0);
  EXPECT_LT(step.latency_ms[5], 10.0);
}

TEST(OpenLoop, AbandonsRequestsPastTheDrainAndCountsThemAsMisses) {
  const OpenLoopStep step = RunOpenLoop(1000.0, 0.05, 1, 0.0, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  });
  EXPECT_GT(step.abandoned, 0u);
  EXPECT_GE(step.backlog, step.abandoned);
  const std::vector<double> with_misses = step.LatenciesWithMisses();
  EXPECT_TRUE(std::isinf(with_misses.back()));
}

// An endpoint whose batch answers mix successes and failures per slot.
class MixedEndpoint : public sofya::Endpoint {
 public:
  const std::string& name() const override { return name_; }
  const std::string& base_iri() const override { return name_; }
  sofya::StatusOr<sofya::ResultSet> Select(const sofya::SelectQuery&) override {
    return sofya::ResultSet{};
  }
  sofya::SelectBatchResult SelectMany(
      std::span<const sofya::SelectQuery> queries) override {
    auto batch = sofya::SelectBatchResult::Sized(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      if (i % 2 == 1) {
        batch.statuses[i] = sofya::Status::Unavailable("slot " +
                                                       std::to_string(i));
      } else {
        batch.values[i].rows = {{static_cast<sofya::TermId>(100 + i)}};
      }
    }
    return batch;
  }
  sofya::AskBatchResult AskMany(
      std::span<const sofya::SelectQuery> queries) override {
    auto batch = sofya::AskBatchResult::Sized(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      if (i == 1) {
        batch.statuses[i] = sofya::Status::Unavailable("down");
      } else {
        batch.values[i] = i % 3 == 0;
      }
    }
    return batch;
  }
  sofya::TermId EncodeTerm(const sofya::Term&) override { return 1; }
  sofya::TermId LookupTerm(const sofya::Term&) const override { return 1; }
  sofya::StatusOr<sofya::Term> DecodeTerm(sofya::TermId) const override {
    return sofya::Term::Iri("x");
  }
  sofya::EndpointStats stats() const override { return {}; }
  void ResetStats() override {}

 private:
  std::string name_ = "mixed";
};

TEST(TimingEndpoint, KeepsThePerSlotBatchContract) {
  MixedEndpoint inner;
  CallStats stats;
  SpanRecorder spans(16);
  TimingEndpoint timed(&inner, &stats, &spans, "test");
  const std::vector<sofya::SelectQuery> queries(5);

  const sofya::SelectBatchResult selects = timed.SelectMany(queries);
  ASSERT_EQ(selects.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    if (i % 2 == 1) {
      EXPECT_FALSE(selects.statuses[i].ok()) << i;
      EXPECT_NE(selects.statuses[i].ToString().find(std::to_string(i)),
                std::string::npos);
    } else {
      ASSERT_TRUE(selects.statuses[i].ok()) << i;
      ASSERT_EQ(selects.values[i].rows.size(), 1u);
      EXPECT_EQ(selects.values[i].rows[0][0], 100 + i);
    }
  }

  const sofya::AskBatchResult asks = timed.AskMany(queries);
  ASSERT_EQ(asks.size(), 5u);
  EXPECT_FALSE(asks.statuses[1].ok());
  for (size_t i : {0u, 2u, 3u, 4u}) {
    ASSERT_TRUE(asks.statuses[i].ok()) << i;
    EXPECT_EQ(asks.values[i], i % 3 == 0) << i;
  }

  EXPECT_EQ(stats.Durations(CallKind::kSelectMany).size(), 1u);
  EXPECT_EQ(stats.Durations(CallKind::kAskMany).size(), 1u);
  EXPECT_EQ(stats.slots(), 10u);
  EXPECT_EQ(stats.batch_calls(), 2u);
  EXPECT_EQ(spans.size(), 2u);
}

TEST(SpanRecorder, NestsChildrenUnderTheOpenSpanAndCapsMemory) {
  SpanRecorder spans(2);
  const uint32_t name = spans.Intern("outer");
  {
    SpanRecorder::Scope outer(&spans, name);
    SpanRecorder::Scope inner(&spans, name);
    SpanRecorder::Scope third(&spans, name);
  }
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.dropped(), 1u);
}

}  // namespace
}  // namespace perfbench
