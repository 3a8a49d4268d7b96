// Parity and pushdown tests for the streaming engine: the pipeline must
// match the old materialize-everything semantics exactly (including the
// disconnected-filter row drop and DISTINCT-before-OFFSET/LIMIT ordering)
// while terminating early for ASK and LIMIT-1 probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/engine.h"
#include "sparql/query.h"
#include "sparql_oracle.h"
#include "util/random.h"

namespace sofya {
namespace {

class StreamingParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = dict_.InternIri("a");
    b_ = dict_.InternIri("b");
    c_ = dict_.InternIri("c");
    knows_ = dict_.InternIri("knows");
    likes_ = dict_.InternIri("likes");
    age_ = dict_.InternIri("age");
    thirty_ = dict_.InternLiteral("30");
    store_.Insert(a_, knows_, b_);
    store_.Insert(a_, knows_, c_);
    store_.Insert(b_, knows_, c_);
    store_.Insert(b_, likes_, a_);
    store_.Insert(c_, likes_, a_);
    store_.Insert(a_, age_, thirty_);
    store_.Insert(b_, age_, thirty_);
  }

  Dictionary dict_;
  TripleStore store_;
  TermId a_, b_, c_, knows_, likes_, age_, thirty_;
};

TEST_F(StreamingParityTest, DisconnectedFilterDropsAllRows) {
  // ?z is declared and mentioned by a filter but bound by no clause: SPARQL
  // filter-error semantics drop every row.
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  const VarId z = q.NewVar("z");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Filter(FilterExpr::VarNeqVar(y, z));
  q.Select({x, y});
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(BruteForce(store_, q).rows, result->rows);

  // ASK agrees: no solution exists under filter-error semantics.
  auto ask = EvaluateAsk(store_, q);
  ASSERT_TRUE(ask.ok());
  EXPECT_FALSE(*ask);
}

TEST_F(StreamingParityTest, DistinctAppliesBeforeOffsetAndLimit) {
  // knows-objects with duplicates: b, c, c. DISTINCT -> [b, c]; OFFSET 1
  // must skip a *distinct* row, not a raw row.
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Select({y}).Distinct().Offset(1);
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows, BruteForce(store_, q).rows);
  ASSERT_EQ(result->rows.size(), 1u);
}

TEST_F(StreamingParityTest, LimitZeroYieldsNoRows) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Limit(0);
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(StreamingParityTest, OffsetBeyondResultYieldsNoRows) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Offset(100);
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(StreamingParityTest, FilterCornerCasesMatchBruteForce) {
  // Join + neq-var filter + distinct projection, paged two ways.
  for (uint64_t offset : std::vector<uint64_t>{0, 1, 2}) {
    for (uint64_t limit : std::vector<uint64_t>{1, 2, kNoLimit}) {
      SelectQuery q;
      const VarId x = q.NewVar("x");
      const VarId y1 = q.NewVar("y1");
      const VarId y2 = q.NewVar("y2");
      q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
              NodeRef::Variable(y1));
      q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
              NodeRef::Variable(y2));
      q.Filter(FilterExpr::VarNeqVar(y1, y2));
      q.Select({x, y1}).Distinct().Offset(offset).Limit(limit);
      auto streaming = Evaluate(store_, q);
      ASSERT_TRUE(streaming.ok());
      EXPECT_EQ(streaming->rows, BruteForce(store_, q).rows)
          << "offset=" << offset << " limit=" << limit;
    }
  }
}

TEST_F(StreamingParityTest, PaginationConcatenatesToFullResult) {
  SelectQuery all;
  const VarId x = all.NewVar("x");
  const VarId y = all.NewVar("y");
  all.Where(NodeRef::Variable(x), NodeRef::Variable(y),
            NodeRef::Constant(a_));
  auto full = Evaluate(store_, all);
  ASSERT_TRUE(full.ok());
  std::vector<Row> paged;
  for (uint64_t off = 0;; ++off) {
    SelectQuery page = all;
    page.Offset(off).Limit(1);
    auto r = Evaluate(store_, page);
    ASSERT_TRUE(r.ok());
    if (r->rows.empty()) break;
    for (auto& row : r->rows) paged.push_back(row);
  }
  EXPECT_EQ(paged, full->rows);
}

TEST_F(StreamingParityTest, AskStopsAtFirstSolution) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));

  EvalStats ask_stats;
  auto ask = EvaluateAsk(store_, q, &ask_stats);
  ASSERT_TRUE(ask.ok());
  EXPECT_TRUE(*ask);
  EXPECT_EQ(ask_stats.triples_scanned, 1u);  // First match settles it.

  EvalStats full_stats;
  ASSERT_TRUE(Evaluate(store_, q, &full_stats).ok());
  EXPECT_EQ(full_stats.triples_scanned, 3u);  // Full enumeration.
}

TEST_F(StreamingParityTest, LimitOnePushdownStopsScan) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Limit(1);
  EvalStats stats;
  auto result = Evaluate(store_, q, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(stats.triples_scanned, 1u);
}

TEST_F(StreamingParityTest, AskIgnoresSolutionModifiers) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Offset(50).Limit(0).Distinct();
  auto ask = EvaluateAsk(store_, q);
  ASSERT_TRUE(ask.ok());
  EXPECT_TRUE(*ask);  // Solutions exist, whatever the modifiers say.
}

// Property: random stores and query shapes agree with the reference
// evaluator as bags of rows (order is checked by the pagination tests).
class StreamingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingProperty, MatchesBruteForceOnRandomStores) {
  Rng rng(GetParam());
  TripleStore store;
  const TermId p1 = 100, p2 = 101, p3 = 102;
  for (int i = 0; i < 300; ++i) {
    const TermId p = p1 + static_cast<TermId>(rng.Below(3));
    store.Insert(static_cast<TermId>(1 + rng.Below(12)), p,
                 static_cast<TermId>(1 + rng.Below(12)));
  }

  // Shape 1: chain join with a neq filter.
  {
    SelectQuery q;
    const VarId x = q.NewVar("x");
    const VarId y = q.NewVar("y");
    const VarId z = q.NewVar("z");
    q.Where(NodeRef::Variable(x), NodeRef::Constant(p1),
            NodeRef::Variable(y));
    q.Where(NodeRef::Variable(y), NodeRef::Constant(p2),
            NodeRef::Variable(z));
    q.Filter(FilterExpr::VarNeqVar(x, z));
    auto streaming = Evaluate(store, q);
    ASSERT_TRUE(streaming.ok());
    EXPECT_EQ(AsBag(streaming->rows), AsBag(BruteForce(store, q).rows));
  }

  // Shape 2: star join, distinct projection, offset+limit window.
  {
    SelectQuery q;
    const VarId x = q.NewVar("x");
    const VarId y1 = q.NewVar("y1");
    const VarId y2 = q.NewVar("y2");
    q.Where(NodeRef::Variable(x), NodeRef::Constant(p1),
            NodeRef::Variable(y1));
    q.Where(NodeRef::Variable(x), NodeRef::Constant(p3),
            NodeRef::Variable(y2));
    q.Select({x}).Distinct().Offset(1).Limit(4);
    // Windowed DISTINCT depends on row order, which the planner may change
    // from the oracle's source order. So: the full DISTINCT result is the
    // oracle's as a bag, and the window is a slice of the planner's *own*
    // full enumeration.
    SelectQuery full = q;
    full.Offset(0).Limit(kNoLimit);
    auto planned_full = Evaluate(store, full);
    auto planned_window = Evaluate(store, q);
    ASSERT_TRUE(planned_full.ok());
    ASSERT_TRUE(planned_window.ok());
    EXPECT_EQ(AsBag(planned_full->rows), AsBag(BruteForce(store, full).rows));
    const size_t begin = std::min<size_t>(1, planned_full->rows.size());
    const size_t end = std::min<size_t>(begin + 4, planned_full->rows.size());
    EXPECT_EQ(planned_window->rows,
              std::vector<Row>(planned_full->rows.begin() + begin,
                               planned_full->rows.begin() + end));
  }

  // Shape 3: repeated variable within a clause.
  {
    SelectQuery q;
    const VarId x = q.NewVar("x");
    q.Where(NodeRef::Variable(x), NodeRef::Constant(p2),
            NodeRef::Variable(x));
    auto streaming = Evaluate(store, q);
    ASSERT_TRUE(streaming.ok());
    EXPECT_EQ(AsBag(streaming->rows), AsBag(BruteForce(store, q).rows));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingProperty,
                         ::testing::Values(1ULL, 5ULL, 9ULL, 21ULL, 33ULL));

}  // namespace
}  // namespace sofya
