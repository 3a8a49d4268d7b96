// The concurrency battery for the thread-safe endpoint stack and parallel
// alignment:
//
//   * 8 threads hammering CachingEndpoint + LocalEndpoint with overlapping
//     fingerprints — results stay correct, hit/miss counters sum exactly to
//     the number of requests, and server accounting never tears;
//   * AlignMany at 1, 2 and 8 threads — verdicts and per-relation query
//     counts bit-identical to sequential Align, fleet accounting adds up.
//
// Run under ThreadSanitizer in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "align/relation_aligner.h"
#include "endpoint/caching_endpoint.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/query_forms.h"
#include "endpoint/throttled_endpoint.h"
#include "endpoint/tracking_endpoint.h"
#include "rdf/knowledge_base.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
#include "util/string_util.h"

namespace sofya {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kIterations = 200;

/// A KB with a few predicates of known cardinality for stress queries.
class EndpointConcurrencyTest : public ::testing::Test {
 protected:
  EndpointConcurrencyTest() : kb_("stresskb", "http://s.org/") {
    for (int p = 0; p < 8; ++p) {
      const std::string pred = "p" + std::to_string(p);
      for (int i = 0; i <= p * 3; ++i) {
        kb_.AddFact("s" + std::to_string(i), pred, "o" + std::to_string(i));
      }
      predicates_.push_back(kb_.dict().LookupIri("http://s.org/" + pred));
      cardinality_.push_back(static_cast<size_t>(p * 3 + 1));
    }
    kb_.store().EnsureIndexed();
  }

  KnowledgeBase kb_;
  std::vector<TermId> predicates_;
  std::vector<size_t> cardinality_;
};

TEST_F(EndpointConcurrencyTest, LocalEndpointCountersNeverTear) {
  LocalEndpoint ep(&kb_);
  std::atomic<uint64_t> expected_rows{0};
  std::atomic<int> wrong_results{0};

  auto worker = [&](size_t seed) {
    for (size_t i = 0; i < kIterations; ++i) {
      const size_t p = (seed + i) % predicates_.size();
      auto result = ep.Select(queries::FactsOfPredicate(predicates_[p]));
      if (!result.ok() || result->rows.size() != cardinality_[p]) {
        wrong_results.fetch_add(1);
        continue;
      }
      expected_rows.fetch_add(result->rows.size());
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong_results.load(), 0);
  // Every query and every row accounted, exactly once.
  EXPECT_EQ(ep.stats().queries, kThreads * kIterations);
  EXPECT_EQ(ep.stats().rows_returned, expected_rows.load());
}

TEST_F(EndpointConcurrencyTest, CachingEndpointHitMissCountersSumExactly) {
  LocalEndpoint inner(&kb_);
  CachingEndpoint ep(&inner);

  // Overlapping fingerprints by design: every thread cycles the same 16
  // query shapes (8 plain + 8 with LIMIT), offset by its id.
  std::vector<SelectQuery> shapes;
  for (TermId p : predicates_) {
    shapes.push_back(queries::FactsOfPredicate(p));
    shapes.push_back(queries::FactsOfPredicate(p, /*limit=*/2));
  }

  std::atomic<int> wrong_results{0};
  auto worker = [&](size_t seed) {
    for (size_t i = 0; i < kIterations; ++i) {
      const size_t s = (seed * 7 + i) % shapes.size();
      auto result = ep.Select(shapes[s]);
      const size_t expect =
          std::min<size_t>(cardinality_[s / 2], s % 2 == 1 ? 2 : SIZE_MAX);
      if (!result.ok() || result->rows.size() != expect) {
        wrong_results.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong_results.load(), 0);
  // The cast-iron invariant: every request is classified exactly once.
  EXPECT_EQ(ep.hits() + ep.misses(), kThreads * kIterations);
  // The server saw one query per miss (no eviction at this capacity) —
  // racing cold misses on the same key may fetch twice, but never more
  // often than misses were counted.
  EXPECT_EQ(inner.stats().queries, ep.misses());
  // And misses are at least the number of distinct shapes, at most a benign
  // stampede's worth above it.
  EXPECT_GE(ep.misses(), shapes.size());
  EXPECT_LE(ep.misses(), shapes.size() * kThreads);
  EXPECT_EQ(ep.stats().cache_hits, ep.hits());
}

TEST_F(EndpointConcurrencyTest, MixedSelectAskAndBatchTraffic) {
  LocalEndpoint inner(&kb_);
  CacheOptions cache_options;
  cache_options.shards = 4;  // Force multi-shard even at default capacity.
  CachingEndpoint ep(&inner, cache_options);

  std::atomic<int> failures{0};
  auto worker = [&](size_t seed) {
    for (size_t i = 0; i < kIterations / 4; ++i) {
      const TermId p = predicates_[(seed + i) % predicates_.size()];
      auto one = ep.Select(queries::FactsOfPredicate(p));
      if (!one.ok()) failures.fetch_add(1);
      auto ask = ep.Ask(queries::FactsOfPredicate(p));
      if (!ask.ok() || !*ask) failures.fetch_add(1);
      std::vector<SelectQuery> batch = {
          queries::FactsOfPredicate(p),
          queries::FactsOfPredicate(p, /*limit=*/1),
          queries::FactsOfPredicate(p),
      };
      SelectBatchResult many = ep.SelectMany(batch);
      if (!many.all_ok() || many.values[0].rows != many.values[2].rows) {
        failures.fetch_add(1);
      }
      AskBatchResult asks = ep.AskMany(batch);
      if (!asks.all_ok() || !asks.values[0] || !asks.values[1]) {
        failures.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  // 1 select + 1 ask + 3 batched selects + 3 batched asks per iteration.
  EXPECT_EQ(ep.hits() + ep.misses(), kThreads * (kIterations / 4) * 8);
}

TEST_F(EndpointConcurrencyTest, ThrottledBudgetIsExactUnderContention) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions throttle;
  throttle.query_budget = 100;
  throttle.jitter_ms = 0.0;
  ThrottledEndpoint ep(&inner, throttle);

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> denied{0};
  auto worker = [&](size_t seed) {
    for (size_t i = 0; i < 50; ++i) {
      const TermId p = predicates_[(seed + i) % predicates_.size()];
      auto result = ep.Select(queries::FactsOfPredicate(p));
      if (result.ok()) {
        admitted.fetch_add(1);
      } else if (result.status().IsResourceExhausted()) {
        denied.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  // The budget admits exactly 100 requests, never 101 — and everything else
  // is cleanly denied.
  EXPECT_EQ(admitted.load(), 100u);
  EXPECT_EQ(denied.load(), kThreads * 50 - 100);
  EXPECT_EQ(ep.stats().queries, 100u);
  EXPECT_EQ(ep.queries_issued(), 100u);
  EXPECT_EQ(ep.remaining_budget(), 0u);
}

// ---------------------------------------------------------------------------
// AlignMany determinism: same verdicts, same per-relation query counts, for
// any thread count — and equal to sequential Align.

std::string VerdictFingerprint(const AlignmentResult& result) {
  std::string fp = result.reference_relation.lexical();
  for (const auto& v : result.verdicts) {
    fp += StrFormat(
        "|%s;%.9f;%.9f;%zu;%zu;%d;%d;%d;%d", v.relation.lexical().c_str(),
        v.rule.pca_conf, v.rule.cwa_conf, v.rule.support, v.cooccurrences,
        static_cast<int>(v.passed_threshold), static_cast<int>(v.accepted),
        static_cast<int>(v.ubs_subsumption_pruned),
        static_cast<int>(v.equivalence));
  }
  return fp;
}

/// The multi-relation workload: a small YAGO/DBpedia world plus its first
/// `max_relations` reference relations (sorted for determinism).
std::vector<Term> WorkloadRelations(const SynthWorld& world,
                                    size_t max_relations) {
  std::vector<std::string> iris = world.truth.RelationsOf("dbpd");
  std::sort(iris.begin(), iris.end());
  if (iris.size() > max_relations) iris.resize(max_relations);
  std::vector<Term> relations;
  for (const std::string& iri : iris) relations.push_back(Term::Iri(iri));
  return relations;
}

TEST(AlignManyDeterminismTest, IdenticalToSequentialForAnyThreadCount) {
  auto world =
      std::move(GenerateWorld(YagoDbpediaSpec(101, /*scale=*/0.03))).value();
  const std::vector<Term> relations = WorkloadRelations(world, 10);
  ASSERT_GE(relations.size(), 3u);

  // Sequential baseline over a bare (undecorated) stack: per-relation delta
  // accounting is exact here, and AlignMany's tracked counts must match it.
  std::vector<std::string> seq_fingerprints;
  std::vector<uint64_t> seq_cand_queries, seq_ref_queries, seq_rows;
  {
    LocalEndpoint cand(world.kb1.get());
    LocalEndpoint ref(world.kb2.get());
    RelationAligner aligner(&cand, &ref, &world.links);
    for (const Term& r : relations) {
      auto result = aligner.Align(r);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      seq_fingerprints.push_back(VerdictFingerprint(*result));
      seq_cand_queries.push_back(result->candidate_queries);
      seq_ref_queries.push_back(result->reference_queries);
      seq_rows.push_back(result->rows_shipped);
    }
  }

  for (size_t threads : {1u, 2u, 8u}) {
    LocalEndpoint cand(world.kb1.get());
    LocalEndpoint ref(world.kb2.get());
    RelationAligner aligner(&cand, &ref, &world.links);
    auto fleet = aligner.AlignMany(relations, threads);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    ASSERT_EQ(fleet->results.size(), relations.size());

    uint64_t sum_cand = 0, sum_ref = 0;
    for (size_t i = 0; i < relations.size(); ++i) {
      const AlignmentResult& result = fleet->results[i];
      // Input order preserved.
      EXPECT_EQ(result.reference_relation, relations[i]);
      // Bit-identical verdicts...
      EXPECT_EQ(VerdictFingerprint(result), seq_fingerprints[i])
          << "threads=" << threads << " relation " << i;
      // ...and identical per-relation query/row accounting.
      EXPECT_EQ(result.candidate_queries, seq_cand_queries[i])
          << "threads=" << threads << " relation " << i;
      EXPECT_EQ(result.reference_queries, seq_ref_queries[i])
          << "threads=" << threads << " relation " << i;
      EXPECT_EQ(result.rows_shipped, seq_rows[i])
          << "threads=" << threads << " relation " << i;
      sum_cand += result.candidate_queries;
      sum_ref += result.reference_queries;
    }
    // Aggregate accounting adds up: over a bare stack every server query is
    // attributable to exactly one relation.
    EXPECT_EQ(fleet->candidate_stats.queries, sum_cand)
        << "threads=" << threads;
    EXPECT_EQ(fleet->reference_stats.queries, sum_ref)
        << "threads=" << threads;
    EXPECT_EQ(fleet->threads_used, std::min(threads, relations.size()));
  }
}

TEST(AlignManyDeterminismTest, MatchesTrackedSequentialAlignBitForBit) {
  // The reference: sequential Align of each relation over its own private
  // TrackingEndpoints — the attribution regime AlignMany documents. The
  // phase decomposition changes only who runs which piece of work, never
  // the work itself, so verdicts AND per-relation query counts must match
  // at any thread count.
  auto world =
      std::move(GenerateWorld(YagoDbpediaSpec(101, /*scale=*/0.03))).value();
  const std::vector<Term> relations = WorkloadRelations(world, 8);
  ASSERT_GE(relations.size(), 3u);

  auto fingerprint = [](const AlignmentResult& result) {
    return VerdictFingerprint(result) + "|" +
           std::to_string(result.candidate_queries) + "|" +
           std::to_string(result.reference_queries);
  };
  LocalEndpoint cand(world.kb1.get());
  LocalEndpoint ref(world.kb2.get());
  std::vector<std::string> expected;
  for (const Term& r : relations) {
    TrackingEndpoint cand_view(&cand);
    TrackingEndpoint ref_view(&ref);
    RelationAligner aligner(&cand_view, &ref_view, &world.links);
    auto result = aligner.Align(r);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(fingerprint(*result));
  }

  std::vector<size_t> tasks;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    RelationAligner aligner(&cand, &ref, &world.links);
    auto fleet = aligner.AlignMany(relations, threads);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    std::vector<std::string> fingerprints;
    for (const auto& result : fleet->results) {
      fingerprints.push_back(fingerprint(result));
    }
    EXPECT_EQ(fingerprints, expected) << "threads=" << threads;
    tasks.push_back(fleet->subtasks_scheduled);
  }
  // AlignMany really decomposed: strictly more tasks than relations
  // (discovery + per-candidate + UBS + reverse), and the task breakdown
  // itself is deterministic.
  EXPECT_GT(tasks.front(), relations.size());
  EXPECT_EQ(tasks.front(), tasks.back());
}

TEST(AlignManyDeterminismTest, SharedCacheKeepsVerdictsIdentical) {
  auto world =
      std::move(GenerateWorld(YagoDbpediaSpec(101, /*scale=*/0.03))).value();
  const std::vector<Term> relations = WorkloadRelations(world, 6);
  ASSERT_GE(relations.size(), 3u);

  auto run = [&](size_t threads) {
    LocalEndpoint cand_local(world.kb1.get());
    LocalEndpoint ref_local(world.kb2.get());
    CachingEndpoint cand(&cand_local);
    CachingEndpoint ref(&ref_local);
    RelationAligner aligner(&cand, &ref, &world.links);
    auto fleet = aligner.AlignMany(relations, threads);
    EXPECT_TRUE(fleet.ok());
    std::vector<std::string> fingerprints;
    for (const auto& result : fleet->results) {
      fingerprints.push_back(VerdictFingerprint(result));
    }
    // With a shared cache the server sees at most as many queries as the
    // relations issued, and the cache classifies every request.
    EXPECT_LE(fleet->candidate_stats.queries,
              fleet->candidate_stats.cache_hits +
                  fleet->candidate_stats.cache_misses);
    return fingerprints;
  };

  const auto sequential = run(1);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(8), sequential);
}

}  // namespace
}  // namespace sofya
