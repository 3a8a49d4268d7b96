// schema_local: whole-schema alignment (the paper's batch regime, the one
// PARIS targets) of every reference relation through Sofya::AlignAll at
// one thread per CPU, over in-process endpoints. CPU-bound: the align
// scheduler, sampling/mining, the endpoint cache and the sparql engine do
// all the work; the network is idle and nothing is written.
//
// A timed pass is one AlignAll on a fresh facade (fresh client cache and
// memo, warm store). The first pass in a process is a slow outlier, so it
// runs during set-up, untimed.

#include <algorithm>
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::vector<uint64_t> RelationDigests(
    const std::vector<const sofya::AlignmentResult*>& results) {
  std::vector<uint64_t> out;
  out.reserve(results.size());
  for (const sofya::AlignmentResult* r : results) {
    out.push_back(VerdictDigest(*r));
  }
  return out;
}

// One set-up world with its correctness reference.
struct SchemaWorld {
  std::unique_ptr<sofya::SynthWorld> world;
  std::vector<std::string> relations;
  std::vector<uint64_t> reference;  // Sequential Align digests, per relation.
  double setup_s = 0.0;
};

// One untraced pass: a fresh facade and one AlignAll. The facade is handed
// back so the caller reads the results after the clock stops.
std::vector<const sofya::AlignmentResult*> Pass(
    SchemaWorld* w, size_t threads, double* ms,
    std::unique_ptr<sofya::Sofya>* facade) {
  const Clock::time_point start = Clock::now();
  *facade = std::make_unique<sofya::Sofya>(w->world->kb1.get(),
                                           w->world->kb2.get(),
                                           &w->world->links);
  auto results = (*facade)->AlignAll(w->relations, threads);
  *ms = MillisBetween(start, Clock::now());
  if (!results.ok()) {
    std::fprintf(stderr, "perfbench: AlignAll failed: %s\n",
                 results.status().ToString().c_str());
    return {};
  }
  return *std::move(results);
}

// Set-up (timed): generate, index, one untimed warm-up pass. Then the
// correctness reference (untimed): sequential Align of every relation.
SchemaWorld SetUp(uint64_t seed, size_t threads, Report* report) {
  SchemaWorld w;
  const Clock::time_point start = Clock::now();
  w.world = MakeWorld(seed);
  w.relations = SchemaRelations(*w.world);
  double ms = 0.0;
  std::unique_ptr<sofya::Sofya> warm;
  Pass(&w, threads, &ms, &warm);
  w.setup_s = SecondsBetween(start, Clock::now());

  sofya::Sofya facade(w.world->kb1.get(), w.world->kb2.get(),
                      &w.world->links);
  std::vector<const sofya::AlignmentResult*> results;
  for (const std::string& iri : w.relations) {
    auto r = facade.Align(iri);
    if (!r.ok()) {
      report->Fail("sequential reference Align failed: " +
                   r.status().ToString());
      return w;
    }
    results.push_back(*r);
  }
  w.reference = RelationDigests(results);
  return w;
}

// Gate: every relation's verdicts equal the sequential reference.
void Check(const SchemaWorld& w,
           const std::vector<const sofya::AlignmentResult*>& results,
           Report* report) {
  const size_t n = w.relations.size();
  report->attempted += n;
  if (results.size() != n || w.reference.size() != n) {
    report->failed += n;
    report->Fail("AlignAll or the reference returned no results");
    return;
  }
  const std::vector<uint64_t> digests = RelationDigests(results);
  size_t wrong = 0;
  for (size_t i = 0; i < n; ++i) wrong += digests[i] != w.reference[i];
  if (wrong > 0) {
    report->failed += wrong;
    report->Fail(std::to_string(wrong) +
                 " relations differ from the sequential reference");
  }
}

// Exact per-relation costs of one pass (AlignAll's per-relation counts
// come from relation-private trackers, so they repeat exactly).
struct PassCost {
  double queries = 0.0, rows = 0.0, candidates = 0.0, f1 = 0.0;
};

PassCost CostOf(const SchemaWorld& w,
                const std::vector<const sofya::AlignmentResult*>& results) {
  PassCost cost;
  const double n = static_cast<double>(std::max<size_t>(1, results.size()));
  for (const sofya::AlignmentResult* r : results) {
    cost.queries += static_cast<double>(r->total_queries()) / n;
    cost.rows += static_cast<double>(r->rows_shipped) / n;
    cost.candidates += static_cast<double>(r->verdicts.size()) / n;
  }
  cost.f1 = SubsumptionF1(*w.world, results);
  return cost;
}

// The traced stack: BuildStack's order (cache outermost, then the base)
// composed from public classes, with a timing decorator above the cache and
// one at the base.
struct TracedStack {
  TracedStack(sofya::SynthWorld* world, SpanRecorder* spans)
      : candidate_local(world->kb1.get()),
        reference_local(world->kb2.get()),
        candidate_base(&candidate_local, &base_stats, spans, "sparql.kb1"),
        reference_base(&reference_local, &base_stats, spans, "sparql.kb2"),
        candidate_cache(&candidate_base),
        reference_cache(&reference_base),
        candidate_top(&candidate_cache, &top_stats, spans, "endpoint.kb1"),
        reference_top(&reference_cache, &top_stats, spans, "endpoint.kb2") {}

  CallStats top_stats;
  CallStats base_stats;
  sofya::LocalEndpoint candidate_local;
  sofya::LocalEndpoint reference_local;
  TimingEndpoint candidate_base;
  TimingEndpoint reference_base;
  sofya::CachingEndpoint candidate_cache;
  sofya::CachingEndpoint reference_cache;
  TimingEndpoint candidate_top;
  TimingEndpoint reference_top;
};

Report RunTraced(const RunConfig& config);

}  // namespace

Report RunSchemaLocal(const RunConfig& config) {
  if (config.trace) return RunTraced(config);
  Report report;
  std::vector<double> setup_s, pass_ms, throughput;
  PassCost first_cost;
  for (int k = 0; k < kWorlds; ++k) {
    SchemaWorld w = SetUp(WorldSeed(config.seed, k), config.threads, &report);
    setup_s.push_back(w.setup_s);
    std::vector<double> world_ms;
    const Clock::time_point start = Clock::now();
    while (world_ms.size() < 3 ||
           SecondsBetween(start, Clock::now()) < config.seconds / kWorlds) {
      double ms = 0.0;
      std::unique_ptr<sofya::Sofya> facade;
      const auto results = Pass(&w, config.threads, &ms, &facade);
      Check(w, results, &report);
      world_ms.push_back(ms);
      if (k == 0 && world_ms.size() == 1) first_cost = CostOf(w, results);
    }
    pass_ms.insert(pass_ms.end(), world_ms.begin(), world_ms.end());
    throughput.push_back(static_cast<double>(w.relations.size()) /
                         (Median(world_ms) / 1000.0));
    std::fprintf(stderr,
                 "perfbench: schema_local world %d: %zu relations, %zu "
                 "passes, median %.3f ms\n",
                 k, w.relations.size(), world_ms.size(), Median(world_ms));
  }
  double mean_throughput = 0.0;
  for (double t : throughput) mean_throughput += t / kWorlds;
  AddEndToEnd(&report, Median(setup_s), Summarize(pass_ms), mean_throughput);
  std::fprintf(stderr,
               "perfbench: schema_local world 0 exact per-relation cost: "
               "%.4f queries, %.4f rows; f1 %.4f\n",
               first_cost.queries, first_cost.rows, first_cost.f1);
  return report;
}

namespace {

// Traced run, on the run's first world: passes on the composed stack
// without and with timing decorators alternate; per-layer figures come from
// the traced ones. (The facade's AlignAll also builds the run manifest, so
// the overhead is taken against the same composition, not the facade.)
Report RunTraced(const RunConfig& config) {
  Report report;
  const size_t threads = config.threads;
  SchemaWorld w = SetUp(WorldSeed(config.seed, 0), threads, &report);
  const size_t n = w.relations.size();
  SpanRecorder spans(1u << 20);
  const uint32_t pass_span = spans.Intern("align.pass");
  std::vector<sofya::Term> terms;
  for (const std::string& iri : w.relations) {
    terms.push_back(sofya::Term::Iri(iri));
  }

  std::vector<double> plain_ms, traced_ms, base_queries, subtasks, share;
  std::unique_ptr<TracedStack> last;
  PassCost cost;
  double index_probes = 0, replans = 0, scanned = 0, shipped = 0;
  uint64_t cache_hits = 0, cache_lookups = 0;
  const Clock::time_point start = Clock::now();
  while (traced_ms.size() < 3 ||
         SecondsBetween(start, Clock::now()) < config.seconds) {
    {
      // The same composition without the timing decorators: the untraced
      // side of the overhead.
      sofya::LocalEndpoint candidate_local(w.world->kb1.get());
      sofya::LocalEndpoint reference_local(w.world->kb2.get());
      sofya::CachingEndpoint candidate(&candidate_local);
      sofya::CachingEndpoint reference(&reference_local);
      sofya::RelationAligner aligner(&candidate, &reference, &w.world->links);
      const Clock::time_point pass_start = Clock::now();
      auto fleet = aligner.AlignMany(terms, threads);
      plain_ms.push_back(MillisBetween(pass_start, Clock::now()));
      std::vector<const sofya::AlignmentResult*> results;
      if (fleet.ok()) {
        for (const auto& r : fleet->results) results.push_back(&r);
      }
      Check(w, results, &report);
      if (plain_ms.size() == 1) cost = CostOf(w, results);
    }

    auto stack = std::make_unique<TracedStack>(w.world.get(), &spans);
    sofya::RelationAligner aligner(&stack->candidate_top,
                                   &stack->reference_top, &w.world->links);
    const Clock::time_point pass_start = Clock::now();
    auto fleet = [&] {
      SpanRecorder::Scope scope(&spans, pass_span);
      spans.set_root(scope.id());
      return aligner.AlignMany(terms, threads);
    }();
    const double traced = MillisBetween(pass_start, Clock::now());
    traced_ms.push_back(traced);
    if (!fleet.ok()) {
      report.Fail("traced AlignMany failed: " + fleet.status().ToString());
      return report;
    }
    std::vector<const sofya::AlignmentResult*> traced_results;
    for (const auto& r : fleet->results) traced_results.push_back(&r);
    Check(w, traced_results, &report);  // Traced verdicts == untraced.
    base_queries.push_back(static_cast<double>(stack->base_stats.slots()));
    subtasks.push_back(static_cast<double>(fleet->subtasks_scheduled));
    share.push_back(stack->top_stats.busy_us() /
                    (traced * 1000.0 * static_cast<double>(threads)));
    for (const sofya::LocalEndpoint* local :
         {&stack->candidate_local, &stack->reference_local}) {
      const sofya::EndpointStats s = local->stats();
      index_probes += static_cast<double>(s.index_probes);
      replans += static_cast<double>(s.replans);
      scanned += static_cast<double>(s.triples_scanned);
      shipped += static_cast<double>(s.rows_returned);
    }
    for (const sofya::CachingEndpoint* cache :
         {&stack->candidate_cache, &stack->reference_cache}) {
      cache_hits += cache->hits();
      cache_lookups += cache->hits() + cache->misses();
    }
    last = std::move(stack);
  }

  // Per pass unless noted; call timings and engine time from the last
  // traced pass.
  LayerMetrics layers;
  const double passes = static_cast<double>(traced_ms.size());
  const CallStats& top = last->top_stats;
  layers.Set("sparql.eval_ms", last->base_stats.busy_us() / 1000.0);
  layers.Set("sparql.scanned_per_row", shipped > 0 ? scanned / shipped : 0.0);
  layers.Set("sparql.index_probes", index_probes / passes);
  layers.Set("sparql.replans", replans / passes);
  layers.Set("endpoint.requests",
             static_cast<double>(top.slots()) / static_cast<double>(n));
  layers.Set("endpoint.cache_hit_ratio",
             cache_lookups > 0 ? static_cast<double>(cache_hits) /
                                     static_cast<double>(cache_lookups)
                               : 0.0);
  layers.Set("endpoint.base_queries", Median(base_queries));
  layers.Set("endpoint.base_queries_spread",
             *std::max_element(base_queries.begin(), base_queries.end()) -
                 *std::min_element(base_queries.begin(), base_queries.end()));
  layers.Set("endpoint.batch_width",
             top.batch_calls() > 0
                 ? static_cast<double>(top.batch_slots()) /
                       static_cast<double>(top.batch_calls())
                 : 0.0);
  for (size_t k = 0; k < kNumCallKinds; ++k) {
    const CallKind kind = static_cast<CallKind>(k);
    layers.SetPercentiles(
        std::string("endpoint.call_us.") + CallKindName(kind),
        top.Durations(kind));
  }
  layers.Set("align.subtasks", Median(subtasks));
  layers.Set("align.endpoint_share", Median(share));
  layers.Set("align.candidates_per_rel", cost.candidates);
  layers.Set("align.queries_per_rel", cost.queries);
  layers.Set("align.rows_per_rel", cost.rows);
  layers.Set("align.f1", cost.f1);
  std::vector<std::string> sample;
  for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 64)) {
    sample.push_back(w.relations[i]);
  }
  layers.Set("align.discover_ms",
             MeasureDiscoverMs(w.world.get(), sample));
  // Parser/JSON sample: the reference-side probes of the discovery sample.
  MeasureDirectLayers(*w.world, w.world->kb2.get(),
                      ReferenceProbes(w.world.get(), sample, threads),
                      &layers);
  layers.Set("trace.overhead_ms", Median(traced_ms) - Median(plain_ms));
  layers.Set("trace.spans", static_cast<double>(spans.size()));
  if (!config.spans_path.empty() && !spans.WriteTsv(config.spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 config.spans_path.c_str());
  }
  layers.AppendTo(&report);
  return report;
}

}  // namespace

}  // namespace perfbench
