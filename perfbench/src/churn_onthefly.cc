// churn_onthefly: one client in a closed loop of on-the-fly alignment
// requests (Sofya::Align with the composite `auto` candidate source) on
// reference relations drawn from a Zipf distribution, interleaved with
// seeded write batches — inserts and erases of facts in existing relations
// of both KBs. After each batch the client calls on_the_fly().ClearCache():
// the alignment memo does not track data_epoch(), so that is the documented
// way to drop stale verdicts.
//
// Same aligner and engine as schema_local, but every write forces lazy
// shard re-sorts, statistics/histogram recomputes and rebuilds of the
// epoch-keyed lexical index and client cache. A read-path gain that makes
// those rebuilds costlier shows here.

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kRequestsPerRound = 16;
constexpr size_t kWritesPerKb = 16;  // Per round: half inserts, half erases.
constexpr double kZipfExponent = 1.0;
constexpr size_t kHotBlock = 8;

struct Write {
  int kb = 0;  // 0 = kb1 (candidate), 1 = kb2 (reference).
  bool insert = false;
  sofya::Triple triple;
};

sofya::SofyaOptions ChurnOptions() {
  sofya::SofyaOptions options;
  options.aligner.finder.source = sofya::CandidateSourceKind::kAuto;
  return options;
}

// Seeded write generator over the KBs' initial facts. Inserts pair a
// subject and an object already used by the relation; erases remove an
// initial fact. Each fact is inserted or erased at most once, so the log
// replays to the same store whatever the starting copy.
class WriteLog {
 public:
  WriteLog(const sofya::SynthWorld& world, std::vector<sofya::TermId> hot_kb2,
           uint64_t seed)
      : hot_kb2_(std::move(hot_kb2)), zipf_(hot_kb2_.size(), kZipfExponent),
        seed_(seed) {
    const sofya::KnowledgeBase* kbs[2] = {world.kb1.get(), world.kb2.get()};
    for (int k = 0; k < 2; ++k) {
      for (sofya::TermId p : kbs[k]->Relations()) {
        relations_[k].push_back(p);
        facts_[k][p] = kbs[k]->store().Match(
            sofya::TriplePattern(sofya::kNullTermId, p, sofya::kNullTermId));
        for (const sofya::Triple& t : facts_[k][p]) initial_[k].insert(Key(t));
      }
      std::sort(relations_[k].begin(), relations_[k].end());
    }
  }

  // The batch of round `round`, appended to the log.
  std::vector<Write> NextBatch(size_t round) {
    sofya::Rng rng = sofya::Rng(seed_).Fork(0x3b17e5ull + round);
    std::vector<Write> batch;
    for (int k = 0; k < 2; ++k) {
      for (size_t w = 0; w < kWritesPerKb; ++w) {
        const sofya::TermId p =
            k == 1 ? hot_kb2_[zipf_.Sample(rng)]
                   : relations_[k][rng.Below(relations_[k].size())];
        const std::vector<sofya::Triple>& facts = facts_[k].at(p);
        const bool insert = w % 2 == 0;
        for (int attempt = 0; attempt < 8; ++attempt) {
          sofya::Triple t;
          if (insert) {
            t = sofya::Triple(facts[rng.Below(facts.size())].subject, p,
                              facts[rng.Below(facts.size())].object);
            if (initial_[k].count(Key(t))) continue;
          } else {
            t = facts[rng.Below(facts.size())];
          }
          if (!touched_[k].insert(Key(t)).second) continue;
          batch.push_back({k, insert, t});
          break;
        }
      }
    }
    log_.insert(log_.end(), batch.begin(), batch.end());
    return batch;
  }

  const std::vector<Write>& log() const { return log_; }

 private:
  static std::string Key(const sofya::Triple& t) {
    return std::to_string(t.subject) + "," + std::to_string(t.predicate) +
           "," + std::to_string(t.object);
  }

  std::vector<sofya::TermId> hot_kb2_;  // Zipf rank -> kb2 relation.
  sofya::ZipfSampler zipf_;
  uint64_t seed_;
  std::vector<sofya::TermId> relations_[2];
  std::unordered_map<sofya::TermId, std::vector<sofya::Triple>> facts_[2];
  std::unordered_set<std::string> initial_[2];
  std::unordered_set<std::string> touched_[2];
  std::vector<Write> log_;
};

void Apply(sofya::SynthWorld* world, const Write& w) {
  sofya::TripleStore& store =
      (w.kb == 0 ? world->kb1 : world->kb2)->store();
  if (w.insert) {
    store.Insert(w.triple);
  } else {
    store.Erase(w.triple);
  }
}

// The set-up product: world, Zipf order over kb2 relations, write log and
// the client facade.
struct Session {
  uint64_t seed = 0;
  std::unique_ptr<sofya::SynthWorld> world;
  std::vector<std::string> hot;  // Zipf rank -> relation IRI.
  std::unique_ptr<WriteLog> log;
  std::unique_ptr<sofya::Sofya> facade;
};

std::unique_ptr<Session> Open(uint64_t seed) {
  auto s = std::make_unique<Session>();
  s->seed = seed;
  s->world = MakeWorld(seed);
  // Popularity follows size, as in real KBs: Zipf rank order is the kb2
  // relations by fact count, shuffled (seeded) within blocks of similar size.
  const sofya::KnowledgeBase& kb2 = *s->world->kb2;
  std::vector<std::pair<size_t, std::string>> sized;
  for (const std::string& iri : SchemaRelations(*s->world)) {
    sized.push_back({kb2.store().CountMatches(sofya::TriplePattern(
                         sofya::kNullTermId, kb2.dict().LookupIri(iri),
                         sofya::kNullTermId)),
                     iri});
  }
  std::stable_sort(sized.begin(), sized.end(), [](const auto& a,
                                                  const auto& b) {
    return a.first > b.first;
  });
  sofya::Rng rng(seed ^ 0xc4a27ull);
  for (size_t block = 0; block < sized.size(); block += kHotBlock) {
    std::vector<std::string> members;
    for (size_t i = block; i < std::min(sized.size(), block + kHotBlock); ++i) {
      members.push_back(sized[i].second);
    }
    sofya::Shuffle(rng, members);
    s->hot.insert(s->hot.end(), members.begin(), members.end());
  }
  std::vector<sofya::TermId> hot_ids;
  for (const std::string& iri : s->hot) {
    hot_ids.push_back(kb2.dict().LookupIri(iri));
  }
  s->log = std::make_unique<WriteLog>(*s->world, std::move(hot_ids), seed);
  s->facade = std::make_unique<sofya::Sofya>(
      s->world->kb1.get(), s->world->kb2.get(), &s->world->links,
      ChurnOptions());
  // Warm-up: the first requests of a process pay one-off costs.
  for (size_t i = 0; i < kRequestsPerRound; ++i) {
    (void)s->facade->Align(s->hot[i]);
  }
  s->facade->on_the_fly().ClearCache();
  return s;
}

// The traced client: BuildStack's order (cache outermost, then the base)
// from public classes, timing decorators above the cache and at the base.
struct TracedClient {
  TracedClient(sofya::SynthWorld* world, SpanRecorder* spans)
      : candidate_local(world->kb1.get()),
        reference_local(world->kb2.get()),
        candidate_base(&candidate_local, &base_stats, spans, "sparql.kb1"),
        reference_base(&reference_local, &base_stats, spans, "sparql.kb2"),
        candidate_cache(&candidate_base),
        reference_cache(&reference_base),
        candidate_top(&candidate_cache, &top_stats, spans, "endpoint.kb1"),
        reference_top(&reference_cache, &top_stats, spans, "endpoint.kb2"),
        aligner(&candidate_top, &reference_top, &world->links,
                ChurnOptions().aligner) {}

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
  sofya::OnTheFlyAligner aligner;
};

// What the traced half of a traced run records.
struct ChurnTrace {
  explicit ChurnTrace(sofya::SynthWorld* world)
      : spans(1u << 20),
        round_span(spans.Intern("churn.round")),
        client(world, &spans),
        candidate(world->kb1.get()),
        reference(world->kb2.get()),
        to_candidate(&world->links, candidate.base_iri()),
        discover(&candidate, &reference, &to_candidate, DiscoverOptions()) {}

  static sofya::CandidateFinderOptions DiscoverOptions() {
    sofya::CandidateFinderOptions finder = ChurnOptions().aligner.finder;
    finder.lexical_cache = std::make_shared<sofya::LexicalIndexCache>();
    return finder;
  }

  SpanRecorder spans;
  uint32_t round_span;
  TracedClient client;
  // CandidateSource::Discover called directly, with its own lexical index.
  sofya::LocalEndpoint candidate;
  sofya::LocalEndpoint reference;
  sofya::CrossKbTranslator to_candidate;
  sofya::CompositeCandidateSource discover;
  std::vector<double> write_us, first_read_ms, discover_ms, discover_after_ms;
  double alignment_ms = 0.0;  // Requests that aligned (not memo hits).
};

struct RoundStats {
  std::vector<double> latency_ms;  // One per request.
  size_t requests = 0;
  uint64_t memo_hits = 0, alignments = 0;
  double queries = 0, rows = 0, candidates = 0;  // Summed over alignments.
  // The last round's requests, in order.
  std::vector<std::pair<std::string, const sofya::AlignmentResult*>> last;
};

// The first read of each written predicate pays its lazy re-sort; then
// discovery right after the write rebuilds the lexical index, and the
// next call reuses it.
void TraceAfterWrite(Session* s, const sofya::ZipfSampler& zipf,
                     size_t round,
                     const std::unordered_set<sofya::TermId> (&written)[2],
                     ChurnTrace* trace) {
  for (int k = 0; k < 2; ++k) {
    const sofya::TripleStore& store =
        (k == 0 ? s->world->kb1 : s->world->kb2)->store();
    for (sofya::TermId p : written[k]) {
      const Clock::time_point start = Clock::now();
      size_t seen = 0;
      store.ForEachMatch(
          sofya::TriplePattern(sofya::kNullTermId, p, sofya::kNullTermId),
          [&seen](const sofya::Triple&) { return ++seen > 0; });
      trace->first_read_ms.push_back(MillisBetween(start, Clock::now()));
    }
  }
  sofya::Rng pick = sofya::Rng(s->seed).Fork(round);
  for (std::vector<double>* sink :
       {&trace->discover_after_ms, &trace->discover_ms}) {
    const Clock::time_point start = Clock::now();
    (void)trace->discover.Discover(
        sofya::Term::Iri(s->hot[zipf.Sample(pick)]));
    sink->push_back(MillisBetween(start, Clock::now()));
  }
}

// One round: a write batch, the memo cleared, kRequestsPerRound requests.
// Runs on the facade, or on the traced client when `trace` is set.
void Round(Session* s, const sofya::ZipfSampler& zipf, size_t round,
           ChurnTrace* trace, RoundStats* stats, Report* report) {
  SpanRecorder::Scope round_scope(trace ? &trace->spans : nullptr,
                                  trace ? trace->round_span : 0);
  if (trace) trace->spans.set_root(round_scope.id());

  std::unordered_set<sofya::TermId> written[2];
  for (const Write& w : s->log->NextBatch(round)) {
    const Clock::time_point start = Clock::now();
    Apply(s->world.get(), w);
    if (trace) trace->write_us.push_back(MicrosBetween(start, Clock::now()));
    written[w.kb].insert(w.triple.predicate);
  }
  if (trace) TraceAfterWrite(s, zipf, round, written, trace);
  sofya::OnTheFlyAligner& memo =
      trace ? trace->client.aligner : s->facade->on_the_fly();
  memo.ClearCache();

  sofya::Rng draws = sofya::Rng(s->seed).Fork(0xd7a5ull + round);
  stats->last.clear();
  for (size_t i = 0; i < kRequestsPerRound; ++i) {
    const std::string& iri = s->hot[zipf.Sample(draws)];
    const size_t before = memo.alignments_performed();
    const Clock::time_point start = Clock::now();
    auto result = trace ? memo.AlignCached(sofya::Term::Iri(iri))
                        : s->facade->Align(iri);
    const double ms = MillisBetween(start, Clock::now());
    ++stats->requests;
    report->attempted += 1;
    if (!result.ok()) {
      report->failed += 1;
      report->Fail("Align(" + iri + ") failed: " + result.status().ToString());
      continue;
    }
    stats->latency_ms.push_back(ms);
    if (memo.alignments_performed() == before) {
      ++stats->memo_hits;
    } else {
      ++stats->alignments;
      stats->queries += static_cast<double>((*result)->total_queries());
      stats->rows += static_cast<double>((*result)->rows_shipped);
      stats->candidates += static_cast<double>((*result)->verdicts.size());
      if (trace) trace->alignment_ms += ms;
    }
    stats->last.push_back({iri, *result});
  }
}

// What the final-round gate needs, taken before the session is released
// so that the rebuilt world does not share the peak with it.
struct FinalRound {
  uint64_t seed = 0;
  std::vector<Write> log;
  std::vector<std::pair<std::string, uint64_t>> digests;  // Request order.
};

FinalRound TakeFinalRound(const Session& s, const RoundStats& stats) {
  FinalRound f{s.seed, s.log->log(), {}};
  for (const auto& [iri, result] : stats.last) {
    f.digests.push_back({iri, VerdictDigest(*result)});
  }
  return f;
}

// Gate: the final round's verdicts equal a from-scratch alignment on KBs
// rebuilt from the generator plus the same write log.
void CheckFinalRound(const FinalRound& f, Report* report) {
  std::unique_ptr<sofya::SynthWorld> rebuilt = MakeWorld(f.seed);
  for (const Write& w : f.log) Apply(rebuilt.get(), w);
  sofya::Sofya fresh(rebuilt->kb1.get(), rebuilt->kb2.get(), &rebuilt->links,
                     ChurnOptions());
  size_t wrong = 0;
  for (const auto& [iri, digest] : f.digests) {
    auto expected = fresh.Align(iri);
    report->attempted += 1;
    if (!expected.ok() || VerdictDigest(**expected) != digest) ++wrong;
  }
  if (wrong > 0) {
    report->failed += wrong;
    report->Fail(std::to_string(wrong) +
                 " final-round verdicts differ from the rebuilt KBs");
  }
}

std::unique_ptr<Session> TimedOpen(uint64_t seed, std::vector<double>* setup_s) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Session> s = Open(seed);
  setup_s->push_back(SecondsBetween(start, Clock::now()));
  return s;
}

Report RunTraced(const RunConfig& config);

}  // namespace

Report RunChurnOnTheFly(const RunConfig& config) {
  if (config.trace) return RunTraced(config);
  Report report;
  std::vector<double> setup_s, latency, throughput;
  for (int k = 0; k < kWorlds; ++k) {
    std::unique_ptr<Session> s =
        TimedOpen(WorldSeed(config.seed, k), &setup_s);
    const sofya::ZipfSampler zipf(s->hot.size(), kZipfExponent);
    RoundStats stats;
    size_t round = 0;
    const Clock::time_point start = Clock::now();
    for (; round < 3 || SecondsBetween(start, Clock::now()) <
                            config.seconds / kWorlds;
         ++round) {
      Round(s.get(), zipf, round, nullptr, &stats, &report);
    }
    throughput.push_back(static_cast<double>(stats.requests) /
                         SecondsBetween(start, Clock::now()));
    latency.insert(latency.end(), stats.latency_ms.begin(),
                   stats.latency_ms.end());
    std::fprintf(stderr,
                 "perfbench: churn_onthefly world %d: %zu rounds, %zu "
                 "requests, %zu writes, %llu memo hits\n",
                 k, round, stats.requests, s->log->log().size(),
                 static_cast<unsigned long long>(stats.memo_hits));
    const FinalRound final_round = TakeFinalRound(*s, stats);
    s.reset();
    CheckFinalRound(final_round, &report);
  }
  double mean_throughput = 0.0;
  for (double t : throughput) mean_throughput += t / kWorlds;
  AddEndToEnd(&report, Median(setup_s), Summarize(latency), mean_throughput);
  return report;
}

namespace {

// Traced run, on the run's first world: the first half of the time on the
// facade, the second half on the traced client (same KBs, same write log).
// The final-round gate then checks the traced client's verdicts.
Report RunTraced(const RunConfig& config) {
  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<Session> s = TimedOpen(WorldSeed(config.seed, 0), &setup_s);
  sofya::SynthWorld* world = s->world.get();
  const sofya::ZipfSampler zipf(s->hot.size(), kZipfExponent);
  ChurnTrace trace(world);
  RoundStats plain, traced;
  size_t round = 0;
  const Clock::time_point start = Clock::now();
  for (; round < 6 || SecondsBetween(start, Clock::now()) < config.seconds;
       ++round) {
    const bool tracing =
        SecondsBetween(start, Clock::now()) >= config.seconds / 2;
    Round(s.get(), zipf, round, tracing ? &trace : nullptr,
          tracing ? &traced : &plain, &report);
  }
  CheckFinalRound(TakeFinalRound(*s, traced), &report);

  LayerMetrics layers;
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double requests =
      std::max(1.0, static_cast<double>(traced.requests));
  const double alignments =
      std::max(1.0, static_cast<double>(traced.alignments));
  layers.Set("rdf.write_us", mean(trace.write_us));
  layers.Set("rdf.first_read_after_write_ms", mean(trace.first_read_ms));
  layers.Set("align.discover_ms", mean(trace.discover_ms));
  layers.Set("align.discover_after_write_ms", mean(trace.discover_after_ms));
  layers.Set("align.memo_hit_ratio",
             static_cast<double>(traced.memo_hits) / requests);
  layers.Set("align.queries_per_rel", traced.queries / alignments);
  layers.Set("align.rows_per_rel", traced.rows / alignments);
  layers.Set("align.candidates_per_rel", traced.candidates / alignments);
  std::vector<const sofya::AlignmentResult*> final_results;
  for (const auto& entry : traced.last) final_results.push_back(entry.second);
  layers.Set("align.f1", SubsumptionF1(*world, final_results));

  const TracedClient& client = trace.client;
  const CallStats& top = client.top_stats;
  const CallStats& base = client.base_stats;
  layers.Set("align.endpoint_share",
             trace.alignment_ms > 0
                 ? top.busy_us() / 1000.0 / trace.alignment_ms
                 : 0.0);
  layers.Set("sparql.eval_ms", base.busy_us() / 1000.0 / requests);
  double probes = 0, replans = 0, scanned = 0, shipped = 0;
  for (const sofya::LocalEndpoint* local :
       {&client.candidate_local, &client.reference_local}) {
    const sofya::EndpointStats st = local->stats();
    probes += static_cast<double>(st.index_probes);
    replans += static_cast<double>(st.replans);
    scanned += static_cast<double>(st.triples_scanned);
    shipped += static_cast<double>(st.rows_returned);
  }
  layers.Set("sparql.scanned_per_row", shipped > 0 ? scanned / shipped : 0.0);
  layers.Set("sparql.index_probes", probes / requests);
  layers.Set("sparql.replans", replans / requests);
  layers.Set("endpoint.requests", static_cast<double>(top.slots()) / alignments);
  uint64_t hits = 0, lookups = 0;
  for (const sofya::CachingEndpoint* cache :
       {&client.candidate_cache, &client.reference_cache}) {
    hits += cache->hits();
    lookups += cache->hits() + cache->misses();
  }
  layers.Set("endpoint.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(hits) /
                               static_cast<double>(lookups)
                         : 0.0);
  layers.Set("endpoint.base_queries",
             static_cast<double>(base.slots()) / alignments);
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
  const std::vector<std::string> sample(
      s->hot.begin(), s->hot.begin() + std::min<size_t>(16, s->hot.size()));
  MeasureDirectLayers(*world, world->kb2.get(),
                      ReferenceProbes(world, sample, 1, ChurnOptions().aligner),
                      &layers);
  layers.Set("trace.overhead_ms", Summarize(traced.latency_ms).p50 -
                                      Summarize(plain.latency_ms).p50);
  layers.Set("trace.spans", static_cast<double>(trace.spans.size()));
  if (!config.spans_path.empty() && !trace.spans.WriteTsv(config.spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 config.spans_path.c_str());
  }
  layers.AppendTo(&report);
  return report;
}

}  // namespace

}  // namespace perfbench
