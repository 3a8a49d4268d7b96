#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "workloads.h"

namespace perfbench {

void AddEndToEnd(Report* report, double setup_s, const TailSummary& latency,
                 double throughput) {
  report->Add(kSetupS, setup_s, "s");
  report->Add(kPeakRss, PeakRssMiB(), "MiB");
  report->Add(kLatencyP50, latency.p50, "ms");
  report->Add(kLatencyP99, latency.tail, "ms");
  report->Add(kThroughput, throughput, "1/s");
  std::fprintf(stderr,
               "perfbench: latency over %zu samples: p50 %.4f ms, "
               "p%.2f %.4f ms (reported as %s)\n",
               latency.count, latency.p50, latency.tail_percentile,
               latency.tail, kLatencyP99);
}

uint64_t WorldSeed(uint64_t run_seed, int k) {
  sofya::SplitMix64 mix(run_seed * kWorlds + static_cast<uint64_t>(k));
  return mix.Next();
}

namespace {

// Name and unit of every per-layer metric, in report order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"rdf.load_ms", "ms"},
    {"rdf.write_us", "us"},
    {"rdf.first_read_after_write_ms", "ms"},
    {"sparql.eval_ms", "ms"},
    {"sparql.scanned_per_row", "ratio"},
    {"sparql.index_probes", "count"},
    {"sparql.replans", "count"},
    {"sparql.parse_us", "us"},
    {"sparql.json_write_us", "us"},
    {"sparql.json_read_us", "us"},
    {"endpoint.requests", "count"},
    {"endpoint.cache_hit_ratio", "ratio"},
    {"endpoint.base_queries", "count"},
    {"endpoint.base_queries_spread", "count"},
    {"endpoint.batch_width", "count"},
    {"endpoint.call_us.select.p50", "us"},
    {"endpoint.call_us.select.p99", "us"},
    {"endpoint.call_us.select_many.p50", "us"},
    {"endpoint.call_us.select_many.p99", "us"},
    {"endpoint.call_us.ask.p50", "us"},
    {"endpoint.call_us.ask.p99", "us"},
    {"endpoint.call_us.ask_many.p50", "us"},
    {"endpoint.call_us.ask_many.p99", "us"},
    {"align.subtasks", "count"},
    {"align.endpoint_share", "ratio"},
    {"align.candidates_per_rel", "count"},
    {"align.discover_ms", "ms"},
    {"align.discover_after_write_ms", "ms"},
    {"align.memo_hit_ratio", "ratio"},
    {"align.queries_per_rel", "count"},
    {"align.rows_per_rel", "count"},
    {"align.f1", "ratio"},
    {"server.handle_us.p50", "us"},
    {"server.handle_us.p99", "us"},
    {"server.shed", "count"},
    {"server.backlog", "count"},
    {"net.overhead_us", "us"},
    {"net.connections", "count"},
    {"net.response_bytes.p50", "bytes"},
    {"net.response_bytes.p99", "bytes"},
    {"gen.late_ms.p99", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics_.push_back({name, 0.0, unit});
  }
}

void LayerMetrics::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: undeclared layer metric %s\n",
               name.c_str());
  std::abort();
}

void LayerMetrics::SetPercentiles(const std::string& prefix,
                                  std::vector<double> sample) {
  const TailSummary summary = Summarize(std::move(sample));
  Set(prefix + ".p50", summary.p50);
  Set(prefix + ".p99", summary.tail);
}

void LayerMetrics::AppendTo(Report* report) const {
  for (const Metric& m : metrics_) report->metrics.push_back(m);
}

std::unique_ptr<sofya::SynthWorld> MakeWorld(uint64_t seed) {
  auto world = sofya::GenerateWorld(sofya::YagoDbpediaSpec(seed, 1.0));
  if (!world.ok()) {
    std::fprintf(stderr, "perfbench: world generation failed: %s\n",
                 world.status().ToString().c_str());
    std::exit(1);
  }
  auto out = std::make_unique<sofya::SynthWorld>(std::move(world).value());
  out->kb1->store().EnsureIndexed();
  out->kb2->store().EnsureIndexed();
  return out;
}

std::vector<std::string> SchemaRelations(const sofya::SynthWorld& world) {
  std::vector<std::string> iris;
  const sofya::KnowledgeBase& kb = *world.kb2;
  for (sofya::TermId p : kb.Relations()) {
    const sofya::Term& term = kb.dict().Decode(p);
    if (term.is_iri()) iris.push_back(term.lexical());
  }
  std::sort(iris.begin(), iris.end());
  return iris;
}

double SubsumptionF1(
    const sofya::SynthWorld& world,
    const std::vector<const sofya::AlignmentResult*>& results) {
  const std::string candidate_tag = world.spec.kb1_name;
  const std::string reference_tag = world.spec.kb2_name;
  std::set<std::pair<std::string, std::string>> accepted;
  std::set<std::string> heads;
  for (const sofya::AlignmentResult* result : results) {
    heads.insert(result->reference_relation.lexical());
    for (const sofya::CandidateVerdict& v : result->verdicts) {
      if (v.accepted) {
        accepted.insert(
            {v.relation.lexical(), result->reference_relation.lexical()});
      }
    }
  }
  sofya::PrecisionRecall pr;
  for (const auto& [body, head] : accepted) {
    if (world.truth.Subsumes(body, head)) {
      ++pr.true_positives;
    } else {
      ++pr.false_positives;
    }
  }
  for (const auto& [body, head] :
       world.truth.AllSubsumptions(candidate_tag, reference_tag)) {
    if (heads.count(head) && !accepted.count({body, head})) {
      ++pr.false_negatives;
    }
  }
  return pr.f1();
}

void ProbeRecorder::Note(const sofya::SelectQuery& query, bool ask) {
  std::string key = query.Fingerprint() + (ask ? "#ask" : "#select");
  std::lock_guard<std::mutex> lock(mu_);
  if (!seen_.insert(key).second) return;
  probes_.push_back({std::move(key), Probe{query, ask}});
}

std::vector<ProbeRecorder::Probe> ProbeRecorder::Sorted() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::pair<std::string, Probe>*> order;
  for (const auto& entry : probes_) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::vector<Probe> out;
  out.reserve(order.size());
  for (const auto* entry : order) out.push_back(entry->second);
  return out;
}

std::vector<ProbeRecorder::Probe> ReferenceProbes(
    sofya::SynthWorld* world, const std::vector<std::string>& relations,
    size_t threads, const sofya::AlignerOptions& options) {
  std::vector<sofya::Term> terms;
  for (const std::string& iri : relations) {
    terms.push_back(sofya::Term::Iri(iri));
  }
  sofya::LocalEndpoint candidate(world->kb1.get());
  sofya::LocalEndpoint reference(world->kb2.get());
  ProbeRecorder recorder(&reference);
  sofya::RelationAligner aligner(&candidate, &recorder, &world->links,
                                 options);
  if (auto fleet = aligner.AlignMany(terms, threads); !fleet.ok()) {
    std::fprintf(stderr, "perfbench: probe alignment failed: %s\n",
                 fleet.status().ToString().c_str());
    std::exit(1);
  }
  return recorder.Sorted();
}

void MeasureDirectLayers(const sofya::SynthWorld& world,
                         sofya::KnowledgeBase* kb,
                         const std::vector<ProbeRecorder::Probe>& sample,
                         LayerMetrics* layers) {
  // rdf: bulk re-load of both KBs into fresh stores, then the index sort.
  double load_ms = 0.0;
  for (const sofya::KnowledgeBase* source : {world.kb1.get(),
                                             world.kb2.get()}) {
    const std::vector<sofya::Triple> triples =
        source->store().Match(sofya::TriplePattern());
    const Clock::time_point start = Clock::now();
    sofya::TripleStore fresh;
    fresh.BeginBulkLoad(triples.size());
    for (const sofya::Triple& t : triples) fresh.Insert(t);
    fresh.EndBulkLoad();
    fresh.EnsureIndexed();
    load_ms += MillisBetween(start, Clock::now());
  }
  layers->Set("rdf.load_ms", load_ms);

  // sparql: parser and results JSON writer/reader, per query.
  if (sample.empty()) return;
  sofya::LocalEndpoint local(kb);
  const sofya::Dictionary& dict = kb->dict();
  const sofya::TermInterner lookup = [&dict](const sofya::Term& t) {
    return dict.Lookup(t);
  };
  const sofya::TermDecoder decode = [&dict](sofya::TermId id) {
    return dict.TryDecode(id);
  };
  double parse_us = 0.0, write_us = 0.0, read_us = 0.0;
  for (const ProbeRecorder::Probe& probe : sample) {
    const std::string text = probe.query.ToSparql(dict);
    Clock::time_point start = Clock::now();
    auto parsed = sofya::ParseSelectQuery(text, lookup);
    parse_us += MicrosBetween(start, Clock::now());
    if (!parsed.ok()) continue;
    auto rows = local.Select(*parsed);
    if (!rows.ok()) continue;
    start = Clock::now();
    auto json = sofya::WriteSparqlResultsJson(*rows, decode);
    write_us += MicrosBetween(start, Clock::now());
    if (!json.ok()) continue;
    start = Clock::now();
    auto back = sofya::ParseSparqlResultsJson(*json, lookup);
    read_us += MicrosBetween(start, Clock::now());
  }
  const double n = static_cast<double>(sample.size());
  layers->Set("sparql.parse_us", parse_us / n);
  layers->Set("sparql.json_write_us", write_us / n);
  layers->Set("sparql.json_read_us", read_us / n);
}

double MeasureDiscoverMs(sofya::SynthWorld* world,
                         const std::vector<std::string>& relations) {
  if (relations.empty()) return 0.0;
  sofya::LocalEndpoint candidate(world->kb1.get());
  sofya::LocalEndpoint reference(world->kb2.get());
  sofya::CrossKbTranslator to_candidate(&world->links,
                                        candidate.base_iri());
  const sofya::CandidateFinderOptions options;
  sofya::SameAsOverlapSource source(&candidate, &reference, &to_candidate,
                                    options);
  const Clock::time_point start = Clock::now();
  for (const std::string& iri : relations) {
    (void)source.Discover(sofya::Term::Iri(iri));
  }
  return MillisBetween(start, Clock::now()) /
         static_cast<double>(relations.size());
}

}  // namespace perfbench
