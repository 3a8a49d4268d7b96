// The three workloads and the helpers they share. Each workload generates
// its inputs from the run seed, measures for the configured time, checks
// its outputs, and returns either its end-to-end metrics (untraced run) or
// its per-layer metrics (traced run).

#ifndef SOFYA_PERFBENCH_WORKLOADS_H_
#define SOFYA_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/sofya.h"

namespace perfbench {

Report RunSchemaLocal(const RunConfig& config);
Report RunServeOpen(const RunConfig& config);
Report RunChurnOnTheFly(const RunConfig& config);

/// The end-to-end metric names every workload reports (same names and
/// units on all workloads).
inline constexpr const char* kSetupS = "setup_s";
inline constexpr const char* kPeakRss = "peak_rss_mb";
inline constexpr const char* kLatencyP50 = "latency_p50_ms";
inline constexpr const char* kLatencyP99 = "latency_p99_ms";
inline constexpr const char* kThroughput = "throughput_ops_s";

/// Worlds per run. A run sets up and measures this many worlds in turn,
/// each seeded from the run seed, so that its figures do not hinge on one
/// world; set-up time is the median over them.
inline constexpr int kWorlds = 3;

/// Seed of world `k` of the run seeded `run_seed`.
uint64_t WorldSeed(uint64_t run_seed, int k);

/// Adds the five end-to-end metrics in their fixed order.
void AddEndToEnd(Report* report, double setup_s, const TailSummary& latency,
                 double throughput);

/// Per-layer metrics of a traced run. Every name exists in every
/// workload's output (0 where the layer is idle on that workload), so a
/// traced run always reports the full set.
class LayerMetrics {
 public:
  LayerMetrics();
  /// Sets a declared metric; an undeclared name is a benchmark bug and
  /// aborts.
  void Set(const std::string& name, double value);
  /// Sets "<prefix>.p50" and "<prefix>.p99" from a sample of timings.
  void SetPercentiles(const std::string& prefix, std::vector<double> sample);
  void AppendTo(Report* report) const;

 private:
  std::vector<Metric> metrics_;
};

/// Generates the YAGO/DBpedia-shaped world of `seed` at full scale and
/// sorts both stores, as a deployment would before serving.
std::unique_ptr<sofya::SynthWorld> MakeWorld(uint64_t seed);

/// The reference (kb2) relation IRIs in sorted order — the whole schema.
std::vector<std::string> SchemaRelations(const sofya::SynthWorld& world);

/// F1 of the accepted subsumptions r' => r against the generator's truth,
/// over the attempted reference relations.
double SubsumptionF1(const sofya::SynthWorld& world,
                     const std::vector<const sofya::AlignmentResult*>& results);

/// Records the distinct queries (by fingerprint, first occurrence wins)
/// that reach an endpoint, split into SELECT and ASK. Thread-safe.
/// Passes every call through unchanged.
class ProbeRecorder : public sofya::Endpoint {
 public:
  explicit ProbeRecorder(sofya::Endpoint* inner) : inner_(inner) {}

  struct Probe {
    sofya::SelectQuery query;
    bool ask = false;
  };
  /// Recorded probes sorted by fingerprint: the same set in the same order
  /// whatever the thread schedule that issued them.
  std::vector<Probe> Sorted() const;

  const std::string& name() const override { return inner_->name(); }
  const std::string& base_iri() const override { return inner_->base_iri(); }
  sofya::StatusOr<sofya::ResultSet> Select(
      const sofya::SelectQuery& query) override {
    Note(query, false);
    return inner_->Select(query);
  }
  sofya::SelectBatchResult SelectMany(
      std::span<const sofya::SelectQuery> queries) override {
    for (const auto& q : queries) Note(q, false);
    return inner_->SelectMany(queries);
  }
  sofya::StatusOr<bool> Ask(const sofya::SelectQuery& query) override {
    Note(query, true);
    return inner_->Ask(query);
  }
  sofya::AskBatchResult AskMany(
      std::span<const sofya::SelectQuery> queries) override {
    for (const auto& q : queries) Note(q, true);
    return inner_->AskMany(queries);
  }
  sofya::TermId EncodeTerm(const sofya::Term& term) override {
    return inner_->EncodeTerm(term);
  }
  sofya::TermId LookupTerm(const sofya::Term& term) const override {
    return inner_->LookupTerm(term);
  }
  sofya::StatusOr<sofya::Term> DecodeTerm(sofya::TermId id) const override {
    return inner_->DecodeTerm(id);
  }
  uint64_t data_epoch() const override { return inner_->data_epoch(); }
  sofya::EndpointStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  void Note(const sofya::SelectQuery& query, bool ask);

  sofya::Endpoint* inner_;
  mutable std::mutex mu_;
  std::unordered_set<std::string> seen_;                 // Guarded by mu_.
  std::vector<std::pair<std::string, Probe>> probes_;    // Guarded by mu_.
};

/// The distinct queries an alignment of `relations` (kb2 against kb1, at
/// `threads` workers, no client cache) sends to kb2, in fingerprint order.
std::vector<ProbeRecorder::Probe> ReferenceProbes(
    sofya::SynthWorld* world, const std::vector<std::string>& relations,
    size_t threads, const sofya::AlignerOptions& options = {});

/// Direct-call measurements shared by every traced run:
///   rdf.load_ms — re-loading both KBs' triples into fresh TripleStores
///   (bulk insert + index sort);
///   sparql.parse_us / json_write_us / json_read_us — mean per query of the
///   parser, the results writer and the results reader over `sample`,
///   evaluated against `kb`.
void MeasureDirectLayers(const sofya::SynthWorld& world,
                         sofya::KnowledgeBase* kb,
                         const std::vector<ProbeRecorder::Probe>& sample,
                         LayerMetrics* layers);

/// Mean milliseconds of the paper's CandidateSource (SameAsOverlapSource)
/// Discover over cache-less local endpoints, on `relations`.
double MeasureDiscoverMs(sofya::SynthWorld* world,
                         const std::vector<std::string>& relations);

}  // namespace perfbench

#endif  // SOFYA_PERFBENCH_WORKLOADS_H_
