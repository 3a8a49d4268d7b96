// serve_open: open-loop SPARQL 1.1 Protocol traffic over real loopback
// sockets against an in-process SparqlServer behind HttpServer, serving
// kb2 of the seed's world. The client is the library's HttpSparqlEndpoint.
// Server workers plus sender threads equal the CPU count; the client pool
// has one connection per sender.
//
// The mix is the distinct reference-side probe stream an alignment of the
// same world issues (small SELECT samples and ASK probes) plus a seeded
// minority of heavy queries: full-relation scans and two-clause subject
// joins of 2000 rows. The heavy share is set so that p99 lies inside the
// heavy requests, not on the boundary between light and heavy.
//
// Each run deploys kWorlds worlds in turn. On each, latency is timed from
// each request's due time at a fixed reference rate; then the saturation
// throughput is measured and a ladder of rates at fixed fractions of it
// finds the highest rate whose p99 meets a fixed limit with no growing
// backlog (max_qps). Every response is checked against the in-process
// LocalEndpoint answer computed in set-up.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "open_loop.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kReferenceRate = 1000.0;   // req/s for the latency metrics.
constexpr double kLatencyLimitMs = 100.0;   // p99 limit for max_qps.
constexpr double kHeavyShare = 0.04;
constexpr size_t kHeavyPerShape = 16;
constexpr uint64_t kHeavyLimit = 2000;     // Rows per heavy join.
constexpr size_t kMixLength = 1 << 16;
constexpr size_t kLightPool = 4096;         // Probes sampled from the stream.
constexpr int kChunks = 5;                 // Per world.
constexpr double kMinChunkSeconds = 0.3;   // Floor for short --seconds.
constexpr double kCapacityShare = 0.35;    // Of each chunk.
constexpr double kRungs[] = {0.8, 0.65, 0.5, 0.35};
constexpr int kSubSteps = 3;
constexpr double kStepSeconds = 0.4;
constexpr double kDrainSeconds = 0.25;
constexpr double kMaxScore = 100.0;

// Sender threads; the server gets the other CPUs as workers.
size_t Senders(size_t threads) { return std::max<size_t>(1, threads / 2); }

// One request of the mix, in the client's id space, with its answer.
struct Request {
  sofya::SelectQuery query;
  bool ask = false;
  bool heavy = false;
  bool expected_bool = false;
  std::vector<std::vector<sofya::TermId>> expected_rows;
};

// Everything set-up builds; destroyed before the next set-up so peak memory
// is one copy.
struct Deployment {
  std::unique_ptr<sofya::SynthWorld> world;
  std::unique_ptr<sofya::SparqlServer> server;
  std::unique_ptr<sofya::HttpServer> http;
  std::unique_ptr<sofya::HttpSparqlEndpoint> client;
  std::vector<Request> pool;       // Light first, then heavy.
  std::vector<uint32_t> mix;       // Request i -> pool index.
  std::vector<ProbeRecorder::Probe> kb_probes;  // Pool in kb2 ids.

  // Traced-run instruments (handler wrapper reads them when enabled).
  std::atomic<bool> tracing{false};
  std::mutex trace_mu;
  std::vector<double> handle_us;       // Guarded by trace_mu.
  std::vector<double> response_bytes;  // Guarded by trace_mu.
  SpanRecorder* spans = nullptr;
  uint32_t handle_span = 0;

  ~Deployment() {
    if (http) http->Stop();
  }
};

std::vector<ProbeRecorder::Probe> HeavyQueries(sofya::KnowledgeBase* kb) {
  // Relations by size, largest first (ties by IRI for determinism).
  std::vector<std::pair<size_t, std::string>> sized;
  for (sofya::TermId p : kb->Relations()) {
    const sofya::Term& term = kb->dict().Decode(p);
    if (!term.is_iri()) continue;
    sized.push_back({kb->store().CountMatches(
                         sofya::TriplePattern(sofya::kNullTermId, p,
                                              sofya::kNullTermId)),
                     term.lexical()});
  }
  std::sort(sized.begin(), sized.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  sized.resize(std::min<size_t>(sized.size(), 4 * kHeavyPerShape));

  // Full scans of the largest relations, and subject joins that fetch every
  // fact about a large relation's subjects, kept when they fill their LIMIT
  // so that all joins cost the same.
  sofya::LocalEndpoint local(kb);
  std::vector<std::string> texts;
  for (size_t k = 0; k < kHeavyPerShape && k < sized.size(); ++k) {
    texts.push_back("SELECT ?s ?o WHERE { ?s <" + sized[k].second + "> ?o }");
  }
  size_t joins = 0;
  for (size_t k = 0; k < sized.size() && joins < kHeavyPerShape; ++k) {
    const std::string& p = sized[k].second;
    const std::string text = "SELECT ?s ?p ?o WHERE { ?s <" + p +
                             "> ?x . ?s ?p ?o } LIMIT " +
                             std::to_string(kHeavyLimit);
    auto q = sofya::ParseSelectQuery(text, &kb->dict());
    if (!q.ok()) continue;
    auto rows = local.Select(*q);
    if (!rows.ok() || rows->size() < kHeavyLimit) continue;
    texts.push_back(text);
    ++joins;
  }
  std::vector<ProbeRecorder::Probe> out;
  for (const std::string& text : texts) {
    auto q = sofya::ParseSelectQuery(text, &kb->dict());
    if (q.ok()) out.push_back({*std::move(q), false});
  }
  return out;
}

std::unique_ptr<Deployment> Deploy(uint64_t seed, size_t threads,
                                   bool traced) {
  auto d = std::make_unique<Deployment>();
  d->world = MakeWorld(seed);
  sofya::SynthWorld& world = *d->world;
  sofya::KnowledgeBase* kb = world.kb2.get();
  sofya::Rng rng(seed ^ 0x5e7e0be7ull);

  // Light pool: a seeded sample of what an alignment of the whole schema
  // asks kb2.
  d->kb_probes = ReferenceProbes(&world, SchemaRelations(world), threads);
  sofya::Shuffle(rng, d->kb_probes);
  d->kb_probes.resize(std::min(d->kb_probes.size(), kLightPool));
  const size_t light = d->kb_probes.size();
  for (auto& probe : HeavyQueries(kb)) {
    d->kb_probes.push_back(std::move(probe));
  }

  // Server and client.
  sofya::SparqlServerOptions server_options;
  d->server = std::make_unique<sofya::SparqlServer>(kb, server_options);
  sofya::HttpServer::Handler handler = d->server->HttpHandler();
  if (traced) {
    Deployment* raw = d.get();
    handler = [raw, inner = std::move(handler)](
                  const sofya::HttpRequest& request,
                  const sofya::HttpServerClient& client) {
      // Acquire: `spans` and `handle_span` are set before tracing is on.
      if (!raw->tracing.load(std::memory_order_acquire)) {
        return inner(request, client);
      }
      SpanRecorder::Scope scope(raw->spans, raw->handle_span);
      const Clock::time_point start = Clock::now();
      sofya::HttpResponse response = inner(request, client);
      const double us = MicrosBetween(start, Clock::now());
      std::lock_guard<std::mutex> lock(raw->trace_mu);
      raw->handle_us.push_back(us);
      raw->response_bytes.push_back(static_cast<double>(response.body.size()));
      return response;
    };
  }
  const size_t senders = Senders(threads);
  sofya::HttpServerOptions http_options;
  http_options.worker_threads = std::max<size_t>(1, threads - senders);
  d->http = std::make_unique<sofya::HttpServer>(std::move(handler),
                                                http_options);
  if (sofya::Status s = d->http->Start(); !s.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  sofya::HttpSparqlEndpointOptions client_options;
  client_options.name = "kb2-remote";
  client_options.base_iri = kb->base_iri();
  client_options.max_connections = senders;
  auto client = sofya::HttpSparqlEndpoint::Create(
      "http://127.0.0.1:" + std::to_string(d->http->port()) + "/sparql",
      client_options);
  if (!client.ok()) {
    std::fprintf(stderr, "perfbench: client failed: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  d->client = std::move(client).value();

  // Re-express each probe in the client's id space, with its local answer.
  sofya::LocalEndpoint local(kb);
  const sofya::TermInterner client_intern = [&d](const sofya::Term& t) {
    return d->client->EncodeTerm(t);
  };
  for (size_t i = 0; i < d->kb_probes.size(); ++i) {
    const ProbeRecorder::Probe& probe = d->kb_probes[i];
    Request request;
    request.ask = probe.ask;
    request.heavy = i >= light;
    auto parsed = sofya::ParseSelectQuery(probe.query.ToSparql(kb->dict()),
                                          client_intern);
    if (!parsed.ok()) {
      std::fprintf(stderr, "perfbench: probe does not re-parse: %s\n",
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    request.query = *std::move(parsed);
    if (probe.ask) {
      auto answer = local.Ask(probe.query);
      if (!answer.ok()) std::exit(1);
      request.expected_bool = *answer;
    } else {
      auto answer = local.Select(probe.query);
      if (!answer.ok()) std::exit(1);
      for (const auto& row : answer->rows) {
        std::vector<sofya::TermId> mapped;
        for (sofya::TermId id : row) {
          mapped.push_back(id == sofya::kNullTermId
                               ? sofya::kNullTermId
                               : d->client->EncodeTerm(kb->dict().Decode(id)));
        }
        request.expected_rows.push_back(std::move(mapped));
      }
    }
    d->pool.push_back(std::move(request));
  }

  // The request sequence: heavy with probability kHeavyShare.
  const size_t heavy = d->pool.size() - light;
  d->mix.reserve(kMixLength);
  for (size_t i = 0; i < kMixLength; ++i) {
    const bool pick_heavy = heavy > 0 && rng.Bernoulli(kHeavyShare);
    d->mix.push_back(static_cast<uint32_t>(
        pick_heavy ? light + rng.Below(heavy) : rng.Below(light)));
  }
  return d;
}

// Sends request `i` of the mix; true when the answer is the expected one.
bool Send(Deployment* d, sofya::Endpoint* endpoint, size_t i) {
  const Request& r = d->pool[d->mix[i % d->mix.size()]];
  if (r.ask) {
    auto answer = endpoint->Ask(r.query);
    return answer.ok() && *answer == r.expected_bool;
  }
  auto answer = endpoint->Select(r.query);
  return answer.ok() && answer->rows == r.expected_rows;
}

// One closed-loop sweep over the pool: warms the server and checks every
// distinct request once.
size_t WarmUp(Deployment* d) {
  size_t wrong = 0;
  for (const Request& r : d->pool) {
    if (r.ask) {
      auto answer = d->client->Ask(r.query);
      wrong += !(answer.ok() && *answer == r.expected_bool);
    } else {
      auto answer = d->client->Select(r.query);
      wrong += !(answer.ok() && answer->rows == r.expected_rows);
    }
  }
  return wrong;
}

// How far a step is from the limits, 1 being at the limit: the larger of
// p99 over the latency limit and the end-of-step backlog over the limit's
// worth of requests (a longer queue is growing). Failed or never-sent
// requests miss the limit.
double StepScore(const OpenLoopStep& step) {
  if (step.failed > 0 || step.abandoned > 0) return kMaxScore;
  const double p99 = Summarize(step.LatenciesWithMisses()).tail;
  const double backlog_limit =
      std::max(4.0, step.rate * kLatencyLimitMs / 1000.0);
  return std::min(kMaxScore,
                  std::max(p99 / kLatencyLimitMs,
                           static_cast<double>(step.backlog) / backlog_limit));
}

// Drives one deployment; every request it sends is counted in `report`,
// and every wrong or failed answer as failed. Requests a step abandons
// unsent are counted by the caller: a miss at the reference rate, but the
// expected end of an overloaded ladder rung.
class LoadGenerator {
 public:
  LoadGenerator(Deployment* d, size_t senders, Report* report)
      : d_(d), senders_(senders), report_(report) {}

  // One open-loop step of the mix at `rate`.
  OpenLoopStep Step(sofya::Endpoint* endpoint, double rate, double seconds) {
    const size_t base = next_;
    OpenLoopStep step = RunOpenLoop(
        rate, seconds, senders_, kDrainSeconds,
        [&](size_t i) { return Send(d_, endpoint, base + i); });
    next_ += step.due;
    Account(step.completed, step.failed);
    return step;
  }

  // A reference-rate step: requests left unsent count as failed too.
  OpenLoopStep ReferenceStep(sofya::Endpoint* endpoint, double seconds) {
    OpenLoopStep step = Step(endpoint, kReferenceRate, seconds);
    report_->attempted += step.abandoned;
    report_->failed += step.abandoned;
    return step;
  }

  // Wrong or failed answers so far (unsent requests excluded).
  size_t wrong() const { return wrong_; }

  // Saturation throughput: every sender sends back to back for `seconds`;
  // completions per second.
  double Capacity(double seconds) {
    std::atomic<size_t> next{next_}, completed{0}, failed{0};
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < senders_; ++t) {
      threads.emplace_back([&] {
        while (Clock::now() < end) {
          const bool ok = Send(d_, d_->client.get(), next.fetch_add(1));
          completed.fetch_add(1);
          if (!ok) failed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = SecondsBetween(start, Clock::now());
    next_ = next.load();
    Account(completed.load(), failed.load());
    return static_cast<double>(completed.load()) / elapsed;
  }

  // The capacity-relative ladder: rungs at kRungs x `capacity`, highest
  // first, each decided by the median score of kSubSteps steps (one stall
  // does not fail a rung). Returns the achieved rate of the highest rung
  // that meets the limits (0 when none does); `fail_backlog` receives the
  // median end-of-step backlog of the first rung that failed.
  double MaxRate(double capacity, size_t* fail_backlog) {
    for (double fraction : kRungs) {
      const double rate = fraction * capacity;
      std::vector<double> scores, achieved, backlogs;
      for (int k = 0; k < kSubSteps; ++k) {
        const OpenLoopStep step = Step(d_->client.get(), rate, kStepSeconds);
        scores.push_back(StepScore(step));
        achieved.push_back(step.achieved_rate);
        backlogs.push_back(static_cast<double>(step.backlog));
      }
      const double score = Median(scores);
      std::fprintf(stderr,
                   "perfbench: rung %.2f x %.0f = %.0f req/s: score %.3f\n",
                   fraction, capacity, rate, score);
      if (score <= 1.0) return Median(achieved);
      if (*fail_backlog == 0) {
        *fail_backlog = static_cast<size_t>(Median(backlogs));
      }
    }
    return 0.0;
  }

 private:
  void Account(size_t sent, size_t wrong) {
    report_->attempted += sent;
    report_->failed += wrong;
    wrong_ += wrong;
  }

  Deployment* d_;
  size_t senders_;
  Report* report_;
  size_t next_ = 0;  // Index of the next request of the mix.
  size_t wrong_ = 0;
};

std::unique_ptr<Deployment> SetUp(uint64_t seed, size_t threads, bool traced,
                                  Report* report, double* seconds) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Deployment> d = Deploy(seed, threads, traced);
  const size_t wrong = WarmUp(d.get());
  *seconds = SecondsBetween(start, Clock::now());
  report->attempted += d->pool.size();
  report->failed += wrong;
  if (wrong > 0) report->Fail(std::to_string(wrong) + " warm-up answers differ");
  size_t light = 0;
  for (const Request& r : d->pool) light += !r.heavy;
  std::fprintf(stderr,
               "perfbench: serve_open pool %zu light + %zu heavy requests\n",
               light, d->pool.size() - light);
  return d;
}

}  // namespace

Report RunServeOpen(const RunConfig& config) {
  Report report;
  const size_t senders = Senders(config.threads);

  if (!config.trace) {
    // Each world: reference-rate steps interleaved with saturation windows
    // (so a slow spell of the machine does not land on one of them only),
    // then the capacity-relative ladder at the median capacity.
    const double chunk = std::max(
        kMinChunkSeconds,
        (config.seconds / kWorlds - kSubSteps * kStepSeconds) / kChunks);
    // Latency is summarized per reference-rate window (over a thousand
    // requests each, so each has a true p99) and the run reports the median
    // window: a machine stall that hits one window does not set the tail.
    std::vector<double> setup_s, p50, p99, percentile, max_qps;
    size_t samples = 0, wrong = 0;
    for (int w = 0; w < kWorlds; ++w) {
      double seconds = 0.0;
      std::unique_ptr<Deployment> d = SetUp(WorldSeed(config.seed, w),
                                            config.threads, false, &report,
                                            &seconds);
      setup_s.push_back(seconds);
      LoadGenerator load(d.get(), senders, &report);
      std::vector<double> capacity;
      for (int c = 0; c < kChunks; ++c) {
        const OpenLoopStep step = load.ReferenceStep(
            d->client.get(), (1.0 - kCapacityShare) * chunk);
        const TailSummary window = Summarize(step.LatenciesWithMisses());
        samples += window.count;
        p50.push_back(window.p50);
        p99.push_back(window.tail);
        percentile.push_back(window.tail_percentile);
        capacity.push_back(load.Capacity(kCapacityShare * chunk));
      }
      size_t fail_backlog = 0;
      max_qps.push_back(load.MaxRate(Median(capacity), &fail_backlog));
      wrong += load.wrong();
    }
    if (wrong > 0) {
      report.Fail(std::to_string(wrong) + " answers failed or were wrong");
    }
    double mean_qps = 0.0;
    for (double q : max_qps) mean_qps += q / static_cast<double>(kWorlds);
    TailSummary latency;
    latency.count = samples;
    latency.p50 = Median(p50);
    latency.tail = Median(p99);
    latency.tail_percentile = Median(percentile);
    std::fprintf(stderr,
                 "perfbench: serve_open latency is the median of %zu "
                 "reference-rate windows\n",
                 p99.size());
    AddEndToEnd(&report, Median(setup_s), latency, mean_qps);
    return report;
  }

  // Traced run, on the first world: the reference step untraced, then
  // traced, then capacity and ladder traced (for backlog and shedding).
  double setup_seconds = 0.0;
  std::unique_ptr<Deployment> d = SetUp(WorldSeed(config.seed, 0),
                                        config.threads, true, &report,
                                        &setup_seconds);
  LoadGenerator load(d.get(), senders, &report);
  SpanRecorder spans(1u << 20);
  d->spans = &spans;
  d->handle_span = spans.Intern("server.handle");
  CallStats client_stats;
  TimingEndpoint timed_client(d->client.get(), &client_stats, &spans,
                              "endpoint.client");
  const OpenLoopStep plain =
      load.ReferenceStep(d->client.get(), 0.3 * config.seconds);
  const sofya::EndpointStats engine_before = d->server->local().stats();
  d->tracing.store(true);
  const OpenLoopStep traced =
      load.ReferenceStep(&timed_client, 0.3 * config.seconds);
  const sofya::EndpointStats engine_after = d->server->local().stats();
  std::vector<double> handle_us, response_bytes;
  {
    std::lock_guard<std::mutex> lock(d->trace_mu);
    handle_us = d->handle_us;
    response_bytes = d->response_bytes;
  }
  size_t fail_backlog = 0;
  load.MaxRate(load.Capacity(kCapacityShare * config.seconds / kWorlds),
               &fail_backlog);
  d->tracing.store(false);
  if (load.wrong() > 0) {
    report.Fail(std::to_string(load.wrong()) + " answers failed or were wrong");
  }

  LayerMetrics layers;
  const double requests = static_cast<double>(traced.completed);
  layers.SetPercentiles("server.handle_us", handle_us);
  layers.SetPercentiles("net.response_bytes", response_bytes);
  double client_us = 0.0;
  for (size_t k = 0; k < kNumCallKinds; ++k) {
    const CallKind kind = static_cast<CallKind>(k);
    const std::vector<double> durations = client_stats.Durations(kind);
    for (double us : durations) client_us += us;
    layers.SetPercentiles(std::string("endpoint.call_us.") +
                              CallKindName(kind),
                          durations);
  }
  double handle_total = 0.0;
  for (double us : handle_us) handle_total += us;
  layers.Set("net.overhead_us",
             requests > 0 ? (client_us - handle_total) / requests : 0.0);
  layers.Set("server.shed", static_cast<double>(d->server->shed_concurrency() +
                                                d->server->shed_quota()));
  layers.Set("server.backlog", static_cast<double>(fail_backlog));
  layers.Set("net.connections",
             static_cast<double>(d->http->connections_accepted()));
  layers.Set("gen.late_ms.p99", Summarize(traced.late_ms).tail);
  layers.Set("endpoint.requests",
             static_cast<double>(client_stats.slots()) / requests);

  const double engine_queries =
      static_cast<double>(engine_after.queries - engine_before.queries);
  const double scanned = static_cast<double>(engine_after.triples_scanned -
                                             engine_before.triples_scanned);
  const double shipped = static_cast<double>(engine_after.rows_returned -
                                             engine_before.rows_returned);
  layers.Set("sparql.scanned_per_row", shipped > 0 ? scanned / shipped : 0.0);
  layers.Set("sparql.index_probes",
             static_cast<double>(engine_after.index_probes -
                                 engine_before.index_probes) /
                 std::max(1.0, engine_queries));
  layers.Set("sparql.replans",
             static_cast<double>(engine_after.replans - engine_before.replans) /
                 std::max(1.0, engine_queries));

  // Engine self time per request: the mix replayed in-process through a
  // timing decorator at the base.
  {
    CallStats base;
    sofya::LocalEndpoint local(d->world->kb2.get());
    TimingEndpoint timed(&local, &base, nullptr, "sparql.kb2");
    const size_t n = 512;
    for (size_t i = 0; i < n; ++i) {
      const ProbeRecorder::Probe& probe = d->kb_probes[d->mix[i]];
      if (probe.ask) {
        (void)timed.Ask(probe.query);
      } else {
        (void)timed.Select(probe.query);
      }
    }
    layers.Set("sparql.eval_ms", base.busy_us() / 1000.0 / n);
  }
  std::vector<ProbeRecorder::Probe> sample;
  for (size_t i = 0; i < 512; ++i) sample.push_back(d->kb_probes[d->mix[i]]);
  MeasureDirectLayers(*d->world, d->world->kb2.get(), sample, &layers);
  layers.Set("trace.overhead_ms",
             Summarize(traced.LatenciesWithMisses()).p50 -
                 Summarize(plain.LatenciesWithMisses()).p50);
  layers.Set("trace.spans", static_cast<double>(spans.size()));
  if (!config.spans_path.empty() && !spans.WriteTsv(config.spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 config.spans_path.c_str());
  }
  d->spans = nullptr;
  layers.AppendTo(&report);
  return report;
}

}  // namespace perfbench
