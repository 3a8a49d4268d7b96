#include "bench_util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/string_util.h"

namespace perfbench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

TailSummary Summarize(std::vector<double> samples, double wanted) {
  TailSummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  summary.p50 = NearestRank(samples, 0.5);
  // Rank of the wanted percentile; it needs n - rank >= 10 samples beyond.
  // Never below the median: with under twenty samples the tail is p50.
  const size_t median_rank =
      static_cast<size_t>(std::ceil(0.5 * static_cast<double>(n)));
  size_t rank = static_cast<size_t>(std::ceil(wanted * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) rank = n >= 10 ? std::max(n - 10, median_rank) : median_rank;
  summary.tail = samples[rank - 1];
  summary.tail_percentile = 100.0 * static_cast<double>(rank) /
                            static_cast<double>(n);
  return summary;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 0.5);
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               why.c_str());
}

std::string ReportJson(const Report& report) {
  std::string out = sofya::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    out += sofya::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            i == 0 ? "" : ", ", m.name.c_str(), value,
                            m.unit.c_str());
  }
  out += "}}";
  return out;
}

namespace {

// FNV-1a over a byte string, chained through `h`.
uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

uint64_t VerdictDigest(const sofya::AlignmentResult& result) {
  uint64_t h = Fnv1a(result.reference_relation.lexical(),
                     1469598103934665603ull);
  for (const sofya::CandidateVerdict& v : result.verdicts) {
    h = Fnv1a(sofya::StrFormat("|%s;%.12f;%.12f;%zu;%d;%d;%d",
                               v.relation.lexical().c_str(), v.rule.pca_conf,
                               v.reverse_rule.pca_conf, v.rule.support,
                               static_cast<int>(v.accepted),
                               static_cast<int>(v.ubs_subsumption_pruned),
                               static_cast<int>(v.equivalence)),
              h);
  }
  return h;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

size_t HardwareThreads() {
  // Like nproc: the CPUs this process may run on, not the host's count.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max<unsigned>(1, std::thread::hardware_concurrency());
}

}  // namespace perfbench
