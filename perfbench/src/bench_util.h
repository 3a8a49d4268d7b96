// Shared pieces of the repository benchmark: the percentile rule, the
// metric report every workload fills, verdict digests, and small clock and
// process helpers. Nothing here touches the system under test.

#ifndef SOFYA_PERFBENCH_BENCH_UTIL_H_
#define SOFYA_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "align/relation_aligner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds / milliseconds / microseconds between two steady-clock points.
double SecondsBetween(Clock::time_point a, Clock::time_point b);
double MillisBetween(Clock::time_point a, Clock::time_point b);
double MicrosBetween(Clock::time_point a, Clock::time_point b);

/// The benchmark's percentile rule. A timing is reported as its median and
/// a tail percentile; the tail is the wanted percentile (p99) when at least
/// ten samples lie beyond it, else the highest percentile that still has
/// ten samples beyond it, but never one below the median: with fewer than
/// twenty samples the tail is the median.
struct TailSummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  /// The percentile `tail` actually reports, in (0, 100].
  double tail_percentile = 0.0;
};

/// Nearest-rank percentile of a sorted, non-empty sample (q in (0, 1]).
double NearestRank(const std::vector<double>& sorted, double q);

/// Applies the rule above; `samples` need not be sorted. Empty input gives
/// an all-zero summary.
TailSummary Summarize(std::vector<double> samples, double wanted = 0.99);

/// Median of a sample (nearest rank); 0 for an empty sample.
double Median(std::vector<double> samples);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a gate failure with a human-readable reason on stderr.
  void Fail(const std::string& why);
};

/// Renders the result line the program prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string ReportJson(const Report& report);

/// Digest of one relation's verdicts (candidates in order, confidences,
/// acceptance, pruning, equivalence) — what the correctness gates compare.
uint64_t VerdictDigest(const sofya::AlignmentResult& result);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMiB();

/// Hardware threads, at least 1 — the benchmark's thread/connection budget.
size_t HardwareThreads();

/// The common run settings every workload receives.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: do not write).
  std::string spans_path;
  size_t threads = 1;
};

}  // namespace perfbench

#endif  // SOFYA_PERFBENCH_BENCH_UTIL_H_
