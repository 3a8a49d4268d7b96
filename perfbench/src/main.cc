// sofya_perfbench: the repository benchmark.
//
//   sofya_perfbench --workload <schema_local|serve_open|churn_onthefly>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <path>]
//
// Prints human-readable notes on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sofya_perfbench --workload "
               "<schema_local|serve_open|churn_onthefly> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      config.trace = value[0] == '1';
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed) return Usage();
  config.threads = perfbench::HardwareThreads();

  perfbench::Report report;
  if (workload == "schema_local") {
    report = perfbench::RunSchemaLocal(config);
  } else if (workload == "serve_open") {
    report = perfbench::RunServeOpen(config);
  } else if (workload == "churn_onthefly") {
    report = perfbench::RunChurnOnTheFly(config);
  } else {
    return Usage();
  }
  std::fflush(stderr);
  std::printf("%s\n", perfbench::ReportJson(report).c_str());
  return 0;
}
