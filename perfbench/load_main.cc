// perfbench_load: the load process of the deployment benchmark.
//
//   perfbench_load --workload <dpram_mem|oram_durable|pir_scan>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --server-bin <path to dpstore_server>
//                  [--commit <id>] [--spans <file>]
//
// Forks the workload's dpstore_server processes into the working
// directory, drives them from two closed-loop client threads, checks
// every answer, and prints human-readable lines followed by one JSON
// object on the last line: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs (--trace 1)
// the per-layer ones. Exits 0 only when every answer was right.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "procs.h"
#include "storage/kernels.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --server-bin <path> [--commit <id>] "
               "[--spans <file>]\n",
               argv0);
  return 2;
}

/// JSON string body for the fixed, plain names this program emits.
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--server-bin") {
      options.server_bin = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.workload.empty() ||
      options.server_bin.empty() || !(options.seconds > 0.0)) {
    return Usage(argv[0]);
  }
  perfbench::InstallChildReaper();

  // Host and run facts, so runs from different hosts or builds are never
  // compared silently.
  std::printf(
      "facts: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
      "kernel_variant=%s build_type=%s commit=%s\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
      dpstore::kernels::VariantName(dpstore::kernels::ActiveVariant()),
      PERFBENCH_BUILD_TYPE, commit.c_str());
  std::fflush(stdout);

  perfbench::RunResult result;
  const bool ran = perfbench::RunWorkload(options, &result);
  perfbench::KillAllChildren();
  for (const std::string& line : result.lines) std::printf("%s\n", line.c_str());
  if (!ran) {
    std::fprintf(stderr, "perfbench: the %s run did not complete\n",
                 options.workload.c_str());
    return 1;
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("metric %s = %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s could not be computed\n",
                   m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics.append(", ");
    metrics.append(Quoted(m.name))
        .append(": {\"value\": ")
        .append(value)
        .append(", \"unit\": ")
        .append(Quoted(m.unit))
        .append("}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
