#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The deployment benchmark's workloads: forked dpstore_server processes
// driven by two closed-loop client threads of one load process.
//
//   dpram_mem     dp_ram, n = 2^16 x 64 B, 50/50 read/write, one
//                 in-memory server, a private namespace per client.
//   oram_durable  path_oram, n = 2^16 x 64 B, 50/50, through a 2-node
//                 cluster (one range each) of --data-dir servers, disjoint
//                 shared namespaces per client; ends with SIGKILL, restart
//                 and an arena comparison.
//   pir_scan      dpf_pir, n = 2^20 x 64 B, reads only, two in-memory
//                 servers, one shared public-database namespace on each.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;
  /// Traced runs write their spans here (tab-separated); empty = nowhere.
  std::string spans_path;
};

/// One reported number. `samples` is the count it was computed from (0
/// when it is a ratio of counters rather than a statistic of samples).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct RunResult {
  /// False on any wrong answer, arena mismatch, unclean server exit or
  /// failed sum check.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced runs).
  std::vector<Metric> metrics;
  /// Everything else worth reading, one human-readable line each.
  std::vector<std::string> lines;
};

/// Runs one workload end to end. Returns false (after printing why) when
/// the run could not be carried out at all: a server that would not
/// start, a client that could not be built.
bool RunWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
