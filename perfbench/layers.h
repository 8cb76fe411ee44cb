#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer metrics of a traced run. Each layer is measured from outside,
// through its public functions:
//
//   scheme     op spans minus their transport child spans
//   transport  TimingBackend submit/wait spans and exchange counts
//   wire       recorded exchanges replayed through the wire codec
//   engine     recorded exchanges replayed through StorageEngine
//   persist    the same replay with the workload's durability, timing
//              SyncJournal; plus the servers' durability/recovered lines
//   service    the servers' drained lines, minus the replayed layers
//   cluster    per-node drained lines against client exchange counts
//   crypto     direct DpfGen / DpfEvalFull calls (depth 20)
//   kernels    a direct SelectXorScan over a 64 MiB arena

#include <cstdint>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// What one server printed when it stopped (drained/durability lines)
/// and, for a durable restart, what it recovered.
struct ServerCounters {
  uint64_t exchanges = 0;
  uint64_t fused_frames = 0;
  uint64_t frames_shed = 0;
  uint64_t blocks_moved = 0;
  uint64_t journal_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t riders = 0;
};

/// Parses a server's "drained:" and (optional) "durability:" lines.
ServerCounters ParseServerLines(const std::string& drained,
                                const std::string& durability);

struct LayerInputs {
  /// Client traces; their spans and samples cover the traced window.
  std::vector<const ClientTrace*> traces;
  /// Loop-measured latency of every traced operation, in ns.
  std::vector<double> traced_latency_ns;
  uint64_t traced_ops = 0;
  /// TransportTotals summed over clients, diffed over the traced window.
  dpstore::TransportStats traced_totals;
  /// Operations the clients ran over the server lifetime that the
  /// drained lines cover (warm-up and both halves of the window).
  uint64_t lifetime_ops = 0;
  /// Exchanges the clients submitted over that lifetime.
  uint64_t lifetime_submits = 0;
  std::vector<ServerCounters> servers;
  /// Journal records the servers replayed after the SIGKILL (durable
  /// workloads; 0 otherwise).
  uint64_t recovered_records = 0;
  /// Durability of the replay engine: the workload's data directory
  /// layout (empty = in-memory, as the workload's servers run).
  std::string replay_data_dir;
  size_t server_threads = 2;
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;
};

/// Appends every per-layer metric to result->metrics and the sum check to
/// result->notes. Clears result->correct when the sum check fails.
void AddLayerMetrics(const LayerInputs& inputs, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
