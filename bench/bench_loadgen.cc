// bench_loadgen: open-loop multi-client load study of the multi-tenant
// storage server. N client threads each run a registered scheme over a
// real socket (SocketBackend), issuing queries on a FIXED arrival
// schedule — the open-loop discipline: an op's latency is measured from
// its SCHEDULED arrival to completion, so server queueing delay is part
// of the number instead of silently throttling the offered load (the
// closed-loop mistake). The sweep crosses offered load x client count x
// scheme and reports achieved throughput and p50/p99/p999 latency.
//
// By default the server is in-process: a StorageService behind a real
// Unix listener on a temp path (the same engine/service/wire stack
// dpstore_server runs, minus the process boundary). Point it at a live
// server instead with --unix <path> or --addr <host>:<port>, as the CI
// load-smoke step does.
//
// Flags (all optional):
//   --unix <path>      target a running dpstore_server on a Unix socket
//   --addr <host:port> target a running dpstore_server over TCP
//   --data-dir <d>     run the in-process server durable (WAL + mmap
//                      arenas under <d>): durable-vs-in-memory p99 on
//                      the same schedule
//   --scheme <name>    single-cell mode: run just this scheme
//   --clients <n>      single-cell mode: client count (default 4)
//   --rate <ops/s>     single-cell mode: offered load (default 400)
//   --ops <n>          single-cell mode: ops per client (default derived)
//   --cluster <file>   cluster mode: run the open-loop cell against the
//                      multi-process cluster described by <file>
//                      (docs/cluster.md; the servers must already be up),
//                      plus a rebalance-pricing cell when the config has a
//                      warm spare. Kill a node mid-sweep and the clients'
//                      ClusterBackends fail over live ("dpstore_cluster:"
//                      lines on stderr) — the CI cluster job's drill.
//
// Cells emitted:
//   BENCH_loadgen_<scheme>_c<clients>_r<rate>.json   one per sweep cell
//   BENCH_loadgen_rebalance.json                     cluster mode only
//   BENCH_loadgen.json                               closing summary
//
// Cluster cells are emitted only under --cluster (never in the default
// sweep), so bench/baseline/BENCH_all.json's cell set stays stable.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "chaos_proxy.h"

#include "core/scheme_registry.h"
#include "server/storage_service.h"
#include "storage/cluster.h"
#include "util/check.h"
#include "util/io.h"

namespace dpstore {
namespace {

using Clock = std::chrono::steady_clock;

// --- In-process server -------------------------------------------------------

/// A StorageService behind a real Unix listener: the dpstore_server
/// accept loop, in-process. Every bench connection crosses the same
/// codec, reader threads and execution slots as a standalone deployment.
class InProcessServer {
 public:
  /// A non-empty `data_dir` runs the engine durable (mmap arenas +
  /// write-ahead journal), so the same schedule measures the fdatasync
  /// tax against the in-memory numbers.
  explicit InProcessServer(const std::string& data_dir = "") {
    StorageServiceOptions options;
    options.num_threads = 4;
    options.max_conns = 256;
    options.persist.data_dir = data_dir;
    auto made = StorageService::Make(options);
    DPSTORE_CHECK_OK(made.status());
    service_ = std::move(*made);
    path_ = "/tmp/dpstore_loadgen_" + std::to_string(::getpid()) + ".sock";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    DPSTORE_CHECK_LT(path_.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DPSTORE_CHECK_GE(listen_fd_, 0);
    DPSTORE_CHECK_EQ(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    DPSTORE_CHECK_EQ(::listen(listen_fd_, 128), 0);
    acceptor_ = std::thread([this] {
      for (;;) {
        const int conn = io::AcceptEintr(listen_fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed: shut down
        service_->HandleConnection(conn);
      }
    });
  }

  ~InProcessServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (acceptor_.joinable()) acceptor_.join();
    service_->Drain();
    ::unlink(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::unique_ptr<StorageService> service_;
  std::string path_;
  int listen_fd_ = -1;
  std::thread acceptor_;
};

// --- Open-loop cell ----------------------------------------------------------

struct CellResult {
  bool ok = false;
  /// Acked ops (latency percentiles are computed over these only).
  uint64_t ops = 0;
  /// Ops whose QueryRead surfaced an error (counted, not fatal: under an
  /// injected-fault schedule errors are part of the measurement, and a
  /// failed op must not erase the rest of the cell's tail percentiles).
  uint64_t errors = 0;
  /// Attempted-ops throughput (acked + errored, the classic number).
  double achieved_ops_per_sec = 0.0;
  /// Acked-only throughput: what the service actually delivered.
  double achieved_ok_ops_sec = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(p * static_cast<double>(
                                                     sorted.size())));
  return sorted[index];
}

/// Runs one open-loop cell: `clients` scheme instances built from
/// `base_config` (socket target, backend topology, retry/reconnect knobs),
/// a combined offered load of `rate` ops/s spread evenly,
/// `ops_per_client` queries each on a fixed schedule. When the base
/// config names a shared-namespace range, each client gets a disjoint
/// sub-range (the registry mints ids per backend within one factory, but
/// the factories of different clients would otherwise collide).
CellResult RunCell(const std::string& scheme_name,
                   const SchemeConfig& base_config, unsigned clients,
                   double rate, uint64_t ops_per_client) {
  const uint64_t kRecords = 64;
  std::vector<std::unique_ptr<RamScheme>> schemes(clients);
  for (unsigned c = 0; c < clients; ++c) {
    SchemeConfig config = base_config;
    config.n = kRecords;
    config.value_size = 64;
    config.seed = 1 + c;
    config.counting_only_transcript = true;
    if (config.socket_namespace_base != 0) {
      config.socket_namespace_base += uint64_t{c} * 64;
    }
    auto scheme = SchemeRegistry::Instance().MakeRam(scheme_name, config);
    if (!scheme.ok()) {
      std::fprintf(stderr, "loadgen: cannot build %s: %s\n",
                   scheme_name.c_str(), scheme.status().ToString().c_str());
      return CellResult{};
    }
    schemes[c] = std::move(*scheme);
  }

  // Each client owns an even share of the offered load; arrivals are
  // evenly spaced (deterministic schedule, so runs are reproducible).
  const std::chrono::nanoseconds interval(
      static_cast<int64_t>(1e9 * static_cast<double>(clients) / rate));
  std::vector<std::vector<double>> latencies(clients);
  std::vector<Clock::time_point> last_done(clients);
  std::atomic<uint64_t> errors{0};
  std::latch ready(static_cast<ptrdiff_t>(clients));
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(50);

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      RamScheme& scheme = *schemes[c];
      std::vector<double>& lat = latencies[c];
      lat.reserve(ops_per_client);
      ready.arrive_and_wait();
      // Stagger clients by a fraction of the interval so the combined
      // arrival process is evenly spaced, not N synchronized bursts.
      const Clock::time_point base = start + interval * c / clients;
      for (uint64_t i = 0; i < ops_per_client; ++i) {
        const Clock::time_point scheduled = base + interval * i;
        std::this_thread::sleep_until(scheduled);
        const BlockId id = static_cast<BlockId>(
            (0x9E3779B97F4A7C15ULL * (i + 1 + uint64_t{c} * 7919)) >> 32 &
            (kRecords - 1));
        StatusOr<std::optional<Block>> got = scheme.QueryRead(id);
        const Clock::time_point done = Clock::now();
        if (!got.ok()) {
          // Count and carry on: under a fault schedule an errored op is a
          // data point, and the schedule keeps its remaining arrivals.
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Open-loop latency: from the SCHEDULED arrival, so time spent
        // queued behind a saturated server counts against it.
        lat.push_back(
            std::chrono::duration<double, std::milli>(done - scheduled)
                .count());
      }
      last_done[c] = Clock::now();
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<double> all;
  for (const std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  CellResult result;
  result.errors = errors.load();
  // A cell that acked nothing measured nothing: report it failed.
  result.ok = !all.empty();
  result.ops = all.size();
  const Clock::time_point end =
      *std::max_element(last_done.begin(), last_done.end());
  const double seconds =
      std::chrono::duration<double>(end - start).count();
  result.achieved_ops_per_sec =
      seconds > 0
          ? static_cast<double>(all.size() + result.errors) / seconds
          : 0.0;
  result.achieved_ok_ops_sec =
      seconds > 0 ? static_cast<double>(all.size()) / seconds : 0.0;
  double sum = 0;
  for (double ms : all) sum += ms;
  result.mean_ms = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  result.p999_ms = Percentile(all, 0.999);
  return result;
}

void EmitCell(const std::string& scheme, const std::string& transport,
              unsigned clients, double rate, const CellResult& result,
              const std::string& tag = "") {
  bench::BenchJson json("loadgen_" + scheme + (tag.empty() ? "" : "_" + tag) +
                        "_c" + std::to_string(clients) + "_r" +
                        std::to_string(static_cast<int>(rate)));
  json.Metric("scheme", scheme);
  json.Metric("transport", transport);
  json.Metric("clients", clients);
  json.Metric("offered_ops_per_sec", rate);
  json.Metric("achieved_ops_per_sec", result.achieved_ops_per_sec);
  json.Metric("achieved_ok_ops_sec", result.achieved_ok_ops_sec);
  json.Metric("ops", result.ops);
  json.Metric("errors", result.errors);
  json.Metric("mean_ms", result.mean_ms);
  json.Metric("p50_ms", result.p50_ms);
  json.Metric("p99_ms", result.p99_ms);
  json.Metric("p999_ms", result.p999_ms);
  json.Metric("ok", result.ok ? 1 : 0);
  if (!tag.empty()) json.Metric("tag", tag);
  json.Emit();
}

/// Slurps the cluster config file for SchemeConfig::cluster_config (the
/// registry wants the text; parse errors surface typed from the factory).
bool SlurpFile(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

/// The rebalance-pricing cell: plan moving range 0 to the first warm
/// spare, execute it, and record predicted volume next to measured
/// wall-clock — the cost model the operator consults before a move
/// (docs/cluster.md).
bool RunRebalanceCell(const ClusterConfig& cluster) {
  const uint64_t kBlocks = 4096;
  const size_t kBlockSize = 64;
  ClusterBackend backend(kBlocks, kBlockSize, cluster);
  std::vector<Block> db(kBlocks);
  for (uint64_t i = 0; i < kBlocks; ++i) db[i] = MarkerBlock(i, kBlockSize);
  const Status seeded = backend.SetArray(std::move(db));
  if (!seeded.ok()) {
    std::fprintf(stderr, "loadgen: rebalance seed failed: %s\n",
                 seeded.ToString().c_str());
    return false;
  }
  const std::string spare = cluster.nodes()[cluster.spares()[0]].name;
  auto plan = backend.PlanRebalance(0, spare, /*batch_blocks=*/256);
  if (!plan.ok()) {
    std::fprintf(stderr, "loadgen: rebalance plan failed: %s\n",
                 plan.status().ToString().c_str());
    return false;
  }
  auto wall_ms = backend.ExecuteRebalance(*plan);
  if (!wall_ms.ok()) {
    std::fprintf(stderr, "loadgen: rebalance failed: %s\n",
                 wall_ms.status().ToString().c_str());
    return false;
  }
  bench::BenchJson json("loadgen_rebalance");
  json.Metric("from", plan->from);
  json.Metric("to", plan->to);
  json.Metric("blocks", plan->blocks);
  json.Metric("bytes", plan->bytes);
  json.Metric("batches", plan->batches);
  json.Metric("batch_blocks", plan->batch_blocks);
  json.Metric("measured_wall_ms", *wall_ms);
  json.Metric("mb_per_sec",
              *wall_ms > 0 ? static_cast<double>(plan->bytes) / 1e6 /
                                 (*wall_ms / 1e3)
                           : 0.0);
  json.Emit();
  return true;
}

uint64_t DeriveOpsPerClient(double rate, unsigned clients) {
  // Aim for ~0.5 s of offered load per cell, bounded so cells stay quick
  // but still fill the tail percentiles.
  const double per_client = rate / clients * 0.5;
  return std::min<uint64_t>(
      400, std::max<uint64_t>(40, static_cast<uint64_t>(per_client)));
}

}  // namespace
}  // namespace dpstore

int main(int argc, char** argv) {
  using namespace dpstore;

  std::string unix_path;
  std::string unix_path2;
  std::string host;
  uint16_t port = 0;
  std::string one_scheme;
  std::string data_dir;
  std::string cluster_file;
  unsigned clients = 4;
  double rate = 400.0;
  uint64_t ops = 0;
  bool single_cell = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--unix" && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg == "--unix2" && i + 1 < argc) {
      unix_path2 = argv[++i];
    } else if (arg == "--addr" && i + 1 < argc) {
      const std::string addr = argv[++i];
      const size_t colon = addr.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "loadgen: --addr wants host:port\n");
        return 2;
      }
      host = addr.substr(0, colon);
      port = static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1));
    } else if (arg == "--scheme" && i + 1 < argc) {
      one_scheme = argv[++i];
      single_cell = true;
    } else if (arg == "--clients" && i + 1 < argc) {
      clients = static_cast<unsigned>(std::atoi(argv[++i]));
      single_cell = true;
    } else if (arg == "--rate" && i + 1 < argc) {
      rate = std::atof(argv[++i]);
      single_cell = true;
    } else if (arg == "--ops" && i + 1 < argc) {
      ops = static_cast<uint64_t>(std::atoll(argv[++i]));
      single_cell = true;
    } else if (arg == "--cluster" && i + 1 < argc) {
      cluster_file = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--unix <path> [--unix2 <path>] | "
                   "--addr <host:port> | --data-dir <d> | "
                   "--cluster <config-file>] "
                   "[--scheme <name>] [--clients <n>] [--rate <ops/s>] "
                   "[--ops <n>]\n",
                   argv[0]);
      return 2;
    }
  }

  // Cluster mode: the same open-loop cell, but every client's scheme is
  // built over a ClusterBackend fanning exchanges across the running
  // multi-process deployment named by the config file. No in-process
  // server — the cluster IS the target.
  if (!cluster_file.empty()) {
    std::string text;
    if (!SlurpFile(cluster_file, &text)) {
      std::fprintf(stderr, "loadgen: cannot read %s\n", cluster_file.c_str());
      return 2;
    }
    auto cluster = ClusterConfig::Parse(text);
    if (!cluster.ok()) {
      std::fprintf(stderr, "loadgen: bad cluster config: %s\n",
                   cluster.status().ToString().c_str());
      return 2;
    }
    bench::BenchJson summary("loadgen");
    int cells = 0;
    int failed = 0;
    SchemeConfig cluster_base;
    cluster_base.backend = "cluster";
    cluster_base.cluster_config = text;
    if (one_scheme.empty()) one_scheme = "dp_ir";
    if (clients == 0) clients = 1;
    const uint64_t per_client =
        ops > 0 ? ops : DeriveOpsPerClient(rate, clients);
    const CellResult result =
        RunCell(one_scheme, cluster_base, clients, rate, per_client);
    EmitCell(one_scheme, "cluster", clients, rate, result, "cluster");
    ++cells;
    if (!result.ok) ++failed;
    // Price and execute a range move when the topology has a spare.
    if (!cluster->spares().empty()) {
      ++cells;
      if (!RunRebalanceCell(*cluster)) ++failed;
    }
    summary.Metric("cells", cells);
    summary.Metric("failed", failed);
    summary.Metric("transport", "cluster");
    summary.Emit();
    return failed == 0 ? 0 : 1;
  }

  // No target given: bring up the full service stack in-process —
  // durable when --data-dir names a directory, so the same open-loop
  // schedule yields a durable-vs-in-memory p99 comparison.
  std::unique_ptr<InProcessServer> local;
  std::string transport = "tcp";
  if (unix_path.empty() && host.empty()) {
    local = std::make_unique<InProcessServer>(data_dir);
    unix_path = local->path();
    transport = data_dir.empty() ? "inproc-unix" : "inproc-unix-durable";
  } else if (!unix_path.empty()) {
    transport = "unix";
  }

  bench::BenchJson summary("loadgen");
  int cells = 0;
  int failed = 0;
  SchemeConfig wire_config;
  wire_config.backend = "socket";
  wire_config.socket_path = unix_path;
  wire_config.socket_path2 = unix_path2;
  wire_config.socket_host = host;
  wire_config.socket_port = port;
  auto run_one = [&](const std::string& scheme, const SchemeConfig& base,
                     unsigned c, double r, const std::string& tag = "") {
    const uint64_t per_client = ops > 0 ? ops : DeriveOpsPerClient(r, c);
    const CellResult result = RunCell(scheme, base, c, r, per_client);
    EmitCell(scheme, transport, c, r, result, tag);
    ++cells;
    if (!result.ok) ++failed;
  };

  if (single_cell) {
    if (one_scheme.empty()) one_scheme = "dp_ir";
    if (clients == 0) clients = 1;
    run_one(one_scheme, wire_config, clients, rate);
  } else {
    // The study proper: offered load x client count x scheme. 12 cells.
    for (const char* scheme : {"dp_ir", "path_oram"}) {
      for (unsigned c : {1u, 2u, 4u}) {
        for (double r : {200.0, 800.0}) {
          run_one(scheme, wire_config, c, r);
        }
      }
    }

    // Chaos cells: the same open-loop schedule through the fault-injecting
    // proxy with 1% of post-warmup frames resetting the connection —
    // p99 and errored-op counts with transport retry OFF vs ON. Retry ON
    // decorates the reconnecting socket with RetryingBackend, so a reset
    // download is transparently resubmitted (reads are always safe to
    // retry) and shows up as tail latency instead of an error.
    if (!unix_path.empty()) {
      test::ChaosOptions chaos;
      chaos.seed = 1;
      chaos.warmup_frames = 2;  // Open/SetArray land clean
      chaos.reset_prob = 0.01;
      const std::string proxy_path = unix_path + ".chaos";
      test::ChaosProxy proxy(proxy_path, unix_path, chaos);
      proxy.Start();

      SchemeConfig chaos_config = wire_config;
      chaos_config.socket_path = proxy_path;
      chaos_config.socket_path2.clear();
      chaos_config.socket_reconnect_max = 100;
      chaos_config.socket_namespace_base = 50000;
      run_one("dp_ir", chaos_config, 4, 400.0, "chaos_retry_off");

      chaos_config.backend = "retry";
      chaos_config.retry_inner = "socket";
      chaos_config.socket_namespace_base = 60000;
      run_one("dp_ir", chaos_config, 4, 400.0, "chaos_retry_on");
      proxy.Stop();
    }
  }

  summary.Metric("cells", cells);
  summary.Metric("failed", failed);
  summary.Metric("transport", transport);
  summary.Emit();
  return failed == 0 ? 0 : 1;
}
