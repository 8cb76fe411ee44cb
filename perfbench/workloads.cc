#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/scheme_registry.h"
#include "layers.h"
#include "procs.h"
#include "stats.h"
#include "storage/block.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

namespace {

using dpstore::Block;
using dpstore::RamScheme;
using dpstore::SchemeConfig;
using dpstore::StorageBackend;
using dpstore::TransportStats;

constexpr int kClients = 2;
constexpr int kServerThreads = 2;
/// setup_s is the median of this many complete set-ups per run.
constexpr int kSetups = 5;
/// In-memory workloads time this many restarts for recovery_s.
constexpr int kInMemoryRestarts = 15;
constexpr double kWarmupSeconds = 5.0;
/// End-to-end metrics come from this share of the window's whole seconds,
/// the ones with the least CPU steal (see Window).
constexpr double kCalmShare = 0.8;
/// oram_durable: SIGKILL cycles per run (recovery_s is their median), and
/// operations per client before each, so the journal every recovery
/// replays has a fixed size.
constexpr int kCrashCycles = 3;
constexpr uint64_t kCrashOpsPerClient = 1000;
/// oram_durable: keys per client read back through the ORAM after the
/// SIGKILL restart.
constexpr size_t kReadBackKeys = 200;
constexpr size_t kSnapshotBatch = 4096;
constexpr size_t kMaxRecordedExchanges = 512;
/// Shared namespace ids (must stay below 2^63).
constexpr uint64_t kPirNamespace = 7;
constexpr uint64_t kOramNamespaceStride = 1000;

struct WorkloadSpec {
  std::string name;
  std::string scheme;
  int log2_n = 16;
  size_t value_size = 64;
  int servers = 1;
  bool durable = false;
  bool cluster = false;
  bool writes = false;
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"dpram_mem", "dp_ram", 16, 64, 1, false, false, true},
      {"oram_durable", "path_oram", 16, 64, 2, true, true, true},
      {"pir_scan", "dpf_pir", 20, 64, 2, false, false, false},
  };
  return specs;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The forked servers of one set-up, with their sockets and data dirs
/// (relative to the working directory, so socket paths stay short).
struct Deployment {
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::vector<std::string> sockets;
  std::vector<std::string> data_dirs;
  std::string cluster_text;

  /// Spawns every server at once and waits for all of them; returns the
  /// seconds until the last one listened.
  std::optional<double> StartAll() {
    for (auto& server : servers) {
      if (!server->Spawn()) return std::nullopt;
    }
    double slowest = 0.0;
    for (auto& server : servers) {
      const std::optional<double> s = server->AwaitListening();
      if (!s.has_value()) return std::nullopt;
      slowest = std::max(slowest, *s);
    }
    return slowest;
  }

  /// SIGTERMs every server; true when all drained and exited 0.
  bool StopAll() {
    bool clean = true;
    for (auto& server : servers) clean = server->Stop() && clean;
    return clean;
  }

  void KillAll() {
    for (auto& server : servers) server->Kill();
  }

  uint64_t PeakRssKib() const {
    uint64_t total = 0;
    for (const auto& server : servers) total += server->PeakRssKib();
    return total;
  }

  void RemoveData() {
    std::error_code ignored;
    for (const std::string& dir : data_dirs) {
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

Deployment MakeDeployment(const WorkloadSpec& spec, const RunOptions& options,
                          int generation) {
  Deployment d;
  for (int i = 0; i < spec.servers; ++i) {
    const std::string tag = std::to_string(generation) + "-" +
                            std::to_string(i);
    std::string socket = "srv";
    socket.append(tag).append(".sock");
    std::vector<std::string> args = {"--threads",
                                     std::to_string(kServerThreads)};
    if (spec.durable) {
      std::string dir = "data";
      dir.append(tag);
      args.push_back("--data-dir");
      args.push_back(dir);
      d.data_dirs.push_back(dir);
    }
    d.servers.push_back(
        std::make_unique<ServerProcess>(options.server_bin, socket, args));
    d.sockets.push_back(socket);
  }
  if (spec.cluster) {
    std::string text = "slots ";
    text.append(std::to_string(spec.servers)).append("\n");
    for (int i = 0; i < spec.servers; ++i) {
      text.append("node n").append(std::to_string(i)).append(" unix:");
      text.append(d.sockets[i]).append("\n");
    }
    for (int i = 0; i < spec.servers; ++i) {
      text.append("range ").append(std::to_string(i)).append(" ");
      text.append(std::to_string(i + 1)).append(" n");
      text.append(std::to_string(i)).append("\n");
    }
    d.cluster_text = text;
  }
  return d;
}

/// One closed-loop client: its scheme, the model its reads are checked
/// against, and its tallies.
struct Client {
  explicit Client(int i) : index(i), trace(kMaxRecordedExchanges) {}

  const int index;
  // Declared before the scheme, whose backends report into it.
  ClientTrace trace;
  /// Backends as the library's factory built them (below any
  /// TimingBackend), for reading arenas over the wire.
  std::vector<StorageBackend*> backends;
  std::unique_ptr<RamScheme> scheme;

  dpstore::Rng rng{1};
  /// Writable workloads: the value each key must read back as.
  std::vector<Block> model;
  /// Keys written during a phase that tracks them (oram_durable's crash
  /// phase), for the read-back after recovery.
  std::vector<uint64_t> written;
  bool track_written = false;
  uint64_t next_op = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;

  /// Latency and end time (ns) of each operation of the current recorded
  /// phase.
  std::vector<double> latency_ns;
  std::vector<int64_t> end_ns;
};

using Clients = std::vector<std::unique_ptr<Client>>;

/// Passes through the backends `inner` builds, remembering each in `sink`.
dpstore::BackendFactory Capturing(dpstore::BackendFactory inner,
                                  std::vector<StorageBackend*>* sink) {
  return [inner = std::move(inner), sink](uint64_t n, size_t block_size) {
    std::unique_ptr<StorageBackend> backend =
        dpstore::MakeBackend(inner, n, block_size);
    sink->push_back(backend.get());
    return backend;
  };
}

/// Builds the k-th backend with `even` when k is even, else with `odd`:
/// the registry's replica placement for dpf_pir over two servers.
dpstore::BackendFactory Alternating(dpstore::BackendFactory even,
                                    dpstore::BackendFactory odd) {
  auto built = std::make_shared<uint64_t>(0);
  return [even = std::move(even), odd = std::move(odd), built](
             uint64_t n, size_t block_size) {
    return dpstore::MakeBackend((*built)++ % 2 == 0 ? even : odd, n,
                                block_size);
  };
}

bool Fail(const std::string& what, const dpstore::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return false;
}

/// Builds client `c`'s scheme against deployment `d`. Untraced runs use
/// the registry's own backend for the config; traced runs interpose a
/// TimingBackend around the factory BackendFactoryFor returns.
bool BuildClient(const WorkloadSpec& spec, const RunOptions& options,
                 const Deployment& d, Client* c) {
  SchemeConfig config;
  config.n = uint64_t{1} << spec.log2_n;
  config.value_size = spec.value_size;
  config.seed = options.seed * 7919 + static_cast<uint64_t>(c->index) + 1;
  config.counting_only_transcript = true;
  config.backend = spec.cluster ? "cluster" : "socket";
  config.socket_path = d.sockets[0];
  dpstore::BackendFactory factory;
  if (spec.cluster) {
    config.cluster_config = d.cluster_text;
    config.socket_namespace_base =
        kOramNamespaceStride * static_cast<uint64_t>(c->index + 1);
    // Legs redial after the servers restart; the namespaces are shared
    // and durable, so they find their arenas again.
    config.socket_reconnect_max = 16;
    dpstore::StatusOr<dpstore::BackendFactory> inner =
        dpstore::BackendFactoryFor(config);
    if (!inner.ok()) return Fail("cluster backend", inner.status());
    factory = Capturing(std::move(*inner), &c->backends);
  } else if (spec.servers == 2) {
    // One public database, shared by every client, on each server.
    config.socket_path2 = d.sockets[1];
    config.socket_namespace_base = kPirNamespace;
    if (options.trace) {
      // The registry sends replica 1 to socket_path2 only on its own
      // socket path; an interposed factory places the replicas itself.
      SchemeConfig second = config;
      second.socket_path = d.sockets[1];
      dpstore::StatusOr<dpstore::BackendFactory> f0 =
          dpstore::BackendFactoryFor(config);
      dpstore::StatusOr<dpstore::BackendFactory> f1 =
          dpstore::BackendFactoryFor(second);
      if (!f0.ok()) return Fail("socket backend", f0.status());
      if (!f1.ok()) return Fail("socket backend", f1.status());
      factory = Alternating(std::move(*f0), std::move(*f1));
    }
  } else if (options.trace) {
    dpstore::StatusOr<dpstore::BackendFactory> inner =
        dpstore::BackendFactoryFor(config);
    if (!inner.ok()) return Fail("socket backend", inner.status());
    factory = std::move(*inner);
  }
  if (options.trace) factory = TimingFactory(std::move(factory), &c->trace);
  config.backend_factory = std::move(factory);
  dpstore::StatusOr<std::unique_ptr<RamScheme>> made =
      dpstore::SchemeRegistry::Instance().MakeRam(spec.scheme, config);
  if (!made.ok()) return Fail("building " + spec.scheme, made.status());
  c->scheme = std::move(*made);
  return true;
}

/// When a phase ends: at a deadline, or after a number of operations per
/// client (whichever is set).
struct Phase {
  int64_t end_ns = 0;
  uint64_t ops_per_client = 0;
  /// Keep each operation's latency in Client::latency_ns.
  bool record = false;
};

/// One client's closed loop: each operation starts when the previous one
/// returned. Keys are uniform; writable workloads flip a fair coin between
/// QueryWrite of a fresh random value and QueryRead. Every read is checked
/// against the model (or the marker database), and a mismatch is counted,
/// never retried.
void RunLoop(const WorkloadSpec& spec, const Phase& phase, Client* c) {
  RamScheme& scheme = *c->scheme;
  const uint64_t n = scheme.n();
  for (uint64_t done = 0;; ++done) {
    if (phase.end_ns != 0 && NowNs() >= phase.end_ns) break;
    if (phase.ops_per_client != 0 && done >= phase.ops_per_client) break;
    const uint64_t key = c->rng.Uniform(n);
    const bool write = spec.writes && (c->rng.NextUint64() & 1) != 0;
    Block value;
    if (write) value = dpstore::RandomBlock(&c->rng, spec.value_size);

    const int64_t start = NowNs();
    c->trace.BeginOp(c->next_op++);
    dpstore::Status status;
    std::optional<Block> read;
    if (write) {
      status = scheme.QueryWrite(key, value);
    } else {
      dpstore::StatusOr<std::optional<Block>> got = scheme.QueryRead(key);
      status = got.status();
      if (got.ok()) read = std::move(*got);
    }
    c->trace.EndOp();
    const int64_t end = NowNs();

    ++c->attempted;
    if (!status.ok()) {
      ++c->failed;
    } else if (write) {
      c->model[key] = std::move(value);
      if (c->track_written) c->written.push_back(key);
    } else {
      const bool right = read.has_value() &&
                         (spec.writes ? *read == c->model[key]
                                      : dpstore::IsMarkerBlock(*read, key));
      if (!right) ++c->mismatches;
    }
    if (phase.record) {
      c->latency_ns.push_back(static_cast<double>(end - start));
      c->end_ns.push_back(end);
    }
  }
}

/// Starts one thread per client, each running RunLoop over `phase` (which
/// must outlive the threads).
std::vector<std::thread> StartClients(const WorkloadSpec& spec,
                                      const Phase& phase, Clients& clients) {
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back(
        [&spec, &phase, c = client.get()] { RunLoop(spec, phase, c); });
  }
  return threads;
}

void RunPhase(const WorkloadSpec& spec, const Phase& phase,
              Clients& clients) {
  for (std::thread& thread : StartClients(spec, phase, clients)) {
    thread.join();
  }
}

TransportStats SumTotals(const Clients& clients) {
  TransportStats total;
  for (const auto& c : clients) total += c->scheme->TransportTotals();
  return total;
}

/// Aggregate CPU time from /proc/stat, in jiffies: {stolen, total}.
std::pair<uint64_t, uint64_t> CpuJiffies() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(
      stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
      &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  if (got != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

double StealShare(std::pair<uint64_t, uint64_t> from,
                  std::pair<uint64_t, uint64_t> to) {
  if (to.second <= from.second) return 0.0;
  return static_cast<double>(to.first - from.first) /
         static_cast<double>(to.second - from.second);
}

/// A timed window over all clients.
struct Window {
  /// Every operation of the window, and the window's length.
  std::vector<double> latency_ns;
  double seconds = 0.0;
  TransportStats totals;
  double steal_share = 0.0;
  /// The operations that ended in the window's calm seconds: the
  /// kCalmShare of its whole seconds in which the hypervisor stole the
  /// least CPU time from this machine.
  std::vector<double> calm_latency_ns;
  size_t calm_seconds = 0;
  double calm_steal_share = 0.0;

  double ops_per_s() const {
    return seconds > 0.0 ? static_cast<double>(latency_ns.size()) / seconds
                         : 0.0;
  }
  double calm_ops_per_s() const {
    return calm_seconds > 0 ? static_cast<double>(calm_latency_ns.size()) /
                                  static_cast<double>(calm_seconds)
                            : 0.0;
  }
};

/// Runs the clients for `seconds`: operations that start before the
/// deadline count, and the window lasts until the last of them returns.
/// The main thread reads the CPU steal counter at every whole second
/// meanwhile, so operations can be attributed to calm seconds.
Window MeasureWindow(const WorkloadSpec& spec, double seconds, bool traced,
                     Clients& clients) {
  for (auto& c : clients) {
    c->latency_ns.clear();
    c->end_ns.clear();
    c->trace.set_active(traced);
  }
  const TransportStats before = SumTotals(clients);
  const size_t whole_seconds = static_cast<size_t>(seconds);
  std::vector<std::pair<uint64_t, uint64_t>> marks = {CpuJiffies()};
  const int64_t start = NowNs();
  Phase phase;
  phase.end_ns = start + static_cast<int64_t>(seconds * 1e9);
  phase.record = true;
  std::vector<std::thread> threads = StartClients(spec, phase, clients);
  for (size_t s = 1; s <= whole_seconds; ++s) {
    const int64_t mark = start + static_cast<int64_t>(s) * 1'000'000'000;
    std::this_thread::sleep_for(std::chrono::nanoseconds(mark - NowNs()));
    marks.push_back(CpuJiffies());
  }
  for (std::thread& thread : threads) thread.join();
  const std::pair<uint64_t, uint64_t> after = CpuJiffies();

  // Rank the whole seconds by steal; the calmest kCalmShare of them count.
  std::vector<size_t> order(whole_seconds);
  for (size_t s = 0; s < whole_seconds; ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(), [&marks](size_t a, size_t b) {
    return StealShare(marks[a], marks[a + 1]) <
           StealShare(marks[b], marks[b + 1]);
  });
  Window w;
  w.calm_seconds = static_cast<size_t>(
      std::ceil(kCalmShare * static_cast<double>(whole_seconds)));
  std::vector<bool> calm(whole_seconds, false);
  for (size_t i = 0; i < w.calm_seconds; ++i) {
    calm[order[i]] = true;
    w.calm_steal_share += StealShare(marks[order[i]], marks[order[i] + 1]) /
                          static_cast<double>(w.calm_seconds);
  }

  int64_t last = start;
  for (auto& c : clients) {
    c->trace.set_active(false);
    for (size_t i = 0; i < c->latency_ns.size(); ++i) {
      last = std::max(last, c->end_ns[i]);
      const size_t second =
          static_cast<size_t>((c->end_ns[i] - start) / 1'000'000'000);
      if (second < whole_seconds && calm[second]) {
        w.calm_latency_ns.push_back(c->latency_ns[i]);
      }
    }
    w.latency_ns.insert(w.latency_ns.end(), c->latency_ns.begin(),
                        c->latency_ns.end());
  }
  w.seconds = Seconds(last - start);
  w.totals = SumTotals(clients) - before;
  w.steal_share = StealShare(marks.front(), after);
  return w;
}

/// Reads every block of the client's arenas over the wire, in batches.
bool ReadArenas(Client* c, std::vector<uint8_t>* out) {
  out->clear();
  for (StorageBackend* backend : c->backends) {
    for (uint64_t lo = 0; lo < backend->n(); lo += kSnapshotBatch) {
      std::vector<dpstore::BlockId> indices;
      for (uint64_t i = lo; i < std::min(backend->n(), lo + kSnapshotBatch);
           ++i) {
        indices.push_back(i);
      }
      dpstore::StatusOr<dpstore::StorageReply> reply = backend->Exchange(
          dpstore::StorageRequest::DownloadOf(std::move(indices)));
      if (!reply.ok()) return Fail("reading an arena", reply.status());
      const dpstore::BlockView bytes = reply->blocks.AllBytes();
      out->insert(out->end(), bytes.begin(), bytes.end());
    }
  }
  return true;
}

/// Stops the deployment's servers and parses what each printed.
std::vector<ServerCounters> StopAndCount(Deployment& d, RunResult* result) {
  if (!d.StopAll()) {
    result->correct = false;
    result->lines.push_back("error: a server did not drain cleanly");
  }
  std::vector<ServerCounters> counters;
  for (const auto& server : d.servers) {
    const std::string drained = server->LineWith("drained:");
    if (drained.empty()) {
      result->correct = false;
      result->lines.push_back("error: a server printed no drained line");
    }
    result->lines.push_back(drained);
    const std::string durability = server->LineWith("durability:");
    if (!durability.empty()) result->lines.push_back(durability);
    counters.push_back(ParseServerLines(drained, durability));
  }
  return counters;
}

std::string Format(const char* format, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), format, value);
  return text;
}

/// oram_durable's ending, after the clean stop: restart, then kCrashCycles
/// times run a fixed number of operations, read the arenas over the wire,
/// SIGKILL every node, time the restart (journal replay included) and
/// require the recovered arenas to be identical. Finally, acked writes
/// must read back through the ORAM. Returns false if the servers did not
/// come back or an arena could not be read.
bool CrashAndRecover(const WorkloadSpec& spec, Deployment& d, Clients& clients,
                     RunResult* result, std::vector<double>* samples,
                     uint64_t* recovered_records) {
  if (!d.StartAll().has_value()) return false;
  for (auto& c : clients) {
    c->written.clear();
    c->track_written = true;
  }
  uint64_t arena_bytes = 0;
  for (int cycle = 0; cycle < kCrashCycles; ++cycle) {
    Phase crash;
    crash.ops_per_client = kCrashOpsPerClient;
    RunPhase(spec, crash, clients);

    std::vector<std::vector<uint8_t>> before(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) {
      if (!ReadArenas(clients[i].get(), &before[i])) return false;
    }
    d.KillAll();
    const std::optional<double> recovery = d.StartAll();
    if (!recovery.has_value()) return false;
    samples->push_back(*recovery);
    *recovered_records = 0;
    for (const auto& server : d.servers) {
      *recovered_records +=
          FieldAfter(server->LineWith("recovered"), "namespace(s), ");
    }

    for (size_t i = 0; i < clients.size(); ++i) {
      std::vector<uint8_t> after;
      if (!ReadArenas(clients[i].get(), &after)) return false;
      arena_bytes += after.size();
      if (after != before[i]) {
        result->correct = false;
        result->lines.push_back("error: client " + std::to_string(i) +
                                "'s arenas differ after SIGKILL and recovery");
      }
    }
  }
  for (auto& c : clients) c->track_written = false;
  result->lines.push_back(
      "arena check: " + std::to_string(kCrashCycles) + " SIGKILL cycles, " +
      std::to_string(arena_bytes) +
      " bytes read over the wire after recovery and compared; each "
      "recovery replayed " + std::to_string(*recovered_records) +
      " journal records");

  // Acked writes must read back through the ORAM after recovery.
  uint64_t read_back = 0;
  for (auto& c : clients) {
    std::vector<uint64_t> keys = c->written;
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    keys.resize(std::min(keys.size(), kReadBackKeys));
    for (uint64_t key : keys) {
      dpstore::StatusOr<std::optional<Block>> got = c->scheme->QueryRead(key);
      ++c->attempted;
      ++read_back;
      if (!got.ok()) {
        ++c->failed;
      } else if (!got->has_value() || **got != c->model[key]) {
        ++c->mismatches;
      }
    }
  }
  result->lines.push_back("read-back after recovery: " +
                          std::to_string(read_back) + " written keys");
  return true;
}

/// In-memory workloads: the time to restart every server after a crash
/// (no journal to replay), as the median of a few restarts.
std::optional<double> RestartInMemory(Deployment& d,
                                      std::vector<double>* samples) {
  for (int r = 0; r < kInMemoryRestarts; ++r) {
    const std::optional<double> s = d.StartAll();
    if (!s.has_value()) return std::nullopt;
    samples->push_back(*s);
    d.KillAll();
  }
  return Median(*samples);
}

}  // namespace

bool RunWorkload(const RunOptions& options, RunResult* result) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == options.workload) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return false;
  }

  // Write back whatever earlier runs left dirty, so their writeback does
  // not compete with this run's disk traffic.
  ::sync();

  // Set-up: spawn the servers and build every client (which uploads the
  // database). Repeated kSetups times; the last deployment is measured.
  Deployment d;
  Clients clients;
  std::vector<double> setup_s;
  for (int g = 0; g < kSetups; ++g) {
    if (g > 0) {
      clients.clear();
      RunResult discarded;
      StopAndCount(d, &discarded);
      if (!discarded.correct) {
        result->correct = false;
        result->lines.push_back("error: set-up " + std::to_string(g - 1) +
                                "'s servers did not drain cleanly");
      }
      d.RemoveData();
    }
    d = MakeDeployment(*spec, options, g);
    const int64_t start = NowNs();
    if (!d.StartAll().has_value()) return false;
    for (int i = 0; i < kClients; ++i) {
      auto client = std::make_unique<Client>(i);
      if (!BuildClient(*spec, options, d, client.get())) return false;
      clients.push_back(std::move(client));
    }
    setup_s.push_back(Seconds(NowNs() - start));
  }

  const uint64_t n = uint64_t{1} << spec->log2_n;
  for (auto& c : clients) {
    c->rng = dpstore::Rng(options.seed * 1000003 +
                          static_cast<uint64_t>(c->index));
    if (spec->writes) {
      c->model.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        c->model.push_back(dpstore::MarkerBlock(i, spec->value_size));
      }
    }
  }

  Phase warmup;
  warmup.end_ns = NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  RunPhase(*spec, warmup, clients);

  // The measured window. A traced run splits it: the first half untraced
  // (the reference for trace.overhead_pct), the second half traced.
  Window untraced;
  Window traced;
  if (options.trace) {
    untraced = MeasureWindow(*spec, options.seconds / 2, false, clients);
    traced = MeasureWindow(*spec, options.seconds / 2, true, clients);
  } else {
    untraced = MeasureWindow(*spec, options.seconds, false, clients);
  }
  // What the servers' drained lines will cover.
  uint64_t lifetime_ops = 0;
  uint64_t lifetime_submits = 0;
  for (const auto& c : clients) {
    lifetime_ops += c->attempted;
    lifetime_submits += c->trace.submits_total();
  }
  const uint64_t rss_kib = d.PeakRssKib();
  const std::vector<ServerCounters> servers = StopAndCount(d, result);

  std::vector<double> recovery_samples;
  std::optional<double> recovery;
  uint64_t recovered_records = 0;
  if (spec->durable) {
    if (CrashAndRecover(*spec, d, clients, result, &recovery_samples,
                        &recovered_records)) {
      recovery = Median(recovery_samples);
      StopAndCount(d, result);
    }
    d.RemoveData();
  } else {
    recovery = RestartInMemory(d, &recovery_samples);
  }
  if (!recovery.has_value()) return false;

  uint64_t mismatches = 0;
  for (const auto& c : clients) {
    result->attempted += c->attempted;
    result->failed += c->failed;
    mismatches += c->mismatches;
  }
  if (mismatches != 0) result->correct = false;
  const double error_rate =
      result->attempted == 0
          ? 0.0
          : static_cast<double>(result->failed) /
                static_cast<double>(result->attempted);
  result->lines.push_back(
      "answers: " + std::to_string(result->attempted) + " attempted, " +
      std::to_string(result->failed) + " non-OK, " +
      std::to_string(mismatches) + " mismatched reads; error_rate " +
      Format("%.6g", error_rate));

  const Summary all(untraced.latency_ns);
  const Summary calm(untraced.calm_latency_ns);
  result->lines.push_back(
      "host: the hypervisor stole " +
      Format("%.2f", 100.0 * untraced.steal_share) +
      "% of CPU time during the window, " +
      Format("%.2f", 100.0 * untraced.calm_steal_share) + "% in its " +
      std::to_string(untraced.calm_seconds) + " calmest seconds");
  result->lines.push_back(
      "all seconds: " + Format("%.1f", untraced.ops_per_s()) + " ops/s, " +
      "latency (ms) " + all.Describe(5000, 1e-6) + " " +
      all.Describe(9000, 1e-6) + " " + all.Describe(9900, 1e-6) + " " +
      all.Describe(9990, 1e-6));
  result->lines.push_back(
      "calm seconds: " + Format("%.1f", untraced.calm_ops_per_s()) +
      " ops/s, latency (ms) " + calm.Describe(5000, 1e-6) + " " +
      calm.Describe(9000, 1e-6) + " " + calm.Describe(9900, 1e-6));
  if (!options.trace) {
    const std::optional<double> p50 = calm.Quantile(5000);
    const std::optional<double> p90 = calm.Quantile(9000);
    if (!p50.has_value() || !p90.has_value()) {
      std::fprintf(stderr,
                   "perfbench: too few operations in the calm seconds for "
                   "p90 (%llu)\n",
                   static_cast<unsigned long long>(calm.count()));
      return false;
    }
    result->metrics = {
        {"ops_per_s", untraced.calm_ops_per_s(), "1/s", calm.count()},
        {"op_p50_ms", *p50 / 1e6, "ms", calm.count()},
        {"op_p90_ms", *p90 / 1e6, "ms", calm.count()},
        {"setup_s", Median(setup_s), "s", setup_s.size()},
        {"recovery_s", *recovery, "s", recovery_samples.size()},
        {"bytes_per_op",
         static_cast<double>(untraced.totals.bytes_moved +
                             untraced.totals.aux_bytes) /
             static_cast<double>(all.count()),
         "B", all.count()},
        {"server_rss_mb", static_cast<double>(rss_kib) / 1024.0, "MB",
         static_cast<uint64_t>(spec->servers)},
    };
    return true;
  }

  LayerInputs inputs;
  for (auto& c : clients) inputs.traces.push_back(&c->trace);
  inputs.traced_latency_ns = traced.latency_ns;
  inputs.traced_ops = traced.latency_ns.size();
  inputs.traced_totals = traced.totals;
  inputs.lifetime_ops = lifetime_ops;
  inputs.lifetime_submits = lifetime_submits;
  inputs.servers = servers;
  inputs.recovered_records = recovered_records;
  inputs.replay_data_dir = spec->durable ? "replay-data" : "";
  inputs.server_threads = kServerThreads;
  inputs.untraced_ops_per_s = untraced.ops_per_s();
  inputs.traced_ops_per_s = traced.ops_per_s();
  AddLayerMetrics(inputs, result);
  if (!options.spans_path.empty()) {
    if (!WriteSpans(options.spans_path, inputs.traces)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   options.spans_path.c_str());
    }
  }
  return true;
}

}  // namespace perfbench
