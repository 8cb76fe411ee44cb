#include "core/scheme_registry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "core/bucket_dp_ram.h"
#include "core/dp_ir.h"
#include "core/dp_kvs.h"
#include "core/dp_ram.h"
#include "core/multi_server_dp_ir.h"
#include "core/strawman_ir.h"
#include "oram/cuckoo_oram_kvs.h"
#include "oram/linear_oram.h"
#include "oram/oram_kvs.h"
#include "oram/path_oram.h"
#include "oram/tunable_dp_oram.h"
#include "pir/dpf_pir.h"
#include "pir/trivial_pir.h"
#include "pir/xor_pir.h"
#include "storage/cluster.h"
#include "storage/fusing_backend.h"
#include "storage/retrying_backend.h"
#include "storage/socket_backend.h"
#include "storage/write_back_cache.h"

namespace dpstore {

namespace {

std::vector<Block> MarkerDatabase(uint64_t n, size_t record_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, record_size);
  return db;
}

double EffectiveEpsilon(const SchemeConfig& config) {
  // The Theorem 5.1 sweet spot: eps = Theta(log n) buys constant overhead.
  return config.epsilon > 0.0 ? config.epsilon
                              : std::log(static_cast<double>(config.n));
}

/// A RamScheme that owns the external backends an IR-style scheme queries
/// through, so registry products are self-contained values.
template <typename S>
class OwnedBackendRam : public RamScheme {
 public:
  OwnedBackendRam(std::vector<std::unique_ptr<StorageBackend>> backends,
                  std::unique_ptr<S> scheme)
      : backends_(std::move(backends)), scheme_(std::move(scheme)) {}

  uint64_t n() const override { return scheme_->n(); }
  size_t record_size() const override { return scheme_->record_size(); }
  StatusOr<std::optional<Block>> QueryRead(BlockId id) override {
    return scheme_->QueryRead(id);
  }
  Status QueryWrite(BlockId id, Block value) override {
    return scheme_->QueryWrite(id, std::move(value));
  }
  bool SupportsWrite() const override { return scheme_->SupportsWrite(); }
  TransportStats TransportTotals() const override {
    return scheme_->TransportTotals();
  }

 private:
  std::vector<std::unique_ptr<StorageBackend>> backends_;
  std::unique_ptr<S> scheme_;
};

/// One marker-loaded plaintext backend (the public database of the IR
/// schemes).
StatusOr<std::unique_ptr<StorageBackend>> MakePublicDatabase(
    const SchemeConfig& config, const BackendFactory& factory) {
  std::unique_ptr<StorageBackend> backend =
      MakeBackend(factory, config.n, config.value_size);
  DPSTORE_RETURN_IF_ERROR(
      backend->SetArray(MarkerDatabase(config.n, config.value_size)));
  return backend;
}

/// The Appendix E bucketized DP-RAM exposed through the flat RAM repertoire:
/// n singleton buckets {i}, so bucket i *is* record i (s = 1). Degenerate
/// but exactly the Sigma = {{0}, ..., {n-1}} instantiation the appendix
/// uses to recover Section 6's DP-RAM.
class BucketDpRamScheme : public RamScheme {
 public:
  BucketDpRamScheme(std::unique_ptr<BucketDpRam> ram, size_t record_size)
      : ram_(std::move(ram)), record_size_(record_size) {}

  uint64_t n() const override { return ram_->bucket_count(); }
  size_t record_size() const override { return record_size_; }

  StatusOr<std::optional<Block>> QueryRead(BlockId id) override {
    if (id >= ram_->bucket_count()) {
      return OutOfRangeError("BucketDpRamScheme: id out of range");
    }
    DPSTORE_ASSIGN_OR_RETURN(std::vector<Block> content,
                             ram_->ReadBucket(id));
    return std::optional<Block>(std::move(content[0]));
  }

  Status QueryWrite(BlockId id, Block value) override {
    if (id >= ram_->bucket_count()) {
      return OutOfRangeError("BucketDpRamScheme: id out of range");
    }
    if (value.size() != record_size_) {
      return InvalidArgumentError("BucketDpRamScheme: value size mismatch");
    }
    return ram_->WriteBucket(id, [&value](std::vector<Block>* content) {
      (*content)[0] = value;
    });
  }

  bool SupportsWrite() const override { return true; }
  TransportStats TransportTotals() const override {
    return ram_->server().Stats();
  }

  BucketDpRam& ram() { return *ram_; }

 private:
  std::unique_ptr<BucketDpRam> ram_;
  size_t record_size_;
};

/// Download-everything PIR behind the unified RAM interface: owns its
/// marker-loaded backend, so the one-exchange-per-query transcript rides on
/// whatever topology the config names.
class TrivialPirScheme : public RamScheme {
 public:
  explicit TrivialPirScheme(std::unique_ptr<StorageBackend> backend)
      : backend_(std::move(backend)), pir_(backend_.get()) {}

  uint64_t n() const override { return backend_->n(); }
  size_t record_size() const override { return backend_->block_size(); }
  StatusOr<std::optional<Block>> QueryRead(BlockId id) override {
    DPSTORE_ASSIGN_OR_RETURN(Block block, pir_.Query(id));
    return std::optional<Block>(std::move(block));
  }
  TransportStats TransportTotals() const override { return backend_->Stats(); }

 private:
  std::unique_ptr<StorageBackend> backend_;
  TrivialPir pir_;
};

/// Two-server XOR PIR behind the unified RAM interface. Its servers
/// *compute* (subset XOR) rather than move addressed blocks, so they are
/// not StorageBackends and the config's storage topology does not apply;
/// transport totals are synthesized from the protocol: per query, one
/// n-bit selector up and one block down per server, one roundtrip per
/// server (matching MultiServerDpIr's convention of pricing each
/// parallel-replica exchange individually, so the sweep compares the two
/// multi-server schemes on equal terms).
class XorPirScheme : public RamScheme {
 public:
  XorPirScheme(std::vector<Block> database, size_t record_size, uint64_t seed)
      : record_size_(record_size),
        server0_(database),
        server1_(std::move(database)),
        pir_(&server0_, &server1_, seed) {}

  uint64_t n() const override { return server0_.n(); }
  size_t record_size() const override { return record_size_; }
  StatusOr<std::optional<Block>> QueryRead(BlockId id) override {
    if (id >= server0_.n()) {
      return OutOfRangeError("XorPirScheme: id out of range");
    }
    DPSTORE_ASSIGN_OR_RETURN(Block block, pir_.Query(id));
    ++queries_;
    return std::optional<Block>(std::move(block));
  }
  TransportStats TransportTotals() const override {
    TransportStats stats;
    stats.blocks_moved = 2 * queries_;  // one answer block per server
    stats.bytes_moved = 2 * queries_ * record_size_;
    // The n-bit selectors are opaque non-block query bytes — the same
    // axis dpf_pir's keys land on, so the two schemes' query bandwidth
    // compares directly.
    stats.aux_bytes =
        (server0_.query_bits_received() + server1_.query_bits_received()) / 8;
    stats.roundtrips = 2 * queries_;  // one per server, as in MultiServerDpIr
    return stats;
  }

 private:
  size_t record_size_;
  XorPirServer server0_;
  XorPirServer server1_;
  TwoServerXorPir pir_;
  uint64_t queries_ = 0;
};

/// Two-server DPF PIR behind the unified RAM interface: owns both
/// marker-loaded replica backends, so — unlike xor_pir's bespoke compute
/// servers — the config's storage topology applies and the eval rides on
/// memory, sharded, cached, fused or socket transports alike. Transport
/// totals come straight from the replicas' transcripts: per query per
/// replica, 1 eval roundtrip, 1 aggregate block down, O(lambda log n)
/// key bytes up (TransportStats::aux_bytes).
class DpfPirScheme : public RamScheme {
 public:
  /// `replicas.size() >= 2`; replicas beyond the active pair are failover
  /// spares (see TwoServerDpfPir).
  explicit DpfPirScheme(std::vector<std::unique_ptr<StorageBackend>> replicas)
      : replicas_(std::move(replicas)), pir_(Pointers(replicas_)) {}

  uint64_t n() const override { return pir_.n(); }
  size_t record_size() const override { return pir_.block_size(); }
  StatusOr<std::optional<Block>> QueryRead(BlockId id) override {
    DPSTORE_ASSIGN_OR_RETURN(Block block, pir_.Query(id));
    return std::optional<Block>(std::move(block));
  }
  TransportStats TransportTotals() const override {
    TransportStats stats;
    for (const auto& replica : replicas_) stats += replica->Stats();
    return stats;
  }

 private:
  static std::vector<StorageBackend*> Pointers(
      const std::vector<std::unique_ptr<StorageBackend>>& owned) {
    std::vector<StorageBackend*> pointers;
    for (const auto& replica : owned) pointers.push_back(replica.get());
    return pointers;
  }

  std::vector<std::unique_ptr<StorageBackend>> replicas_;
  TwoServerDpfPir pir_;
};

}  // namespace

StatusOr<BackendFactory> BackendFactoryFor(const SchemeConfig& config) {
  if (config.backend_factory) return config.backend_factory;
  if (config.backend == "memory") {
    return MemoryBackendFactory(config.counting_only_transcript);
  }
  if (config.backend == "sharded") {
    if (config.shards == 0) {
      return InvalidArgumentError("sharded backend needs shards >= 1");
    }
    return ShardedBackendFactory(config.shards,
                                 config.counting_only_transcript);
  }
  if (config.backend == "cached") {
    if (config.cache_blocks == 0) {
      return InvalidArgumentError("cached backend needs cache_blocks >= 1");
    }
    return WriteBackCacheBackendFactory(
        config.cache_blocks,
        MemoryBackendFactory(config.counting_only_transcript),
        config.cache_stats);
  }
  if (config.backend == "fused") {
    if (config.fuse_blocks == 0) {
      return InvalidArgumentError("fused backend needs fuse_blocks >= 1");
    }
    return FusingBackendFactory(
        config.fuse_blocks,
        MemoryBackendFactory(config.counting_only_transcript),
        config.fuse_bytes, config.counting_only_transcript);
  }
  if (config.backend == "socket") {
    SocketBackendOptions options;
    options.socket_path = config.socket_path;
    options.host = config.socket_host;
    options.port = config.socket_port;
    options.max_reconnects = config.socket_reconnect_max;
    if (!options.host.empty() && options.port == 0) {
      return InvalidArgumentError("socket backend needs socket_port with "
                                  "socket_host");
    }
    // A port without a host would otherwise silently fall back to the
    // in-process socketpair server — and measure the wrong transport.
    if (options.host.empty() && options.port != 0) {
      return InvalidArgumentError("socket backend needs socket_host with "
                                  "socket_port");
    }
    if (config.socket_namespace_base == 0) {
      return SocketBackendFactory(std::move(options),
                                  config.counting_only_transcript);
    }
    if (config.socket_namespace_base >> 63 != 0) {
      return InvalidArgumentError(
          "socket_namespace_base must stay below 2^63 (the upper half is "
          "server-minted private ids)");
    }
    // Shared-namespace minting: the k-th backend this factory builds
    // attaches to namespace base + k, so a reconnecting backend finds its
    // arena again (a private namespace would have been freed at the
    // disconnect). Seeds are decorrelated per backend so two replicas
    // never back off in lockstep.
    auto next = std::make_shared<std::atomic<uint64_t>>(0);
    const bool counting = config.counting_only_transcript;
    const uint64_t base = config.socket_namespace_base;
    return BackendFactory(
        [options, next, counting, base](uint64_t n, size_t block_size) {
          SocketBackendOptions per = options;
          const uint64_t k = next->fetch_add(1);
          per.namespace_id = base + k;
          per.attach_or_create = true;
          per.reconnect_seed = options.reconnect_seed + 1 + k;
          auto backend =
              std::make_unique<SocketBackend>(n, block_size, std::move(per));
          if (counting) backend->SetTranscriptCountingOnly(true);
          return std::unique_ptr<StorageBackend>(std::move(backend));
        });
  }
  if (config.backend == "cluster") {
    if (config.cluster_config.empty()) {
      return InvalidArgumentError(
          "cluster backend needs cluster_config text (docs/cluster.md)");
    }
    DPSTORE_ASSIGN_OR_RETURN(ClusterConfig cluster,
                             ClusterConfig::Parse(config.cluster_config));
    if (config.socket_namespace_base >> 63 != 0) {
      return InvalidArgumentError(
          "socket_namespace_base must stay below 2^63 (the upper half is "
          "server-minted private ids)");
    }
    ClusterBackendOptions options;
    options.leg_deadline_ms = config.cluster_leg_deadline_ms;
    options.max_reconnects = config.socket_reconnect_max;
    options.namespace_base = config.socket_namespace_base;
    options.reconnect_seed = config.seed;
    return ClusterBackendFactory(std::move(cluster), std::move(options),
                                 config.counting_only_transcript);
  }
  if (config.backend == "retry") {
    if (config.retry_inner == "retry") {
      return InvalidArgumentError("retry_inner cannot itself be 'retry'");
    }
    SchemeConfig inner = config;
    inner.backend = config.retry_inner;
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory inner_factory,
                             BackendFactoryFor(inner));
    RetryingBackendOptions options;
    options.max_attempts = config.retry_max_attempts;
    options.base_backoff_ms = config.retry_base_ms;
    options.cap_backoff_ms = config.retry_cap_ms;
    options.seed = config.seed;
    return RetryingBackendFactory(std::move(options),
                                  std::move(inner_factory));
  }
  return NotFoundError(
      "unknown backend '" + config.backend +
      "' (known: memory, sharded, cached, fused, socket, cluster, retry)");
}

SchemeRegistry& SchemeRegistry::Instance() {
  static SchemeRegistry* registry = new SchemeRegistry();
  return *registry;
}

void SchemeRegistry::RegisterRam(const std::string& name, RamFactory factory) {
  ram_.emplace_back(name, std::move(factory));
}

void SchemeRegistry::RegisterKvs(const std::string& name, KvsFactory factory) {
  kvs_.emplace_back(name, std::move(factory));
}

StatusOr<std::unique_ptr<RamScheme>> SchemeRegistry::MakeRam(
    const std::string& name, const SchemeConfig& config) const {
  // Later registrations shadow earlier ones.
  for (auto it = ram_.rbegin(); it != ram_.rend(); ++it) {
    if (it->first == name) return it->second(config);
  }
  return NotFoundError("no RAM scheme registered as '" + name + "'");
}

StatusOr<std::unique_ptr<KvsScheme>> SchemeRegistry::MakeKvs(
    const std::string& name, const SchemeConfig& config) const {
  for (auto it = kvs_.rbegin(); it != kvs_.rend(); ++it) {
    if (it->first == name) return it->second(config);
  }
  return NotFoundError("no KVS scheme registered as '" + name + "'");
}

std::vector<std::string> SchemeRegistry::RamSchemeNames() const {
  std::vector<std::string> names;
  for (const auto& [name, factory] : ram_) names.push_back(name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::vector<std::string> SchemeRegistry::KvsSchemeNames() const {
  std::vector<std::string> names;
  for (const auto& [name, factory] : kvs_) names.push_back(name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

SchemeRegistry::SchemeRegistry() {
  // --- RAM repertoire ------------------------------------------------------

  RegisterRam("strawman_ir", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    DPSTORE_ASSIGN_OR_RETURN(std::unique_ptr<StorageBackend> backend,
                             MakePublicDatabase(config, factory));
    auto scheme = std::make_unique<StrawmanIr>(backend.get(), config.seed);
    std::vector<std::unique_ptr<StorageBackend>> backends;
    backends.push_back(std::move(backend));
    return std::unique_ptr<RamScheme>(std::make_unique<
        OwnedBackendRam<StrawmanIr>>(std::move(backends), std::move(scheme)));
  });

  RegisterRam("dp_ir", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    DPSTORE_ASSIGN_OR_RETURN(std::unique_ptr<StorageBackend> backend,
                             MakePublicDatabase(config, factory));
    DpIrOptions options;
    options.epsilon = EffectiveEpsilon(config);
    options.alpha = config.alpha;
    options.seed = config.seed;
    auto scheme = std::make_unique<DpIr>(backend.get(), options);
    std::vector<std::unique_ptr<StorageBackend>> backends;
    backends.push_back(std::move(backend));
    return std::unique_ptr<RamScheme>(std::make_unique<OwnedBackendRam<DpIr>>(
        std::move(backends), std::move(scheme)));
  });

  RegisterRam("multi_server_dp_ir", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    std::vector<std::unique_ptr<StorageBackend>> backends;
    std::vector<StorageBackend*> pointers;
    // Protocol width stays D = 2; endpoints beyond that are failover
    // spares the scheme swaps in when an active replica dies.
    const uint64_t replica_count = std::max<uint64_t>(2, config.replicas);
    for (uint64_t replica = 0; replica < replica_count; ++replica) {
      DPSTORE_ASSIGN_OR_RETURN(std::unique_ptr<StorageBackend> backend,
                               MakePublicDatabase(config, factory));
      pointers.push_back(backend.get());
      backends.push_back(std::move(backend));
    }
    MultiServerDpIrOptions options;
    options.num_servers = 2;
    options.epsilon = EffectiveEpsilon(config);
    options.alpha = config.alpha;
    options.seed = config.seed;
    auto scheme =
        std::make_unique<MultiServerDpIr>(std::move(pointers), options);
    return std::unique_ptr<RamScheme>(
        std::make_unique<OwnedBackendRam<MultiServerDpIr>>(std::move(backends),
                                                           std::move(scheme)));
  });

  RegisterRam("dp_ram", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    DpRamOptions options;
    options.seed = config.seed;
    options.backend_factory = std::move(factory);
    return std::unique_ptr<RamScheme>(std::make_unique<DpRam>(
        MarkerDatabase(config.n, config.value_size), options));
  });

  RegisterRam("bucket_dp_ram", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    std::vector<std::vector<NodeId>> buckets(config.n);
    for (uint64_t i = 0; i < config.n; ++i) buckets[i] = {i};
    BucketDpRamOptions options;
    options.seed = config.seed;
    options.backend_factory = std::move(factory);
    auto ram = std::make_unique<BucketDpRam>(std::move(buckets), config.n,
                                             config.value_size, options);
    DPSTORE_RETURN_IF_ERROR(
        ram->Setup(MarkerDatabase(config.n, config.value_size)));
    return std::unique_ptr<RamScheme>(std::make_unique<BucketDpRamScheme>(
        std::move(ram), config.value_size));
  });

  RegisterRam("linear_oram", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    return std::unique_ptr<RamScheme>(std::make_unique<LinearOram>(
        MarkerDatabase(config.n, config.value_size), config.seed, factory));
  });

  RegisterRam("path_oram", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    PathOramOptions options;
    options.block_size = config.value_size;
    options.seed = config.seed;
    options.backend_factory = std::move(factory);
    return std::unique_ptr<RamScheme>(std::make_unique<PathOram>(
        MarkerDatabase(config.n, config.value_size), options));
  });

  // The Section 6 discussion's computational-assumption-free variant: the
  // database stays plaintext, the overwrite phase is skipped, and the
  // repertoire is retrieval-only (1-2 blocks, 1 roundtrip per query).
  RegisterRam("dp_ram_retrieval", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    DpRamOptions options;
    options.seed = config.seed;
    options.encrypted = false;
    options.backend_factory = std::move(factory);
    return std::unique_ptr<RamScheme>(std::make_unique<DpRam>(
        MarkerDatabase(config.n, config.value_size), options));
  });

  // PIR baselines (read-only repertoire): the Theorem 3.3 errorless floor
  // and the classic two-server information-theoretic construction the
  // paper's introduction contrasts DP-IR against.
  RegisterRam("trivial_pir", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    DPSTORE_ASSIGN_OR_RETURN(std::unique_ptr<StorageBackend> backend,
                             MakePublicDatabase(config, factory));
    return std::unique_ptr<RamScheme>(
        std::make_unique<TrivialPirScheme>(std::move(backend)));
  });

  RegisterRam("xor_pir", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    return std::unique_ptr<RamScheme>(std::make_unique<XorPirScheme>(
        MarkerDatabase(config.n, config.value_size), config.value_size,
        config.seed));
  });

  RegisterRam("dpf_pir", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory0,
                             BackendFactoryFor(config));
    BackendFactory factory1 = factory0;
    if (config.backend == "socket" && !config.socket_path2.empty()) {
      // Replica 1 in its own server process: the two keys of one query
      // really cross into different address spaces.
      SchemeConfig replica1 = config;
      replica1.socket_path = config.socket_path2;
      DPSTORE_ASSIGN_OR_RETURN(factory1, BackendFactoryFor(replica1));
    }
    // Endpoints beyond the active pair are failover spares; they alternate
    // between the two factories so the spare pool spans both server
    // processes when socket_path2 splits the deployment.
    const uint64_t replica_count = std::max<uint64_t>(2, config.replicas);
    std::vector<std::unique_ptr<StorageBackend>> replicas;
    for (uint64_t r = 0; r < replica_count; ++r) {
      DPSTORE_ASSIGN_OR_RETURN(
          std::unique_ptr<StorageBackend> replica,
          MakePublicDatabase(config, r % 2 == 0 ? factory0 : factory1));
      replicas.push_back(std::move(replica));
    }
    return std::unique_ptr<RamScheme>(
        std::make_unique<DpfPirScheme>(std::move(replicas)));
  });

  // The multi-server DP-IR with its real record carried by the DPF eval
  // pair instead of subset planting: same cover-traffic shape, same alpha
  // error branch, sublinear query bytes (see MultiServerDpIrOptions).
  RegisterRam("multi_server_dp_ir_dpf", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    std::vector<std::unique_ptr<StorageBackend>> backends;
    std::vector<StorageBackend*> pointers;
    // The DPF path needs exactly 2 ACTIVE replicas; extras are spares.
    const uint64_t replica_count = std::max<uint64_t>(2, config.replicas);
    for (uint64_t replica = 0; replica < replica_count; ++replica) {
      DPSTORE_ASSIGN_OR_RETURN(std::unique_ptr<StorageBackend> backend,
                               MakePublicDatabase(config, factory));
      pointers.push_back(backend.get());
      backends.push_back(std::move(backend));
    }
    MultiServerDpIrOptions options;
    options.num_servers = 2;
    options.epsilon = EffectiveEpsilon(config);
    options.alpha = config.alpha;
    options.seed = config.seed;
    options.use_dpf = true;
    auto scheme =
        std::make_unique<MultiServerDpIr>(std::move(pointers), options);
    return std::unique_ptr<RamScheme>(
        std::make_unique<OwnedBackendRam<MultiServerDpIr>>(std::move(backends),
                                                           std::move(scheme)));
  });

  RegisterRam("tunable_dp_oram", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<RamScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    TunableDpOramOptions options;
    options.block_size = config.value_size;
    options.seed = config.seed;
    options.backend_factory = std::move(factory);
    return std::unique_ptr<RamScheme>(std::make_unique<TunableDpOram>(
        MarkerDatabase(config.n, config.value_size), options));
  });

  // --- KVS repertoire ------------------------------------------------------

  RegisterKvs("dp_kvs", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<KvsScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    DpKvsOptions options;
    options.capacity = config.n;
    options.value_size = config.value_size;
    options.seed = config.seed;
    options.backend_factory = std::move(factory);
    return std::unique_ptr<KvsScheme>(std::make_unique<DpKvs>(options));
  });

  RegisterKvs("oram_kvs", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<KvsScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    OramKvsOptions options;
    options.capacity = config.n;
    options.value_size = config.value_size;
    options.seed = config.seed;
    options.backend_factory = std::move(factory);
    return std::unique_ptr<KvsScheme>(std::make_unique<OramKvs>(options));
  });

  RegisterKvs("cuckoo_oram_kvs", [](const SchemeConfig& config)
                  -> StatusOr<std::unique_ptr<KvsScheme>> {
    DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory, BackendFactoryFor(config));
    CuckooOramKvsOptions options;
    options.capacity = config.n;
    options.value_size = config.value_size;
    options.seed = config.seed;
    options.backend_factory = std::move(factory);
    return std::unique_ptr<KvsScheme>(
        std::make_unique<CuckooOramKvs>(options));
  });
}

}  // namespace dpstore
