// Cluster mode suite: ClusterConfig parsing to the wire_test standard,
// ClusterBackend routing / replication / failover / rebalance on in-memory
// legs, and — the headline — a cluster-wide differential harness proving
// that a multi-process sharded deployment is observationally identical to
// the single in-memory server: for every registered RAM scheme, on every
// topology in {1x1, 2x1, 4x1, 2x2-replicated}, transcripts, TransportStats
// and pipelined reply hashes must be bit-identical to `memory`. On top of
// that: a node SIGKILLed mid-workload must fail the in-flight exchange
// atomically and hand its range to a replica / warm spare, and a cluster
// fronted by one ChaosProxy per node must stay acked-bit-correct.
//
// The forked sections need DPSTORE_SERVER_BIN (ctest sets it; they
// GTEST_SKIP without it). DPSTORE_TEST_SEED reseeds the randomized
// sections; every run prints the rerun line.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/driver.h"
#include "analysis/workload.h"
#include "core/scheme_registry.h"
#include "crypto/dpf.h"
#include "storage/cluster.h"
#include "storage/server.h"
#include "util/random.h"

#include "chaos_proxy.h"
#include "cluster_harness.h"
#include "server_harness.h"

namespace dpstore {
namespace {

constexpr uint64_t kN = 64;
constexpr size_t kBlockSize = 32;

/// Seed for the randomized sections (fuzz loop, chaos schedule):
/// DPSTORE_TEST_SEED when set, else 1. Printed once with the rerun line so
/// a CI failure is reproducible from the log.
uint64_t TestSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("DPSTORE_TEST_SEED");
    const uint64_t value = env == nullptr ? 1 : std::strtoull(env, nullptr, 10);
    std::fprintf(stderr,
                 "cluster_test: seed=%llu (rerun: DPSTORE_TEST_SEED=%llu "
                 "ctest -R cluster_test)\n",
                 static_cast<unsigned long long>(value),
                 static_cast<unsigned long long>(value));
    return value;
  }();
  return seed;
}

std::vector<Block> MakeDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

/// Renders the config text for a topology without spawning anything: the
/// harness only allocates socket names in its constructor, and in-memory
/// tests never dial them (the leg_factory seam replaces the transport).
std::string ConfigTextFor(const test::ClusterTopology& topology) {
  return test::ClusterHarness("", topology).ConfigText();
}

/// ClusterBackend over in-memory StorageServer legs, with the raw leg
/// pointers exposed per node so tests can peek replica state and inject
/// per-node faults. `servers` is shared-ptr-held because the leg_factory
/// closure outlives this function.
struct InMemoryCluster {
  std::shared_ptr<std::vector<StorageServer*>> servers;
  std::unique_ptr<ClusterBackend> backend;

  StorageServer* server(size_t node) const { return (*servers)[node]; }
};

InMemoryCluster MakeInMemoryCluster(const test::ClusterTopology& topology,
                                    uint64_t n = kN,
                                    size_t block_size = kBlockSize) {
  auto parsed = ClusterConfig::Parse(ConfigTextFor(topology));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  InMemoryCluster cluster;
  cluster.servers = std::make_shared<std::vector<StorageServer*>>(
      topology.NodeCount(), nullptr);
  ClusterBackendOptions options;
  options.leg_factory = [servers = cluster.servers](
                            size_t node, const ClusterNode&, uint64_t leg_n,
                            size_t leg_block_size)
      -> std::unique_ptr<StorageBackend> {
    auto leg = std::make_unique<StorageServer>(leg_n, leg_block_size);
    (*servers)[node] = leg.get();
    return leg;
  };
  cluster.backend = std::make_unique<ClusterBackend>(
      n, block_size, *std::move(parsed), std::move(options));
  return cluster;
}

// --- Config parsing (the wire_test standard) ---------------------------------

constexpr char kCanonicalConfig[] =
    "# canonical cluster config\n"
    "slots 4\n"
    "node a unix:/tmp/dpstore_cluster_a.sock\n"
    "node b tcp:127.0.0.1:47901\n"
    "node c unix:/tmp/dpstore_cluster_c.sock\n"
    "node d unix:/tmp/dpstore_cluster_d.sock\n"
    "node s unix:/tmp/dpstore_cluster_s.sock\n"
    "range 2 3 b c\n"
    "range 0 2 a\n"
    "range 3 4 d\n"
    "spare s\n";

TEST(ClusterConfigTest, ParsesCanonicalConfig) {
  auto config = ClusterConfig::Parse(kCanonicalConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->slots(), 4u);
  ASSERT_EQ(config->nodes().size(), 5u);
  EXPECT_EQ(config->nodes()[0].name, "a");
  EXPECT_EQ(config->nodes()[0].unix_path, "/tmp/dpstore_cluster_a.sock");
  EXPECT_EQ(config->nodes()[1].host, "127.0.0.1");
  EXPECT_EQ(config->nodes()[1].port, 47901);
  EXPECT_TRUE(config->nodes()[1].unix_path.empty());
  // Ranges come back sorted by lo, whatever the declaration order.
  ASSERT_EQ(config->ranges().size(), 3u);
  EXPECT_EQ(config->ranges()[0].lo, 0u);
  EXPECT_EQ(config->ranges()[0].hi, 2u);
  EXPECT_EQ(config->ranges()[1].members,
            (std::vector<size_t>{1, 2}));  // primary b, replica c
  ASSERT_EQ(config->spares().size(), 1u);
  EXPECT_EQ(config->spares()[0], config->NodeIndex("s"));
  EXPECT_EQ(config->NodeIndex("zz"), config->nodes().size());
}

TEST(ClusterConfigTest, SlotsDefaultToRangeCover) {
  auto config = ClusterConfig::Parse(
      "node a unix:/a.sock\n"
      "node b unix:/b.sock\n"
      "range 0 3 a\n"
      "range 3 5 b\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->slots(), 5u);
}

TEST(ClusterConfigTest, ParseFileMissingIsNotFound) {
  auto config =
      ClusterConfig::ParseFile("/tmp/dpstore_cluster_definitely_missing.cfg");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
}

/// Every proper prefix of the canonical config must either parse as a
/// smaller valid cluster or fail with a typed InvalidArgument — never
/// crash, never return some other code. (Most prefixes fail: a cut
/// mid-token malforms a line, and a cut between lines leaves declared
/// nodes unused or the slot cover incomplete.)
TEST(ClusterConfigTest, EveryTruncationFailsCleanly) {
  const std::string text = kCanonicalConfig;
  int rejected = 0;
  for (size_t len = 0; len < text.size(); ++len) {
    auto config = ClusterConfig::Parse(text.substr(0, len));
    if (config.ok()) continue;
    ++rejected;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument)
        << "prefix length " << len << ": " << config.status();
  }
  EXPECT_GT(rejected, 0);
}

TEST(ClusterConfigTest, RejectsEveryMalformation) {
  struct BadConfig {
    const char* why;
    const char* text;
  };
  const BadConfig cases[] = {
      {"empty config", ""},
      {"comment-only config", "# nothing here\n"},
      {"no ranges", "node a unix:/a.sock\n"},
      {"unknown directive", "shard 0 1 a\n"},
      {"slots not a number", "slots four\n"},
      {"slots zero", "slots 0\nnode a unix:/a.sock\nrange 0 1 a\n"},
      {"slots with trailing junk",
       "slots 4x\nnode a unix:/a.sock\nrange 0 4 a\n"},
      {"duplicate slots directive",
       "slots 1\nslots 1\nnode a unix:/a.sock\nrange 0 1 a\n"},
      {"slots not matching the range cover",
       "slots 9\nnode a unix:/a.sock\nrange 0 1 a\n"},
      {"node with missing endpoint", "node a\n"},
      {"node with extra tokens", "node a unix:/a.sock what\n"},
      {"invalid node name", "node a$b unix:/a.sock\nrange 0 1 a$b\n"},
      {"duplicate node name",
       "node a unix:/a.sock\nnode a unix:/b.sock\nrange 0 1 a\n"},
      {"duplicate endpoint",
       "node a unix:/a.sock\nnode b unix:/a.sock\nrange 0 1 a\nrange 1 2 b\n"},
      {"endpoint with unknown scheme",
       "node a http://a.example\nrange 0 1 a\n"},
      {"unix endpoint with empty path", "node a unix:\nrange 0 1 a\n"},
      {"tcp endpoint without port", "node a tcp:127.0.0.1\nrange 0 1 a\n"},
      {"tcp endpoint with empty host", "node a tcp::80\nrange 0 1 a\n"},
      {"tcp endpoint with port 0", "node a tcp:127.0.0.1:0\nrange 0 1 a\n"},
      {"tcp endpoint with port out of range",
       "node a tcp:127.0.0.1:70000\nrange 0 1 a\n"},
      {"range with undeclared node", "node a unix:/a.sock\nrange 0 1 x\n"},
      {"range with no members", "node a unix:/a.sock\nrange 0 1\n"},
      {"range with lo >= hi", "node a unix:/a.sock\nrange 1 1 a\n"},
      {"range with non-numeric bounds",
       "node a unix:/a.sock\nrange lo hi a\n"},
      {"range repeating a member",
       "node a unix:/a.sock\nrange 0 1 a a\n"},
      {"overlapping ranges",
       "node a unix:/a.sock\nnode b unix:/b.sock\n"
       "range 0 2 a\nrange 1 3 b\n"},
      {"duplicate range",
       "node a unix:/a.sock\nnode b unix:/b.sock\n"
       "range 0 1 a\nrange 0 1 b\n"},
      {"gap between ranges",
       "node a unix:/a.sock\nnode b unix:/b.sock\n"
       "range 0 1 a\nrange 2 3 b\n"},
      {"gap before the first range", "node a unix:/a.sock\nrange 1 2 a\n"},
      {"node serving two ranges",
       "node a unix:/a.sock\nrange 0 1 a\nrange 1 2 a\n"},
      {"spare naming an undeclared node",
       "node a unix:/a.sock\nrange 0 1 a\nspare x\n"},
      {"spare that also serves a range",
       "node a unix:/a.sock\nrange 0 1 a\nspare a\n"},
      {"duplicate spare",
       "node a unix:/a.sock\nnode s unix:/s.sock\n"
       "range 0 1 a\nspare s\nspare s\n"},
      {"declared but unused node",
       "node a unix:/a.sock\nnode b unix:/b.sock\nrange 0 1 a\n"},
  };
  for (const BadConfig& bad : cases) {
    auto config = ClusterConfig::Parse(bad.text);
    ASSERT_FALSE(config.ok()) << bad.why;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument)
        << bad.why << ": " << config.status();
    EXPECT_FALSE(config.status().message().empty()) << bad.why;
  }
}

/// Random bytes and randomly mutated canonical configs: Parse must return
/// a typed InvalidArgument or a config whose ranges genuinely tile the
/// slot space — never crash, never hand back an inconsistent topology.
TEST(ClusterConfigTest, RandomBytesFuzzNeverCrashes) {
  Rng rng(TestSeed());
  const std::string canonical = kCanonicalConfig;
  for (int round = 0; round < 400; ++round) {
    std::string text;
    if (round % 2 == 0) {
      text.resize(rng.Uniform(256));
      for (char& c : text) c = static_cast<char>(rng.Uniform(256));
    } else {
      text = canonical;
      for (int flip = 0; flip < 4; ++flip) {
        text[rng.Uniform(text.size())] = static_cast<char>(rng.Uniform(256));
      }
    }
    auto config = ClusterConfig::Parse(text);
    if (!config.ok()) {
      EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument)
          << config.status();
      continue;
    }
    // Survivors must be internally consistent.
    uint64_t covered = 0;
    for (const ClusterRange& range : config->ranges()) {
      EXPECT_EQ(range.lo, covered);
      EXPECT_LT(range.lo, range.hi);
      EXPECT_FALSE(range.members.empty());
      covered = range.hi;
    }
    EXPECT_EQ(covered, config->slots());
  }
}

// --- Routing over in-memory legs ---------------------------------------------

/// A cluster of single-slot ranges (the `sharded` topology) must be
/// observationally identical to the single in-memory server: same
/// transcript, same modeled stats, block for block.
TEST(ClusterRoutingTest, SingleSlotRangesMatchMemory) {
  InMemoryCluster cluster = MakeInMemoryCluster(test::Topology4x1());
  StorageServer memory(kN, kBlockSize);
  ASSERT_TRUE(cluster.backend->SetArray(MakeDatabase(kN, kBlockSize)).ok());
  ASSERT_TRUE(memory.SetArray(MakeDatabase(kN, kBlockSize)).ok());

  for (StorageBackend* backend :
       {static_cast<StorageBackend*>(cluster.backend.get()),
        static_cast<StorageBackend*>(&memory)}) {
    backend->BeginQuery();
    auto spanning = backend->DownloadMany({5, 17, 42, 63, 0, 17});
    ASSERT_TRUE(spanning.ok()) << spanning.status();
    for (size_t i : {size_t{0}, size_t{3}}) {
      EXPECT_FALSE((*spanning)[i].empty());
    }
    ASSERT_TRUE(backend->Upload(9, MarkerBlock(900, kBlockSize)).ok());
    ASSERT_TRUE(backend
                    ->UploadMany({1, 33}, {MarkerBlock(101, kBlockSize),
                                           MarkerBlock(133, kBlockSize)})
                    .ok());
    backend->BeginQuery();
    auto single = backend->DownloadMany({2, 3});
    ASSERT_TRUE(single.ok());
  }

  EXPECT_EQ(cluster.backend->transcript().ToString(),
            memory.transcript().ToString());
  EXPECT_TRUE(cluster.backend->Stats() == memory.Stats());
  EXPECT_EQ(cluster.backend->rows_per_slot(), 16u);
  for (BlockId index : {BlockId{0}, BlockId{15}, BlockId{16}, BlockId{63}}) {
    EXPECT_EQ(cluster.backend->PeekBlock(index), memory.PeekBlock(index))
        << "block " << index;
  }
  // Read-your-writes across the fan-out.
  EXPECT_TRUE(IsMarkerBlock(cluster.backend->PeekBlock(9), 900));
  EXPECT_TRUE(IsMarkerBlock(cluster.backend->PeekBlock(33), 133));
}

/// Uploads must land on every member of the touched range AND every warm
/// spare; downloads must touch primaries only. Asserted against the raw
/// leg arenas — the replication contract, not just the reply.
TEST(ClusterRoutingTest, UploadsMirrorToReplicasAndSpares) {
  InMemoryCluster cluster = MakeInMemoryCluster(test::Topology2x2Spare());
  ASSERT_TRUE(cluster.backend->SetArray(MakeDatabase(kN, kBlockSize)).ok());
  // Topology2x2Spare: range 0 = {n0 primary, n1 replica}, range 1 =
  // {n2, n3}, spare n4. rows_per_slot = 32, so block 3 is range 0.
  ASSERT_TRUE(cluster.backend->Upload(3, MarkerBlock(303, kBlockSize)).ok());

  EXPECT_TRUE(IsMarkerBlock(cluster.server(0)->PeekBlock(3), 303));
  EXPECT_TRUE(IsMarkerBlock(cluster.server(1)->PeekBlock(3), 303));
  EXPECT_TRUE(IsMarkerBlock(cluster.server(4)->PeekBlock(3), 303));
  // Range 1 members never saw the exchange.
  EXPECT_EQ(cluster.server(2)->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(cluster.server(3)->transcript().TotalBlocksMoved(), 0u);

  auto blocks = cluster.backend->DownloadMany({3, 40});
  ASSERT_TRUE(blocks.ok());
  EXPECT_TRUE(IsMarkerBlock((*blocks)[0], 303));
  EXPECT_TRUE(IsMarkerBlock((*blocks)[1], 40));
  // Downloads touch primaries only: the replicas' download tallies stay 0.
  EXPECT_EQ(cluster.server(1)->download_count(), 0u);
  EXPECT_EQ(cluster.server(3)->download_count(), 0u);
  EXPECT_EQ(cluster.server(0)->download_count(), 1u);
  EXPECT_EQ(cluster.server(2)->download_count(), 1u);
  // The cluster's own transcript prices the batch as ONE roundtrip,
  // mirroring included for free (uploads are write-backs).
  EXPECT_EQ(cluster.backend->Stats().roundtrips, 1u);
  EXPECT_EQ(cluster.backend->Stats().blocks_moved, 3u);
}

/// One kDpfEval fans out as per-range evals with the domain offset bumped
/// by each range's block base; the XOR of the range answers must equal the
/// single-server answer for the same key.
TEST(ClusterRoutingTest, DpfEvalXorsAcrossRanges) {
  InMemoryCluster cluster = MakeInMemoryCluster(test::Topology2x1());
  StorageServer memory(kN, kBlockSize);
  ASSERT_TRUE(cluster.backend->SetArray(MakeDatabase(kN, kBlockSize)).ok());
  ASSERT_TRUE(memory.SetArray(MakeDatabase(kN, kBlockSize)).ok());

  auto keys = crypto::DpfGen(/*alpha=*/13, /*depth=*/6);  // 2^6 = kN leaves
  ASSERT_TRUE(keys.ok()) << keys.status();
  for (const crypto::DpfKey& key : {keys->key0, keys->key1}) {
    const std::vector<uint8_t> bytes = key.Serialize();
    auto from_cluster =
        cluster.backend->Exchange(StorageRequest::DpfEvalOf(bytes));
    auto from_memory = memory.Exchange(StorageRequest::DpfEvalOf(bytes));
    ASSERT_TRUE(from_cluster.ok()) << from_cluster.status();
    ASSERT_TRUE(from_memory.ok()) << from_memory.status();
    ASSERT_EQ(from_cluster->blocks.size(), 1u);
    EXPECT_EQ(ToBlock(from_cluster->blocks[0]),
              ToBlock(from_memory->blocks[0]));
  }
  // Same adversary view: one roundtrip + key bytes per eval, both sides.
  EXPECT_EQ(cluster.backend->transcript().ToString(),
            memory.transcript().ToString());
  EXPECT_TRUE(cluster.backend->Stats() == memory.Stats());
}

/// Validation errors and injected faults must park at Submit: no leg runs,
/// nothing is recorded, the legs never see the exchange.
TEST(ClusterRoutingTest, ImmediateErrorsRecordNothing) {
  InMemoryCluster cluster = MakeInMemoryCluster(test::Topology2x1());
  ASSERT_TRUE(cluster.backend->SetArray(MakeDatabase(kN, kBlockSize)).ok());
  const std::string before = cluster.backend->transcript().ToString();

  auto out_of_range = cluster.backend->DownloadMany({kN});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kOutOfRange);

  cluster.backend->SetFailureRate(1.0, TestSeed());
  auto injected = cluster.backend->DownloadMany({0});
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), StatusCode::kUnavailable);
  cluster.backend->SetFailureRate(0.0);

  EXPECT_EQ(cluster.backend->transcript().ToString(), before);
  EXPECT_EQ(cluster.server(0)->download_count(), 0u);
  EXPECT_EQ(cluster.server(1)->download_count(), 0u);
  // An injected cluster-level fault marks no node dead.
  EXPECT_EQ(cluster.backend->failovers(), 0u);
  EXPECT_TRUE(cluster.backend->DownloadMany({0}).ok());
}

// --- Failover over in-memory legs --------------------------------------------

/// The full failover cascade on one range: primary dies -> replica
/// promoted; replica dies -> warm spare adopted; spare dies -> the range
/// is dead and every touching exchange fails Unavailable. Each death
/// fails exactly one exchange, atomically.
TEST(ClusterFailoverTest, PrimaryDeathPromotesReplicaThenSpare) {
  InMemoryCluster cluster = MakeInMemoryCluster(test::Topology2x2Spare());
  ASSERT_TRUE(cluster.backend->SetArray(MakeDatabase(kN, kBlockSize)).ok());
  const std::vector<BlockId> spanning = {1, 40};  // one block per range

  const auto kill = [&](size_t node) {
    cluster.server(node)->SetFailureRate(1.0, TestSeed());
  };
  const auto sweep_is_bit_correct = [&] {
    for (BlockId i = 0; i < kN; ++i) {
      auto got = cluster.backend->Download(i);
      ASSERT_TRUE(got.ok()) << "block " << i << ": " << got.status();
      EXPECT_TRUE(IsMarkerBlock(*got, i)) << "block " << i;
    }
  };

  kill(0);  // primary of range 0
  const TransportStats before = cluster.backend->Stats();
  auto failed = cluster.backend->DownloadMany(spanning);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // Atomic: the healthy range-1 leg answered, but nothing was recorded.
  EXPECT_TRUE(cluster.backend->Stats() == before);
  EXPECT_EQ(cluster.backend->failovers(), 1u);
  ASSERT_FALSE(cluster.backend->failover_log().empty());
  EXPECT_NE(cluster.backend->failover_log()[0].find(
                "failing over primary to replica 'n1'"),
            std::string::npos)
      << cluster.backend->failover_log()[0];
  EXPECT_EQ(cluster.backend->RangeMembers(0), (std::vector<size_t>{1}));
  sweep_is_bit_correct();

  kill(1);  // the promoted replica: group empties, spare n4 adopts
  auto again = cluster.backend->DownloadMany(spanning);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(cluster.backend->failovers(), 2u);
  EXPECT_NE(cluster.backend->failover_log()[1].find(
                "failing over to spare 'n4'"),
            std::string::npos)
      << cluster.backend->failover_log()[1];
  EXPECT_EQ(cluster.backend->RangeMembers(0), (std::vector<size_t>{4}));
  sweep_is_bit_correct();  // the spare was SetArray-seeded: no byte moved

  kill(4);  // no spare left: range 0 is dead
  auto dead = cluster.backend->DownloadMany(spanning);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(cluster.backend->failovers(), 3u);
  auto dead_for_good = cluster.backend->DownloadMany(spanning);
  ASSERT_FALSE(dead_for_good.ok());
  EXPECT_EQ(dead_for_good.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(dead_for_good.status().message().find("no live members"),
            std::string::npos)
      << dead_for_good.status();
  // Range 1 never noticed.
  auto other = cluster.backend->Download(40);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(IsMarkerBlock(*other, 40));
}

/// Upload mirroring is what makes failover lossless: a block overwritten
/// after SetArray must survive the primary's death, on the replica and on
/// the spare.
TEST(ClusterFailoverTest, MirroredUploadsSurviveFailover) {
  InMemoryCluster cluster = MakeInMemoryCluster(test::Topology2x2Spare());
  ASSERT_TRUE(cluster.backend->SetArray(MakeDatabase(kN, kBlockSize)).ok());
  ASSERT_TRUE(cluster.backend->Upload(7, MarkerBlock(707, kBlockSize)).ok());

  cluster.server(0)->SetFailureRate(1.0, TestSeed());
  ASSERT_FALSE(cluster.backend->Download(7).ok());  // kills n0, fails over
  auto from_replica = cluster.backend->Download(7);
  ASSERT_TRUE(from_replica.ok()) << from_replica.status();
  EXPECT_TRUE(IsMarkerBlock(*from_replica, 707));

  cluster.server(1)->SetFailureRate(1.0, TestSeed());
  ASSERT_FALSE(cluster.backend->Download(7).ok());  // spare n4 adopts
  auto from_spare = cluster.backend->Download(7);
  ASSERT_TRUE(from_spare.ok()) << from_spare.status();
  EXPECT_TRUE(IsMarkerBlock(*from_spare, 707));
  // And uploads keep flowing to the adopted member.
  ASSERT_TRUE(cluster.backend->Upload(7, MarkerBlock(708, kBlockSize)).ok());
  EXPECT_TRUE(IsMarkerBlock(cluster.server(4)->PeekBlock(7), 708));
}

// --- Rebalance ---------------------------------------------------------------

TEST(ClusterRebalanceTest, PlanPricesTheMove) {
  InMemoryCluster cluster = MakeInMemoryCluster(
      test::ClusterTopology{{{0}, {1}}, {2}});  // 2 ranges + spare n2
  auto plan = cluster.backend->PlanRebalance(0, "n2", /*batch_blocks=*/8);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->from, "n0");
  EXPECT_EQ(plan->to, "n2");
  EXPECT_EQ(plan->lo_block, 0u);
  EXPECT_EQ(plan->hi_block, 32u);  // rows_per_slot = 32
  EXPECT_EQ(plan->blocks, 32u);
  EXPECT_EQ(plan->bytes, 32u * kBlockSize);
  EXPECT_EQ(plan->batches, 4u);
  EXPECT_EQ(plan->batch_blocks, 8u);

  // Only a remaining spare can be a target; ranges must exist.
  EXPECT_FALSE(cluster.backend->PlanRebalance(0, "n1").ok());
  EXPECT_FALSE(cluster.backend->PlanRebalance(0, "nope").ok());
  EXPECT_FALSE(cluster.backend->PlanRebalance(7, "n2").ok());
  EXPECT_FALSE(cluster.backend->PlanRebalance(0, "n2", 0).ok());
}

TEST(ClusterRebalanceTest, ExecuteMovesTheRangeAndDetectsStaleness) {
  InMemoryCluster cluster =
      MakeInMemoryCluster(test::ClusterTopology{{{0}, {1}}, {2}});
  ASSERT_TRUE(cluster.backend->SetArray(MakeDatabase(kN, kBlockSize)).ok());
  ASSERT_TRUE(cluster.backend->Upload(5, MarkerBlock(505, kBlockSize)).ok());
  const std::string transcript_before =
      cluster.backend->transcript().ToString();

  auto plan = cluster.backend->PlanRebalance(0, "n2", /*batch_blocks=*/8);
  ASSERT_TRUE(plan.ok());
  auto wall_ms = cluster.backend->ExecuteRebalance(*plan);
  ASSERT_TRUE(wall_ms.ok()) << wall_ms.status();
  EXPECT_GE(*wall_ms, 0.0);

  // The range now lives on n2; the copy was operator traffic, invisible in
  // the scheme-level adversary view.
  EXPECT_EQ(cluster.backend->RangeMembers(0),
            (std::vector<size_t>{cluster.backend->config().NodeIndex("n2")}));
  EXPECT_EQ(cluster.backend->transcript().ToString(), transcript_before);
  ASSERT_FALSE(cluster.backend->failover_log().empty());
  EXPECT_NE(cluster.backend->failover_log().back().find("rebalanced range 0"),
            std::string::npos);

  // Bit-correct reads from the new primary, including the pre-move upload.
  for (BlockId i = 0; i < kN; ++i) {
    auto got = cluster.backend->Download(i);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(IsMarkerBlock(*got, i == 5 ? 505 : i)) << "block " << i;
  }
  EXPECT_TRUE(IsMarkerBlock(cluster.server(2)->PeekBlock(5), 505));

  // n2 is no longer a spare: the same plan is stale, and no new plan can
  // target it.
  auto stale = cluster.backend->ExecuteRebalance(*plan);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cluster.backend->PlanRebalance(1, "n2").ok());
}

// --- The differential harness: real multi-process clusters -------------------

struct SchemeRun {
  WorkloadReport report;
  std::vector<std::string> transcripts;
  std::vector<TransportStats> stats;
  std::vector<StorageRequest> plan;
  uint64_t plan_n = 0;
  size_t plan_block_size = 0;
};

/// Runs scheme `name` on the reference workload, over in-memory storage
/// (cluster_text == nullptr) or over a ClusterBackend built fresh from
/// `cluster_text` for every backend the scheme asks for (private leg
/// namespaces: scheme replicas never share server arenas).
SchemeRun RunScheme(const std::string& name,
                    const std::string* cluster_text) {
  SchemeConfig config;
  config.n = 64;
  config.value_size = 24;
  config.seed = 20260728;
  std::vector<StorageBackend*> observed;
  std::shared_ptr<ClusterConfig> cluster;
  if (cluster_text != nullptr) {
    auto parsed = ClusterConfig::Parse(*cluster_text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    cluster = std::make_shared<ClusterConfig>(*std::move(parsed));
  }
  config.backend_factory = [&observed, cluster](uint64_t n, size_t block_size)
      -> std::unique_ptr<StorageBackend> {
    std::unique_ptr<StorageBackend> backend;
    if (cluster != nullptr) {
      backend = std::make_unique<ClusterBackend>(n, block_size, *cluster);
    } else {
      backend = std::make_unique<StorageServer>(n, block_size);
    }
    observed.push_back(backend.get());
    return backend;
  };
  auto scheme = SchemeRegistry::Instance().MakeRam(name, config);
  EXPECT_TRUE(scheme.ok()) << name << ": " << scheme.status();
  Rng rng(7);
  auto workload = MakeRamWorkload("uniform", &rng, config.n, 10,
                                  /*write_fraction=*/0.3);
  EXPECT_TRUE(workload.ok());
  SchemeRun run;
  auto report = RunRamWorkload(scheme->get(), *workload);
  EXPECT_TRUE(report.ok()) << name << ": " << report.status();
  if (report.ok()) run.report = *report;
  for (StorageBackend* backend : observed) {
    run.transcripts.push_back(backend->transcript().ToString());
    run.stats.push_back(backend->Stats());
  }
  if (!observed.empty() && observed[0]->transcript().TotalBlocksMoved() > 0) {
    run.plan = ExchangePlanFromTranscript(observed[0]->transcript(),
                                          observed[0]->block_size());
    run.plan_n = observed[0]->n();
    run.plan_block_size = observed[0]->block_size();
  }
  return run;
}

/// The registry's "cluster" backend plumbing: a missing or malformed
/// cluster_config must surface as a typed error from BackendFactoryFor,
/// before anything dials a socket.
TEST(ClusterRegistryTest, RejectsMissingOrBadClusterConfig) {
  SchemeConfig config;
  config.backend = "cluster";
  auto missing = BackendFactoryFor(config);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  config.cluster_config = "node a unix:/a.sock\n";  // no ranges
  auto malformed = BackendFactoryFor(config);
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
}

/// Happy path through the registry (no backend_factory override): a scheme
/// built with backend = "cluster" + cluster_config runs bit-identically to
/// the same scheme on the default in-memory backend.
TEST(ClusterRegistryTest, BuildsSchemesOverTheClusterBackendName) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) GTEST_SKIP() << "DPSTORE_SERVER_BIN not set";
  test::ClusterHarness harness(bin, test::Topology2x1());
  ASSERT_TRUE(harness.Start());

  WorkloadReport reports[2];
  for (int clustered = 0; clustered < 2; ++clustered) {
    SchemeConfig config;
    config.n = 64;
    config.value_size = 24;
    config.seed = 20260728;
    if (clustered != 0) {
      config.backend = "cluster";
      config.cluster_config = harness.ConfigText();
    }
    auto scheme = SchemeRegistry::Instance().MakeRam("trivial_pir", config);
    ASSERT_TRUE(scheme.ok()) << scheme.status();
    Rng rng(7);
    auto workload = MakeRamWorkload("uniform", &rng, config.n, 10,
                                    /*write_fraction=*/0.3);
    ASSERT_TRUE(workload.ok());
    auto report = RunRamWorkload(scheme->get(), *workload);
    ASSERT_TRUE(report.ok()) << report.status();
    reports[clustered] = *report;
  }
  EXPECT_EQ(reports[0].operations, reports[1].operations);
  EXPECT_EQ(reports[0].perp_results, reports[1].perp_results);
  EXPECT_TRUE(reports[0].transport == reports[1].transport);
  harness.StopAll();
}

/// THE equivalence matrix: every registered RAM scheme, against a real
/// N-process cluster, on every topology — reports, per-backend transcripts
/// and modeled TransportStats bit-identical to the in-memory server, plus
/// genuinely measured (nonzero) wall-clock wherever blocks moved.
TEST(ClusterEquivalenceTest, EverySchemeMatchesMemoryOnEveryTopology) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) GTEST_SKIP() << "DPSTORE_SERVER_BIN not set";

  const struct {
    const char* label;
    test::ClusterTopology topology;
  } topologies[] = {
      {"1x1", test::Topology1x1()},
      {"2x1", test::Topology2x1()},
      {"4x1", test::Topology4x1()},
      {"2x2", test::Topology2x2()},
  };
  for (const auto& entry : topologies) {
    SCOPED_TRACE(entry.label);
    test::ClusterHarness harness(bin, entry.topology);
    ASSERT_TRUE(harness.Start()) << "cluster failed to start";
    const std::string text = harness.ConfigText();

    int schemes_covered = 0;
    for (const std::string& name :
         SchemeRegistry::Instance().RamSchemeNames()) {
      SchemeRun memory = RunScheme(name, nullptr);
      SchemeRun clustered = RunScheme(name, &text);

      EXPECT_EQ(memory.report.operations, clustered.report.operations)
          << name;
      EXPECT_EQ(memory.report.perp_results, clustered.report.perp_results)
          << name;
      EXPECT_TRUE(memory.report.transport == clustered.report.transport)
          << name;
      ASSERT_EQ(memory.transcripts.size(), clustered.transcripts.size())
          << name;
      for (size_t b = 0; b < memory.transcripts.size(); ++b) {
        EXPECT_EQ(memory.transcripts[b], clustered.transcripts[b])
            << name << " backend " << b;
        EXPECT_TRUE(memory.stats[b] == clustered.stats[b])
            << name << " backend " << b;
        EXPECT_EQ(memory.stats[b].measured_wall_ms, 0.0) << name;
        if (clustered.stats[b].blocks_moved > 0) {
          EXPECT_GT(clustered.stats[b].measured_wall_ms, 0.0)
              << name << " backend " << b;
        }
      }
      if (!memory.transcripts.empty()) ++schemes_covered;
    }
    EXPECT_GE(schemes_covered, 8);
    harness.StopAll();  // every node must drain cleanly
  }
}

/// Replays recorded exchange plans through Submit/Wait at pipeline depths
/// {1, 4} against a real 4-node cluster: the FNV reply hash, transport
/// stats and transcript must match memory — pipelining across a process
/// fan-out moves wall-clock only.
TEST(ClusterEquivalenceTest, PipelinedReplayHashesMatchMemory) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) GTEST_SKIP() << "DPSTORE_SERVER_BIN not set";
  test::ClusterHarness harness(bin, test::Topology4x1());
  ASSERT_TRUE(harness.Start());
  auto parsed = ClusterConfig::Parse(harness.ConfigText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  int plans_covered = 0;
  for (const std::string& name :
       SchemeRegistry::Instance().RamSchemeNames()) {
    SchemeRun recorded = RunScheme(name, nullptr);
    if (recorded.plan.empty()) continue;
    ++plans_covered;
    for (uint64_t depth : {uint64_t{1}, uint64_t{4}}) {
      StorageServer memory(recorded.plan_n, recorded.plan_block_size);
      ASSERT_TRUE(memory
                      .SetArray(MakeDatabase(recorded.plan_n,
                                             recorded.plan_block_size))
                      .ok());
      ClusterBackend clustered(recorded.plan_n, recorded.plan_block_size,
                               *parsed);
      ASSERT_TRUE(clustered
                      .SetArray(MakeDatabase(recorded.plan_n,
                                             recorded.plan_block_size))
                      .ok());
      auto memory_report = RunExchangePipeline(&memory, recorded.plan, depth);
      auto cluster_report =
          RunExchangePipeline(&clustered, recorded.plan, depth);
      ASSERT_TRUE(memory_report.ok() && cluster_report.ok()) << name;
      EXPECT_EQ(memory_report->reply_hash, cluster_report->reply_hash)
          << name << " depth " << depth;
      EXPECT_TRUE(memory_report->transport == cluster_report->transport)
          << name << " depth " << depth;
      EXPECT_EQ(memory.transcript().ToString(),
                clustered.transcript().ToString())
          << name << " depth " << depth;
      EXPECT_GT(cluster_report->transport.measured_wall_ms, 0.0) << name;
    }
  }
  EXPECT_GE(plans_covered, 8);
  harness.StopAll();
}

/// The node-kill drill against real processes: SIGKILL the range-0 primary
/// mid-workload. The in-flight exchange must fail atomically (nothing
/// recorded), the replica must take over bit-correctly, a second kill must
/// hand the range to the warm spare, and the survivors must still drain
/// cleanly at the end.
TEST(ClusterFailoverTest, NodeKillFailsOverMidWorkload) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) GTEST_SKIP() << "DPSTORE_SERVER_BIN not set";
  test::ClusterHarness harness(bin, test::Topology2x2Spare());
  ASSERT_TRUE(harness.Start());
  auto parsed = ClusterConfig::Parse(harness.ConfigText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ClusterBackend cluster(kN, kBlockSize, *parsed);
  ASSERT_TRUE(cluster.SetArray(MakeDatabase(kN, kBlockSize)).ok());
  ASSERT_TRUE(cluster.Upload(11, MarkerBlock(111, kBlockSize)).ok());

  const auto sweep_is_bit_correct = [&] {
    for (BlockId i = 0; i < kN; ++i) {
      auto got = cluster.Download(i);
      ASSERT_TRUE(got.ok()) << "block " << i << ": " << got.status();
      EXPECT_TRUE(IsMarkerBlock(*got, i == 11 ? 111 : i)) << "block " << i;
    }
  };
  sweep_is_bit_correct();

  harness.KillNode(0);  // range-0 primary, SIGKILL: no drain, no goodbye
  const TransportStats before = cluster.Stats();
  auto failed = cluster.DownloadMany({1, 40});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable)
      << failed.status();
  EXPECT_TRUE(cluster.Stats() == before);  // atomic: nothing recorded
  EXPECT_EQ(cluster.failovers(), 1u);
  ASSERT_FALSE(cluster.failover_log().empty());
  EXPECT_NE(cluster.failover_log()[0].find("failing over primary"),
            std::string::npos);
  sweep_is_bit_correct();  // the replica serves, mirrored uploads included

  harness.KillNode(1);  // the promoted primary: the warm spare must adopt
  ASSERT_FALSE(cluster.DownloadMany({1, 40}).ok());
  EXPECT_EQ(cluster.failovers(), 2u);
  EXPECT_NE(cluster.failover_log()[1].find("failing over to spare"),
            std::string::npos);
  sweep_is_bit_correct();
  // Writes keep flowing through the adopted topology.
  ASSERT_TRUE(cluster.Upload(12, MarkerBlock(112, kBlockSize)).ok());
  auto reread = cluster.Download(12);
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(IsMarkerBlock(*reread, 112));

  harness.StopAll();  // the three survivors must drain cleanly
}

/// One ChaosProxy in front of every node of a replicated cluster, then a
/// randomized read/write workload. Invariants: every exchange that fails
/// leaves the recorded stats untouched (atomicity), every download that
/// succeeds returns a value some acked or in-flight upload wrote
/// (acked-bit-correctness with upload ambiguity: a failed mirror may have
/// half-applied), and at least one exchange survives the weather.
TEST(ClusterChaosTest, ChaosProxiedClusterStaysAckedBitCorrect) {
  const std::string bin = test::ServerBinary();
  if (bin.empty()) GTEST_SKIP() << "DPSTORE_SERVER_BIN not set";
  test::ClusterHarness harness(bin, test::Topology2x2Spare());
  ASSERT_TRUE(harness.Start());

  test::ChaosOptions chaos;
  chaos.seed = TestSeed();
  chaos.warmup_frames = 4;
  chaos.delay_prob = 0.10;
  chaos.cut_prob = 0.01;
  chaos.reset_prob = 0.01;
  chaos.corrupt_prob = 0.01;
  std::vector<std::unique_ptr<test::ChaosProxy>> proxies;
  std::vector<std::string> proxied_endpoints;
  for (int node = 0; node < harness.NodeCount(); ++node) {
    std::string listen = "/tmp/dpstore_cluster_chaos_" +
                         std::to_string(getpid()) + "_n" +
                         std::to_string(node) + ".sock";
    std::remove(listen.c_str());
    chaos.seed = TestSeed() + static_cast<uint64_t>(node);
    proxies.push_back(std::make_unique<test::ChaosProxy>(
        listen, harness.SocketPath(node), chaos));
    proxies.back()->Start();
    ASSERT_TRUE(test::WaitForListener(listen, /*pid=*/-1));
    proxied_endpoints.push_back("unix:" + listen);
  }
  auto parsed =
      ClusterConfig::Parse(harness.ConfigTextWithEndpoints(proxied_endpoints));
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  for (auto& proxy : proxies) proxy->SetCalm(true);
  ClusterBackend cluster(kN, kBlockSize, *parsed);
  ASSERT_TRUE(cluster.SetArray(MakeDatabase(kN, kBlockSize)).ok());
  for (auto& proxy : proxies) proxy->SetCalm(false);

  // Acceptable-value model: a download of block i must return a value from
  // acceptable[i]. An acked upload replaces the set (every member acked);
  // a failed upload only ADDS its value (some member may have applied it
  // before the weather hit — and a later failover can surface either copy).
  std::vector<std::vector<Block>> acceptable(kN);
  for (uint64_t i = 0; i < kN; ++i) {
    acceptable[i].push_back(MarkerBlock(i, kBlockSize));
  }

  Rng rng(TestSeed());
  int oks = 0;
  uint64_t next_value = 1000;
  for (int op = 0; op < 150; ++op) {
    const BlockId index = rng.Uniform(kN);
    if (rng.UniformDouble() < 0.25) {
      const Block value = MarkerBlock(next_value++, kBlockSize);
      const Status put = cluster.Upload(index, value);
      if (put.ok()) {
        acceptable[index].assign(1, value);
        ++oks;
      } else {
        acceptable[index].push_back(value);
      }
    } else {
      const TransportStats before = cluster.Stats();
      auto got = cluster.Download(index);
      if (!got.ok()) {
        EXPECT_TRUE(cluster.Stats() == before)
            << "failed exchange must record nothing (op " << op << ")";
        continue;
      }
      ++oks;
      bool matched = false;
      for (const Block& candidate : acceptable[index]) {
        if (*got == candidate) matched = true;
      }
      EXPECT_TRUE(matched) << "block " << index
                           << " returned a value nobody ever wrote (op "
                           << op << ")";
    }
  }
  EXPECT_GT(oks, 0) << "no exchange ever survived the chaos schedule";
  if (cluster.failovers() > 0) {
    EXPECT_EQ(cluster.failovers(), cluster.failover_log().size());
  }

  uint64_t frames = 0;
  for (auto& proxy : proxies) {
    proxy->Stop();
    frames += proxy->Counters().frames_forwarded;
  }
  EXPECT_GT(frames, 0u);
  for (int node = 0; node < harness.NodeCount(); ++node) {
    // Chaos may have latched legs, but it never killed a server process:
    // every node must still drain cleanly.
    EXPECT_GT(harness.NodePid(node), 0);
  }
  harness.StopAll();
}

}  // namespace
}  // namespace dpstore
