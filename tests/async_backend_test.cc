// Tests for the pipelined exchange surface on the `sharded` topology (a
// ClusterBackend over K in-memory legs): transcript equivalence with the
// single in-memory server across shard counts, many tickets in flight,
// single-use tickets, exchange atomicity under injected faults, bit-identical
// scheme results and TransportStats on every registered scheme, and
// pipeline-depth invariance of replayed data.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/driver.h"
#include "analysis/workload.h"
#include "core/scheme_registry.h"
#include "storage/cluster.h"
#include "storage/server.h"

namespace dpstore {
namespace {

std::vector<Block> MakeDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

/// The `sharded` topology as the registry builds it.
std::unique_ptr<ClusterBackend> MakeSharded(uint64_t n, size_t block_size,
                                            uint64_t shards) {
  std::unique_ptr<StorageBackend> backend =
      ShardedBackendFactory(shards)(n, block_size);
  return std::unique_ptr<ClusterBackend>(
      static_cast<ClusterBackend*>(backend.release()));
}

// --- Sharded vs memory equivalence -------------------------------------------

TEST(ShardedExchangeTest, MatchesMemoryAcrossShardCounts) {
  constexpr uint64_t kN = 10;
  // Includes the non-divisible cases (3, 7) and K > n (13).
  for (uint64_t shards : {1u, 2u, 3u, 4u, 7u, 10u, 13u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StorageServer memory(kN, 8);
    std::unique_ptr<ClusterBackend> sharded = MakeSharded(kN, 8, shards);
    ASSERT_TRUE(memory.SetArray(MakeDatabase(kN, 8)).ok());
    ASSERT_TRUE(sharded->SetArray(MakeDatabase(kN, 8)).ok());

    // The same mixed operation sequence through the classic narrow calls
    // (each is Submit immediately followed by Wait).
    for (StorageBackend* backend :
         {static_cast<StorageBackend*>(&memory),
          static_cast<StorageBackend*>(sharded.get())}) {
      backend->BeginQuery();
      ASSERT_TRUE(backend->Upload(3, MarkerBlock(103, 8)).ok());
      auto spanning = backend->DownloadMany({9, 0, 4, 3, 0, 8, 2});
      ASSERT_TRUE(spanning.ok());
      backend->BeginQuery();
      ASSERT_TRUE(
          backend
              ->UploadMany({7, 1, 9},
                           {MarkerBlock(57, 8), MarkerBlock(51, 8),
                            MarkerBlock(59, 8)})
              .ok());
      ASSERT_TRUE(backend->Download(7).ok());
    }

    // Bit-identical storage, event-identical global transcripts.
    for (BlockId i = 0; i < kN; ++i) {
      EXPECT_EQ(sharded->PeekBlock(i), memory.PeekBlock(i)) << i;
    }
    EXPECT_EQ(sharded->transcript().events(), memory.transcript().events());
    EXPECT_EQ(sharded->transcript().ToString(),
              memory.transcript().ToString());
    EXPECT_EQ(sharded->roundtrip_count(), memory.roundtrip_count());
    EXPECT_EQ(sharded->Stats(), memory.Stats());
    // Each leg saw exactly its own share of the blocks, in local addresses.
    uint64_t leg_blocks = 0;
    for (uint64_t s = 0; s < shards; ++s) {
      if (sharded->leg(s) == nullptr) continue;
      leg_blocks += sharded->leg(s)->transcript().TotalBlocksMoved();
    }
    EXPECT_EQ(leg_blocks, memory.transcript().TotalBlocksMoved());
  }
}

TEST(ShardedExchangeTest, DownloadResultsMatchRequestOrderWithDupes) {
  constexpr uint64_t kN = 12;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(kN, 8, 5);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(kN, 8)).ok());
  const std::vector<BlockId> indices = {11, 0, 5, 5, 3, 11, 7};
  auto got = backend->DownloadMany(indices);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_TRUE(IsMarkerBlock((*got)[i], indices[i])) << i;
  }
  EXPECT_EQ(backend->roundtrip_count(), 1u);
}

// --- Overlapped exchanges ----------------------------------------------------

TEST(ShardedExchangeTest, ManyExchangesInFlightResolveCorrectly) {
  constexpr uint64_t kN = 64;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(kN, 8, 4);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(kN, 8)).ok());

  // Submit 32 download exchanges before waiting on any.
  std::vector<Ticket> tickets;
  std::vector<std::vector<BlockId>> wanted;
  for (uint64_t q = 0; q < 32; ++q) {
    std::vector<BlockId> indices = {q % kN, (3 * q + 1) % kN, (7 * q) % kN};
    tickets.push_back(
        backend->Submit(StorageRequest::DownloadOf(indices)));
    wanted.push_back(std::move(indices));
  }
  for (size_t q = 0; q < tickets.size(); ++q) {
    auto reply = backend->Wait(tickets[q]);
    ASSERT_TRUE(reply.ok()) << q;
    ASSERT_EQ(reply->blocks.size(), wanted[q].size());
    for (size_t i = 0; i < wanted[q].size(); ++i) {
      EXPECT_TRUE(IsMarkerBlock(reply->blocks[i], wanted[q][i]));
    }
  }
  // 32 exchanges, one roundtrip each, all events recorded.
  EXPECT_EQ(backend->roundtrip_count(), 32u);
  EXPECT_EQ(backend->download_count(), 96u);
}

TEST(ShardedExchangeTest, TicketsAreSingleUse) {
  std::unique_ptr<ClusterBackend> backend = MakeSharded(8, 8, 2);
  Ticket t = backend->Submit(StorageRequest::DownloadOf({1}));
  ASSERT_TRUE(backend->Wait(t).ok());
  EXPECT_EQ(backend->Wait(t).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend->Wait(9999).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Fault atomicity ---------------------------------------------------------

TEST(ShardedExchangeTest, InjectedFaultsFailSpanningExchangesAtomically) {
  constexpr uint64_t kN = 6;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(kN, 8, 2);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(kN, 8)).ok());
  backend->SetFailureRate(1.0);
  // Several spanning exchanges in flight at once: each one's fault is
  // rolled at Submit, before any of its legs is submitted, and surfaces
  // at its own Wait.
  Ticket download = backend->Submit(StorageRequest::DownloadOf({0, 5}));
  Ticket upload = backend->Submit(
      StorageRequest::UploadOf({0, 5}, {ZeroBlock(8), ZeroBlock(8)}));
  Ticket single = backend->Submit(StorageRequest::DownloadOf({0}));
  EXPECT_EQ(backend->Wait(upload).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(backend->Wait(download).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(backend->Wait(single).status().code(), StatusCode::kUnavailable);
  // A failed spanning write-back must leave EVERY shard untouched.
  for (BlockId i = 0; i < kN; ++i) {
    EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(i), i)) << i;
  }
  EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend->leg(0)->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend->leg(1)->transcript().TotalBlocksMoved(), 0u);
  backend->SetFailureRate(0.0);
  EXPECT_TRUE(backend->Download(0).ok());
}

TEST(ShardedExchangeTest, ValidationErrorsSurfaceAtWait) {
  std::unique_ptr<ClusterBackend> backend = MakeSharded(4, 8, 2);
  Ticket bad_index = backend->Submit(StorageRequest::DownloadOf({0, 9}));
  EXPECT_EQ(backend->Wait(bad_index).status().code(),
            StatusCode::kOutOfRange);
  Ticket bad_size =
      backend->Submit(StorageRequest::UploadOf({0}, {ZeroBlock(7)}));
  EXPECT_EQ(backend->Wait(bad_size).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
}

// --- Scheme-level equivalence (the api_redesign acceptance bar) -------------

TEST(ShardedSchemeTest, EveryRamSchemeBitIdenticalToMemory) {
  constexpr uint64_t kN = 64;
  for (uint64_t shards : {1u, 3u, 4u}) {
    for (const std::string& name :
         SchemeRegistry::Instance().RamSchemeNames()) {
      SCOPED_TRACE(name + " shards=" + std::to_string(shards));
      SchemeConfig config;
      config.n = kN;
      config.value_size = 32;
      config.seed = 20260728;
      config.shards = shards;

      config.backend = "memory";
      auto memory = SchemeRegistry::Instance().MakeRam(name, config);
      ASSERT_TRUE(memory.ok()) << memory.status();
      config.backend = "sharded";
      auto sharded = SchemeRegistry::Instance().MakeRam(name, config);
      ASSERT_TRUE(sharded.ok()) << sharded.status();

      // Same mixed workload against both instances: every reply must be
      // bit-identical (schemes draw their coins from the seed, never from
      // the backend), and the aggregate transport must match exactly.
      Rng workload_rng(7);
      auto workload = MakeRamWorkload("zipf:0.99", &workload_rng, kN, 20,
                                      /*write_fraction=*/0.25);
      ASSERT_TRUE(workload.ok());
      for (const RamQuery& query : *workload) {
        if (query.is_write && (*memory)->SupportsWrite()) {
          Block value = MarkerBlock(1000 + query.index, 32);
          ASSERT_TRUE((*memory)->QueryWrite(query.index, value).ok());
          ASSERT_TRUE((*sharded)->QueryWrite(query.index, value).ok());
          continue;
        }
        auto memory_got = (*memory)->QueryRead(query.index);
        auto sharded_got = (*sharded)->QueryRead(query.index);
        ASSERT_TRUE(memory_got.ok()) << memory_got.status();
        ASSERT_TRUE(sharded_got.ok()) << sharded_got.status();
        ASSERT_EQ(memory_got->has_value(), sharded_got->has_value());
        if (memory_got->has_value()) {
          EXPECT_EQ(**memory_got, **sharded_got);
        }
      }
      EXPECT_EQ((*memory)->TransportTotals(), (*sharded)->TransportTotals());
    }
  }
}

TEST(ShardedSchemeTest, EveryKvsSchemeBitIdenticalToMemory) {
  for (const std::string& name : SchemeRegistry::Instance().KvsSchemeNames()) {
    SCOPED_TRACE(name);
    SchemeConfig config;
    config.n = 64;
    config.value_size = 32;
    config.seed = 99;
    config.shards = 3;
    config.backend = "memory";
    auto memory = SchemeRegistry::Instance().MakeKvs(name, config);
    ASSERT_TRUE(memory.ok());
    config.backend = "sharded";
    auto sharded = SchemeRegistry::Instance().MakeKvs(name, config);
    ASSERT_TRUE(sharded.ok());

    Rng rng(5);
    KvsSequence ops = YcsbKvsSequence(&rng, 32, 40, /*read_fraction=*/0.5,
                                      /*zipf_s=*/0.99);
    for (const KvsOp& op : ops) {
      switch (op.type) {
        case KvsOp::Type::kGet: {
          auto a = (*memory)->Get(op.key);
          auto b = (*sharded)->Get(op.key);
          ASSERT_TRUE(a.ok() && b.ok());
          ASSERT_EQ(a->has_value(), b->has_value());
          if (a->has_value()) {
            EXPECT_EQ(**a, **b);
          }
          break;
        }
        case KvsOp::Type::kPut: {
          KvsScheme::Value value = MarkerBlock(op.key, 32);
          ASSERT_TRUE((*memory)->Put(op.key, value).ok());
          ASSERT_TRUE((*sharded)->Put(op.key, value).ok());
          break;
        }
        case KvsOp::Type::kErase:
          if ((*memory)->SupportsErase()) {
            ASSERT_TRUE((*memory)->Erase(op.key).ok());
            ASSERT_TRUE((*sharded)->Erase(op.key).ok());
          }
          break;
      }
    }
    EXPECT_EQ((*memory)->TransportTotals(), (*sharded)->TransportTotals());
  }
}

// --- Pipelined replay --------------------------------------------------------

class PipelineReplayTest : public ::testing::Test {
 protected:
  // Records a real scheme transcript by interposing the backend factory:
  // the first backend a Path ORAM builds is its main tree.
  void SetUp() override {
    SchemeConfig config;
    config.n = 128;
    config.value_size = 32;
    config.seed = 11;
    std::vector<StorageBackend*> observed;
    config.backend_factory = [&observed](uint64_t n, size_t block_size) {
      auto backend = std::make_unique<StorageServer>(n, block_size);
      observed.push_back(backend.get());
      return backend;
    };
    auto scheme = SchemeRegistry::Instance().MakeRam("path_oram", config);
    ASSERT_TRUE(scheme.ok());
    Rng rng(3);
    auto workload = MakeRamWorkload("uniform", &rng, config.n, 24,
                                    /*write_fraction=*/0.25);
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(RunRamWorkload(scheme->get(), *workload).ok());
    ASSERT_FALSE(observed.empty());
    main_tree_ = observed[0];
    plan_ = ExchangePlanFromTranscript(main_tree_->transcript(),
                                       main_tree_->block_size());
    ASSERT_FALSE(plan_.empty());
    n_ = main_tree_->n();
    block_size_ = main_tree_->block_size();
    // Keep the scheme alive until the plan is copied out.
    scheme_ = std::move(*scheme);
  }

  std::unique_ptr<RamScheme> scheme_;
  StorageBackend* main_tree_ = nullptr;
  std::vector<StorageRequest> plan_;
  uint64_t n_ = 0;
  size_t block_size_ = 0;
};

TEST_F(PipelineReplayTest, DepthAndBackendInvariantReplay) {
  // Reference: the single in-memory server at depth 1.
  StorageServer reference(n_, block_size_);
  auto ref_report = RunExchangePipeline(&reference, plan_, 1);
  ASSERT_TRUE(ref_report.ok());
  EXPECT_EQ(ref_report->exchanges, plan_.size());
  EXPECT_GT(ref_report->transport.roundtrips, 0u);

  for (uint64_t shards : {1u, 3u, 4u}) {
    for (uint64_t depth : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " depth=" + std::to_string(depth));
      std::unique_ptr<StorageBackend> backend =
          ShardedBackendFactory(shards)(n_, block_size_);
      auto report = RunExchangePipeline(backend.get(), plan_, depth);
      ASSERT_TRUE(report.ok()) << report.status();
      // Pipeline depth moves wall-clock only: the replayed data and the
      // transport axes are bit-for-bit depth- and topology-invariant.
      EXPECT_EQ(report->reply_hash, ref_report->reply_hash);
      EXPECT_EQ(report->transport, ref_report->transport);
      EXPECT_EQ(report->exchanges, ref_report->exchanges);
    }
  }
}

TEST_F(PipelineReplayTest, RejectsZeroDepth) {
  StorageServer backend(n_, block_size_);
  EXPECT_EQ(RunExchangePipeline(&backend, plan_, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExchangePlanTest, RebuildsPerQueryBatchedShape) {
  StorageServer server(16, 8);
  server.BeginQuery();
  ASSERT_TRUE(server.DownloadMany({1, 2, 3}).ok());
  ASSERT_TRUE(server.Upload(2, ZeroBlock(8)).ok());
  server.BeginQuery();
  ASSERT_TRUE(server.Download(9).ok());

  std::vector<StorageRequest> plan =
      ExchangePlanFromTranscript(server.transcript(), 8);
  ASSERT_EQ(plan.size(), 3u);  // q0: download + upload, q1: download
  EXPECT_EQ(plan[0].op, StorageRequest::Op::kDownload);
  EXPECT_EQ(plan[0].indices, (std::vector<BlockId>{1, 2, 3}));
  EXPECT_EQ(plan[1].op, StorageRequest::Op::kUpload);
  EXPECT_EQ(plan[1].indices, (std::vector<BlockId>{2}));
  EXPECT_EQ(plan[2].indices, (std::vector<BlockId>{9}));

  // Replaying the plan reproduces the transcript's tallies exactly.
  StorageServer replay(16, 8);
  auto report = RunExchangePipeline(&replay, plan, 4);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transport.blocks_moved,
            server.transcript().TotalBlocksMoved());
  EXPECT_EQ(report->transport.roundtrips, server.roundtrip_count());
}

}  // namespace
}  // namespace dpstore
