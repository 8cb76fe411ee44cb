// Tests for the storage transport seam: batched-vs-sequential equivalence,
// roundtrip accounting, counting-only transcripts, and the `sharded`
// topology (a ClusterBackend over K in-memory legs) across shard counts,
// including the non-divisible and K > n geometries.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/cost_model.h"
#include "storage/backend.h"
#include "storage/server.h"
#include "core/scheme_registry.h"
#include "storage/cluster.h"

namespace dpstore {
namespace {

std::vector<Block> MakeDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

// --- Batched vs sequential equivalence --------------------------------------

TEST(BatchedOpsTest, DownloadManyMatchesSequentialDownloads) {
  constexpr uint64_t kN = 16;
  StorageServer batched(kN, 8);
  StorageServer sequential(kN, 8);
  ASSERT_TRUE(batched.SetArray(MakeDatabase(kN, 8)).ok());
  ASSERT_TRUE(sequential.SetArray(MakeDatabase(kN, 8)).ok());

  const std::vector<BlockId> indices = {3, 0, 15, 3, 7};  // dupes allowed
  batched.BeginQuery();
  sequential.BeginQuery();
  auto many = batched.DownloadMany(indices);
  ASSERT_TRUE(many.ok());
  std::vector<Block> singles;
  for (BlockId index : indices) {
    auto one = sequential.Download(index);
    ASSERT_TRUE(one.ok());
    singles.push_back(*one);
  }

  // Identical results and identical transcript events, in order.
  EXPECT_EQ(*many, singles);
  EXPECT_EQ(batched.transcript().events(), sequential.transcript().events());
  EXPECT_EQ(batched.download_count(), indices.size());
  // The batch is ONE roundtrip; the sequential run paid one per block.
  EXPECT_EQ(batched.roundtrip_count(), 1u);
  EXPECT_EQ(sequential.roundtrip_count(), indices.size());
}

TEST(BatchedOpsTest, UploadManyMatchesSequentialUploads) {
  constexpr uint64_t kN = 8;
  StorageServer batched(kN, 8);
  StorageServer sequential(kN, 8);

  const std::vector<BlockId> indices = {1, 4, 6};
  std::vector<Block> blocks;
  for (BlockId index : indices) blocks.push_back(MarkerBlock(100 + index, 8));

  batched.BeginQuery();
  sequential.BeginQuery();
  ASSERT_TRUE(batched.UploadMany(indices, blocks).ok());
  for (size_t i = 0; i < indices.size(); ++i) {
    ASSERT_TRUE(sequential.Upload(indices[i], blocks[i]).ok());
  }

  EXPECT_EQ(batched.transcript().events(), sequential.transcript().events());
  for (BlockId index : indices) {
    EXPECT_EQ(batched.PeekBlock(index), sequential.PeekBlock(index));
    EXPECT_TRUE(IsMarkerBlock(batched.PeekBlock(index), 100 + index));
  }
  // Uploads are fire-and-forget write-backs: no roundtrips either way.
  EXPECT_EQ(batched.roundtrip_count(), 0u);
  EXPECT_EQ(sequential.roundtrip_count(), 0u);
}

TEST(BatchedOpsTest, EmptyBatchesAreFree) {
  StorageServer server(4, 8);
  auto result = server.DownloadMany({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  ASSERT_TRUE(server.UploadMany({}, {}).ok());
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(server.roundtrip_count(), 0u);
}

TEST(BatchedOpsTest, BatchValidationIsAtomic) {
  StorageServer server(4, 8);
  // One bad index poisons the whole batch: nothing is recorded.
  EXPECT_EQ(server.DownloadMany({0, 1, 9}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(server.UploadMany({0, 9}, {ZeroBlock(8), ZeroBlock(8)}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(server.UploadMany({0, 1}, {ZeroBlock(8)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.UploadMany({0, 1}, {ZeroBlock(8), ZeroBlock(7)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(server.roundtrip_count(), 0u);
}

TEST(BatchedOpsTest, InjectedFaultFailsBatchAsAUnit) {
  StorageServer server(8, 8);
  server.SetFailureRate(1.0);
  EXPECT_EQ(server.DownloadMany({0, 1, 2}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server.UploadMany({0}, {ZeroBlock(8)}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
}

// --- The two-phase exchange surface -----------------------------------------

TEST(ExchangeApiTest, SubmitWaitRoundTripsDownloads) {
  StorageServer server(8, 8);
  ASSERT_TRUE(server.SetArray(MakeDatabase(8, 8)).ok());
  Ticket t = server.Submit(StorageRequest::DownloadOf({5, 1, 5}));
  auto reply = server.Wait(t);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->blocks.size(), 3u);
  EXPECT_TRUE(IsMarkerBlock(reply->blocks[0], 5));
  EXPECT_TRUE(IsMarkerBlock(reply->blocks[1], 1));
  EXPECT_TRUE(IsMarkerBlock(reply->blocks[2], 5));
  EXPECT_EQ(server.roundtrip_count(), 1u);
}

TEST(ExchangeApiTest, UploadExchangeRepliesEmptyAndApplies) {
  StorageServer server(8, 8);
  Ticket t = server.Submit(
      StorageRequest::UploadOf({2, 6}, {MarkerBlock(42, 8), MarkerBlock(46, 8)}));
  auto reply = server.Wait(t);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->blocks.empty());
  EXPECT_TRUE(IsMarkerBlock(server.PeekBlock(2), 42));
  EXPECT_TRUE(IsMarkerBlock(server.PeekBlock(6), 46));
  EXPECT_EQ(server.roundtrip_count(), 0u);  // write-backs are free
}

TEST(ExchangeApiTest, TicketsAreSingleUseAndUnknownTicketsRejected) {
  StorageServer server(4, 8);
  Ticket t = server.Submit(StorageRequest::DownloadOf({0}));
  ASSERT_TRUE(server.Wait(t).ok());
  EXPECT_EQ(server.Wait(t).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Wait(424242).status().code(), StatusCode::kInvalidArgument);
}

TEST(ExchangeApiTest, SeveralTicketsMayBeInFlightAndWaitInAnyOrder) {
  StorageServer server(8, 8);
  ASSERT_TRUE(server.SetArray(MakeDatabase(8, 8)).ok());
  Ticket a = server.Submit(StorageRequest::DownloadOf({1}));
  Ticket b = server.Submit(StorageRequest::DownloadOf({2}));
  Ticket c = server.Submit(StorageRequest::DownloadOf({3}));
  auto rb = server.Wait(b);
  auto ra = server.Wait(a);
  auto rc = server.Wait(c);
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  EXPECT_TRUE(IsMarkerBlock(ra->blocks[0], 1));
  EXPECT_TRUE(IsMarkerBlock(rb->blocks[0], 2));
  EXPECT_TRUE(IsMarkerBlock(rc->blocks[0], 3));
}

TEST(ExchangeApiTest, ErrorsSurfaceAtWaitNotSubmit) {
  StorageServer server(4, 8);
  Ticket bad = server.Submit(StorageRequest::DownloadOf({0, 99}));
  EXPECT_EQ(server.Wait(bad).status().code(), StatusCode::kOutOfRange);
  Ticket mixed = server.Submit(
      StorageRequest::UploadOf({0, 1}, {ZeroBlock(8)}));
  EXPECT_EQ(server.Wait(mixed).status().code(), StatusCode::kInvalidArgument);
  // A download exchange must not smuggle payloads.
  StorageRequest confused = StorageRequest::DownloadOf({0});
  confused.payload.Append(ZeroBlock(8));
  EXPECT_EQ(server.Exchange(std::move(confused)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.transcript().TotalBlocksMoved(), 0u);
}

TEST(ExchangeApiTest, NoOpExchangesAreFree) {
  for (const char* name :
       {"memory", "sharded", "cached", "fused", "socket", "retry"}) {
    SCOPED_TRACE(name);
    SchemeConfig config;
    config.backend = name;
    auto factory = BackendFactoryFor(config);
    ASSERT_TRUE(factory.ok()) << factory.status();
    std::unique_ptr<StorageBackend> backend = (*factory)(4, 8);
    backend->SetFailureRate(1.0);  // even a dead wire cannot fail a no-op
    auto download = backend->Exchange(StorageRequest::DownloadOf({}));
    ASSERT_TRUE(download.ok()) << download.status();
    EXPECT_TRUE(download->blocks.empty());
    ASSERT_TRUE(
        backend->Exchange(StorageRequest::UploadOf({}, BlockBuffer())).ok());
    EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
    EXPECT_EQ(backend->roundtrip_count(), 0u);
  }
}

// --- Roundtrip accounting ---------------------------------------------------

TEST(TranscriptRoundtripTest, DownloadsCostRoundtripsUploadsDoNot) {
  StorageServer server(8, 8);
  server.BeginQuery();
  ASSERT_TRUE(server.Download(0).ok());
  ASSERT_TRUE(server.Upload(1, ZeroBlock(8)).ok());
  ASSERT_TRUE(server.DownloadMany({2, 3, 4}).ok());
  ASSERT_TRUE(server.UploadMany({5, 6}, {ZeroBlock(8), ZeroBlock(8)}).ok());
  EXPECT_EQ(server.roundtrip_count(), 2u);  // 1 single + 1 batched download
  EXPECT_EQ(server.transcript().RoundtripsPerQuery(), 2.0);
}

TEST(TranscriptRoundtripTest, CostModelPricesRoundtripsAndBlocks) {
  Transcript t;
  t.BeginQuery();
  t.RecordRoundtrip();
  t.Record(AccessEvent::Type::kDownload, 0);
  t.Record(AccessEvent::Type::kDownload, 1);
  t.Record(AccessEvent::Type::kUpload, 0);
  const CostModel model{10.0, 0.5};
  EXPECT_DOUBLE_EQ(model.TranscriptLatencyMs(t), 10.0 + 3 * 0.5);
}

// --- Counting-only transcripts ----------------------------------------------

TEST(CountingOnlyTranscriptTest, TalliesAdvanceWithoutStoredEvents) {
  StorageServer counting(8, 8);
  StorageServer full(8, 8);
  counting.SetTranscriptCountingOnly(true);
  for (StorageServer* server : {&counting, &full}) {
    server->BeginQuery();
    ASSERT_TRUE(server->DownloadMany({1, 2}).ok());
    ASSERT_TRUE(server->Upload(3, ZeroBlock(8)).ok());
    server->BeginQuery();
    ASSERT_TRUE(server->Download(4).ok());
  }
  // Same tallies...
  EXPECT_EQ(counting.transcript().query_count(), full.transcript().query_count());
  EXPECT_EQ(counting.download_count(), full.download_count());
  EXPECT_EQ(counting.upload_count(), full.upload_count());
  EXPECT_EQ(counting.roundtrip_count(), full.roundtrip_count());
  EXPECT_DOUBLE_EQ(counting.transcript().BlocksPerQuery(),
                   full.transcript().BlocksPerQuery());
  // ...but no per-event memory.
  EXPECT_TRUE(counting.transcript().events().empty());
  EXPECT_EQ(full.transcript().events().size(), 4u);
}

TEST(CountingOnlyTranscriptTest, EnablingDropsStoredEventsKeepsCounters) {
  Transcript t;
  t.BeginQuery();
  t.Record(AccessEvent::Type::kDownload, 7);
  t.SetCountingOnly(true);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.download_count(), 1u);
  EXPECT_EQ(t.query_count(), 1u);
}

TEST(CountingOnlyTranscriptTest, DisablingStartsCleanSoQuerySlicesStaySound) {
  // Queries that ran while events were off have no recorded boundaries, so
  // turning events back on must not leave query_count ahead of the stored
  // query starts (QueryEvents would slice the wrong query).
  Transcript t;
  t.SetCountingOnly(true);
  t.BeginQuery();
  t.Record(AccessEvent::Type::kDownload, 1);
  t.SetCountingOnly(false);
  EXPECT_EQ(t.query_count(), 0u);
  EXPECT_EQ(t.download_count(), 0u);
  t.BeginQuery();
  t.Record(AccessEvent::Type::kDownload, 5);
  EXPECT_EQ(t.query_count(), 1u);
  EXPECT_EQ(t.QueryDownloads(0), (std::vector<BlockId>{5}));
}

// --- Sharded topology --------------------------------------------------------

/// The `sharded` topology as the registry builds it: a ClusterBackend over
/// `shards` single-slot ranges with in-memory legs.
std::unique_ptr<ClusterBackend> MakeSharded(uint64_t n, size_t block_size,
                                            uint64_t shards) {
  std::unique_ptr<StorageBackend> backend =
      ShardedBackendFactory(shards)(n, block_size);
  return std::unique_ptr<ClusterBackend>(
      static_cast<ClusterBackend*>(backend.release()));
}

TEST(ShardedTopologyTest, RoutesEveryAddressAcrossShardCounts) {
  constexpr uint64_t kN = 10;
  // Includes the non-divisible cases (3, 4, 7) and K > n (13).
  for (uint64_t shards : {1u, 2u, 3u, 4u, 7u, 10u, 13u}) {
    std::unique_ptr<ClusterBackend> backend = MakeSharded(kN, 8, shards);
    EXPECT_EQ(backend->n(), kN);
    EXPECT_EQ(backend->config().ranges().size(), shards);
    for (BlockId i = 0; i < kN; ++i) {
      ASSERT_TRUE(backend->Upload(i, MarkerBlock(i, 8)).ok()) << shards;
    }
    // Empty trailing shards (K > n) get no leg at all.
    uint64_t total_held = 0;
    for (uint64_t s = 0; s < shards; ++s) {
      if (backend->leg(s) != nullptr) total_held += backend->leg(s)->n();
    }
    EXPECT_EQ(total_held, kN) << shards;
    for (BlockId i = 0; i < kN; ++i) {
      auto got = backend->Download(i);
      ASSERT_TRUE(got.ok()) << shards;
      EXPECT_TRUE(IsMarkerBlock(*got, i)) << "shards=" << shards << " i=" << i;
      EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(i), i));
    }
    EXPECT_EQ(backend->Download(kN).status().code(), StatusCode::kOutOfRange);
  }
}

TEST(ShardedTopologyTest, SetArraySplitsAcrossShards) {
  constexpr uint64_t kN = 7;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(kN, 8, 3);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(kN, 8)).ok());
  EXPECT_EQ(backend->leg(0)->n(), 3u);  // shards hold 3, 3, 1
  EXPECT_EQ(backend->leg(1)->n(), 3u);
  EXPECT_EQ(backend->leg(2)->n(), 1u);
  for (BlockId i = 0; i < kN; ++i) {
    EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(i), i));
  }
  // Setup is not part of the adversary's view.
  EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend->SetArray(MakeDatabase(kN - 1, 8)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedTopologyTest, BatchedSpanningShardsMatchesSequential) {
  constexpr uint64_t kN = 10;
  std::unique_ptr<ClusterBackend> batched = MakeSharded(kN, 8, 3);
  std::unique_ptr<ClusterBackend> sequential = MakeSharded(kN, 8, 3);
  ASSERT_TRUE(batched->SetArray(MakeDatabase(kN, 8)).ok());
  ASSERT_TRUE(sequential->SetArray(MakeDatabase(kN, 8)).ok());

  // Spans all three shards, out of order, with duplicates.
  const std::vector<BlockId> indices = {9, 0, 4, 5, 0, 8, 2};
  batched->BeginQuery();
  sequential->BeginQuery();
  auto many = batched->DownloadMany(indices);
  ASSERT_TRUE(many.ok());
  std::vector<Block> singles;
  for (BlockId index : indices) {
    auto one = sequential->Download(index);
    ASSERT_TRUE(one.ok());
    singles.push_back(*one);
  }
  EXPECT_EQ(*many, singles);
  // The top-level transcript records global addresses in request order.
  EXPECT_EQ(batched->transcript().events(),
            sequential->transcript().events());
  // Batched fan-out is ONE roundtrip regardless of shards touched.
  EXPECT_EQ(batched->roundtrip_count(), 1u);
  EXPECT_EQ(sequential->roundtrip_count(), indices.size());
}

TEST(ShardedTopologyTest, BatchedUploadRoutesAndRecords) {
  constexpr uint64_t kN = 10;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(kN, 8, 4);
  const std::vector<BlockId> indices = {7, 1, 9};
  std::vector<Block> blocks;
  for (BlockId index : indices) blocks.push_back(MarkerBlock(50 + index, 8));
  backend->BeginQuery();
  ASSERT_TRUE(backend->UploadMany(indices, std::move(blocks)).ok());
  for (BlockId index : indices) {
    EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(index), 50 + index));
  }
  EXPECT_EQ(backend->upload_count(), indices.size());
  EXPECT_EQ(backend->roundtrip_count(), 0u);
}

TEST(ShardedTopologyTest, CorruptRoutesToShards) {
  std::unique_ptr<ClusterBackend> backend = MakeSharded(6, 8, 2);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(6, 8)).ok());
  backend->CorruptBlock(5);
  EXPECT_FALSE(IsMarkerBlock(backend->PeekBlock(5), 5));
  EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(4), 4));
  // Shard 1 holds global blocks [3, 6): block 5 is its local block 2.
  EXPECT_FALSE(IsMarkerBlock(backend->leg(1)->PeekBlock(2), 5));
}

TEST(ShardedTopologyTest, InjectedFaultsFailSpanningBatchesAtomically) {
  constexpr uint64_t kN = 6;
  std::unique_ptr<ClusterBackend> backend = MakeSharded(kN, 8, 2);
  ASSERT_TRUE(backend->SetArray(MakeDatabase(kN, 8)).ok());
  backend->SetFailureRate(1.0);
  EXPECT_EQ(backend->Download(0).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(backend->DownloadMany({0, 5}).status().code(),
            StatusCode::kUnavailable);
  // A failed spanning write-back must leave EVERY shard untouched: faults
  // are rolled once per exchange at the sharded level, never mid-fan-out.
  EXPECT_EQ(backend->UploadMany({0, 5}, {ZeroBlock(8), ZeroBlock(8)}).code(),
            StatusCode::kUnavailable);
  for (BlockId i = 0; i < kN; ++i) {
    EXPECT_TRUE(IsMarkerBlock(backend->PeekBlock(i), i)) << i;
  }
  EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend->leg(0)->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend->leg(1)->transcript().TotalBlocksMoved(), 0u);
  backend->SetFailureRate(0.0);
  EXPECT_TRUE(backend->Download(0).ok());
}

TEST(ShardedTopologyTest, CountingOnlyPropagatesToShards) {
  std::unique_ptr<ClusterBackend> backend = MakeSharded(6, 8, 2);
  backend->SetTranscriptCountingOnly(true);
  backend->BeginQuery();
  ASSERT_TRUE(backend->DownloadMany({0, 5}).ok());
  EXPECT_TRUE(backend->transcript().events().empty());
  EXPECT_TRUE(backend->leg(0)->transcript().events().empty());
  EXPECT_EQ(backend->download_count(), 2u);
  EXPECT_EQ(backend->leg(0)->download_count(), 1u);
  EXPECT_EQ(backend->leg(1)->download_count(), 1u);
}

TEST(ShardedTopologyTest, FactoryProducesWorkingBackend) {
  BackendFactory factory = ShardedBackendFactory(3);
  std::unique_ptr<StorageBackend> backend = factory(8, 16);
  ASSERT_TRUE(backend->Upload(7, MarkerBlock(7, 16)).ok());
  auto got = backend->Download(7);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(IsMarkerBlock(*got, 7));
}

// --- Ticket misuse, uniformly across the whole backend matrix ---------------

/// Every registered backend topology must reject Wait on a never-issued
/// ticket and on an already-consumed ticket with the SAME code
/// (InvalidArgument: the caller broke the Submit/Wait contract; NotFound
/// stays reserved for missing data), and must stay fully usable after the
/// misuse — a bad Wait is a caller bug, not a transport failure.
TEST(TicketMisuseTest, EveryBackendRejectsUnknownAndConsumedTicketsAlike) {
  for (const char* name :
       {"memory", "sharded", "cached", "fused", "socket", "retry"}) {
    SCOPED_TRACE(name);
    SchemeConfig config;
    config.backend = name;  // "socket" spawns an in-process pair server
    auto factory = BackendFactoryFor(config);
    ASSERT_TRUE(factory.ok()) << factory.status();
    std::unique_ptr<StorageBackend> backend = (*factory)(8, 8);
    ASSERT_TRUE(backend->SetArray(MakeDatabase(8, 8)).ok());

    // Never-issued ticket.
    EXPECT_EQ(backend->Wait(987654321).status().code(),
              StatusCode::kInvalidArgument);

    // Already-consumed ticket.
    Ticket t = backend->Submit(StorageRequest::DownloadOf({3}));
    ASSERT_TRUE(backend->Wait(t).ok());
    EXPECT_EQ(backend->Wait(t).status().code(),
              StatusCode::kInvalidArgument);

    // The backend shrugged it off: a fresh exchange still round-trips.
    auto fine = backend->Wait(backend->Submit(StorageRequest::DownloadOf({5})));
    ASSERT_TRUE(fine.ok()) << fine.status();
    EXPECT_TRUE(IsMarkerBlock(fine->blocks[0], 5));
  }
}

}  // namespace
}  // namespace dpstore
