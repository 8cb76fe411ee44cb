// FusingBackend (exchange-fusion scheduler) suite.
//
// The load-bearing property: fusion changes the INNER backend's wire
// schedule and nothing else. Transcripts, TransportStats, and the FNV
// reply hash of a pipelined replay must be bit-identical across fusion
// budgets — including budget 1, which degenerates to no fusion — on every
// registered scheme's recorded exchange plan, over every backend topology.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/driver.h"
#include "analysis/workload.h"
#include "core/scheme_registry.h"
#include "storage/cluster.h"
#include "storage/fusing_backend.h"
#include "storage/server.h"
#include "storage/write_back_cache.h"

namespace dpstore {
namespace {

std::vector<Block> MarkerDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

/// Forwarding decorator that does NOT own its inner backend, so a test can
/// keep observing a server that outlives the decorator chain (e.g. across
/// a FusingBackend's destructor).
class BorrowedBackend : public StorageBackend {
 public:
  explicit BorrowedBackend(StorageBackend* inner) : inner_(inner) {}
  uint64_t n() const override { return inner_->n(); }
  size_t block_size() const override { return inner_->block_size(); }
  Status SetArray(std::vector<Block> blocks) override {
    return inner_->SetArray(std::move(blocks));
  }
  void BeginQuery() override { inner_->BeginQuery(); }
  const Transcript& transcript() const override {
    return inner_->transcript();
  }
  void ResetTranscript() override { inner_->ResetTranscript(); }
  void SetTranscriptCountingOnly(bool counting_only) override {
    inner_->SetTranscriptCountingOnly(counting_only);
  }
  Block PeekBlock(BlockId index) const override {
    return inner_->PeekBlock(index);
  }
  void CorruptBlock(BlockId index) override { inner_->CorruptBlock(index); }
  void SetFailureRate(double rate, uint64_t seed = 7) override {
    inner_->SetFailureRate(rate, seed);
  }

 protected:
  StatusOr<StorageReply> Execute(StorageRequest request) override {
    return inner_->Exchange(std::move(request));
  }

 private:
  StorageBackend* inner_;
};

// --- Mechanics ---------------------------------------------------------------

TEST(FusingBackendTest, CoalescesAdjacentSameDirectionExchanges) {
  auto backend = std::make_unique<FusingBackend>(
      std::make_unique<StorageServer>(16, 8), /*max_blocks=*/8);
  ASSERT_TRUE(backend->SetArray(MarkerDatabase(16, 8)).ok());

  // Three small downloads submitted before any Wait: one fused inner
  // exchange.
  Ticket a = backend->Submit(StorageRequest::DownloadOf({1, 2}));
  Ticket b = backend->Submit(StorageRequest::DownloadOf({5}));
  Ticket c = backend->Submit(StorageRequest::DownloadOf({9, 10, 11}));
  auto ra = backend->Wait(a);
  auto rb = backend->Wait(b);
  auto rc = backend->Wait(c);
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  EXPECT_TRUE(IsMarkerBlock(ra->blocks[0], 1));
  EXPECT_TRUE(IsMarkerBlock(ra->blocks[1], 2));
  EXPECT_TRUE(IsMarkerBlock(rb->blocks[0], 5));
  EXPECT_TRUE(IsMarkerBlock(rc->blocks[2], 11));

  EXPECT_EQ(backend->exchanges_in(), 3u);
  EXPECT_EQ(backend->fused_out(), 1u);
  // Inner wire: ONE roundtrip. Adversary view: three, as if unfused.
  EXPECT_EQ(backend->inner().transcript().roundtrip_count(), 1u);
  EXPECT_EQ(backend->transcript().roundtrip_count(), 3u);
  EXPECT_EQ(backend->transcript().download_count(), 6u);
}

TEST(FusingBackendTest, DirectionFlipAndBudgetForceFlush) {
  auto backend = std::make_unique<FusingBackend>(
      std::make_unique<StorageServer>(16, 8), /*max_blocks=*/4);
  Ticket d1 = backend->Submit(StorageRequest::DownloadOf({0, 1}));
  // Direction flip: the download run must be forwarded before the upload
  // is queued.
  Ticket u1 = backend->Submit(
      StorageRequest::UploadOf({3}, {MarkerBlock(3, 8)}));
  EXPECT_EQ(backend->fused_out(), 1u);
  // Budget: 2 + 3 > 4 blocks forces the pending run out first.
  Ticket u2 = backend->Submit(
      StorageRequest::UploadOf({4, 5, 6}, MarkerDatabase(3, 8)));
  ASSERT_TRUE(backend->Wait(d1).ok());
  ASSERT_TRUE(backend->Wait(u1).ok());
  ASSERT_TRUE(backend->Wait(u2).ok());
  EXPECT_EQ(backend->exchanges_in(), 3u);
  EXPECT_TRUE(IsMarkerBlock(backend->inner().PeekBlock(3), 3));
  // u2 uploaded MarkerBlock(0..2) to addresses 4..6.
  EXPECT_TRUE(IsMarkerBlock(backend->inner().PeekBlock(4), 0));
}

TEST(FusingBackendTest, ByteBudgetBoundsFusedPayload) {
  // 8-byte blocks, 16-byte budget: at most 2 blocks fuse.
  auto backend = std::make_unique<FusingBackend>(
      std::make_unique<StorageServer>(16, 8), /*max_blocks=*/100,
      /*max_bytes=*/16);
  Ticket a = backend->Submit(StorageRequest::DownloadOf({0}));
  Ticket b = backend->Submit(StorageRequest::DownloadOf({1}));
  Ticket c = backend->Submit(StorageRequest::DownloadOf({2}));
  ASSERT_TRUE(backend->Wait(a).ok());
  ASSERT_TRUE(backend->Wait(b).ok());
  ASSERT_TRUE(backend->Wait(c).ok());
  EXPECT_EQ(backend->fused_out(), 2u);  // {0,1} fused, {2} alone
  EXPECT_EQ(backend->inner().transcript().roundtrip_count(), 2u);
}

TEST(FusingBackendTest, BudgetOneIsPassThrough) {
  auto backend = std::make_unique<FusingBackend>(
      std::make_unique<StorageServer>(8, 8), /*max_blocks=*/1);
  Ticket a = backend->Submit(StorageRequest::DownloadOf({0}));
  Ticket b = backend->Submit(StorageRequest::DownloadOf({1}));
  ASSERT_TRUE(backend->Wait(a).ok());
  ASSERT_TRUE(backend->Wait(b).ok());
  EXPECT_EQ(backend->fused_out(), 2u);
  EXPECT_EQ(backend->inner().transcript().roundtrip_count(), 2u);
}

TEST(FusingBackendTest, FusedRunFailsAsAUnit) {
  auto backend = std::make_unique<FusingBackend>(
      std::make_unique<StorageServer>(8, 8), /*max_blocks=*/8);
  backend->SetFailureRate(1.0);
  Ticket a = backend->Submit(StorageRequest::DownloadOf({0}));
  Ticket b = backend->Submit(StorageRequest::DownloadOf({1}));
  EXPECT_EQ(backend->Wait(a).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(backend->Wait(b).status().code(), StatusCode::kUnavailable);
  // Nothing recorded on either view.
  EXPECT_EQ(backend->transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend->inner().transcript().TotalBlocksMoved(), 0u);
}

TEST(FusingBackendTest, ValidationErrorsParkIndividually) {
  auto backend = std::make_unique<FusingBackend>(
      std::make_unique<StorageServer>(8, 8), /*max_blocks=*/8);
  Ticket good = backend->Submit(StorageRequest::DownloadOf({0}));
  Ticket bad = backend->Submit(StorageRequest::DownloadOf({99}));
  EXPECT_EQ(backend->Wait(bad).status().code(), StatusCode::kOutOfRange);
  auto reply = backend->Wait(good);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->blocks.size(), 1u);
  EXPECT_EQ(backend->transcript().download_count(), 1u);
}

TEST(FusingBackendTest, PeekSeesQueuedUploadsAndDestructorFlushes) {
  StorageServer server(8, 8);
  {
    FusingBackend backend(std::make_unique<BorrowedBackend>(&server),
                          /*max_blocks=*/64);
    (void)backend.Submit(
        StorageRequest::UploadOf({2}, {MarkerBlock(42, 8)}));
    // Still queued (no Wait yet) — but Peek must serve the fresh copy.
    EXPECT_TRUE(IsMarkerBlock(backend.PeekBlock(2), 42));
    EXPECT_FALSE(IsMarkerBlock(server.PeekBlock(2), 42));
    // Destructor must not drop the queued write-back.
  }
  EXPECT_TRUE(IsMarkerBlock(server.PeekBlock(2), 42));
}

TEST(FusingBackendTest, BeginQueryPreservesQueryBoundaries) {
  auto backend = std::make_unique<FusingBackend>(
      std::make_unique<StorageServer>(8, 8), /*max_blocks=*/64);
  backend->BeginQuery();
  ASSERT_TRUE(backend->Exchange(StorageRequest::DownloadOf({0, 1})).ok());
  backend->BeginQuery();
  ASSERT_TRUE(backend->Exchange(StorageRequest::DownloadOf({2})).ok());
  ASSERT_EQ(backend->transcript().query_count(), 2u);
  EXPECT_EQ(backend->transcript().QueryDownloads(0),
            (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(backend->transcript().QueryDownloads(1),
            (std::vector<BlockId>{2}));
}

// --- Bit-identical replay across budgets, schemes and backends ---------------

struct ReplayResult {
  std::string transcript;
  TransportStats stats;
  uint64_t reply_hash = 0;
};

std::unique_ptr<StorageBackend> MakeInner(const std::string& kind, uint64_t n,
                                          size_t block_size) {
  if (kind == "sharded") return ShardedBackendFactory(3)(n, block_size);
  if (kind == "cached") {
    return std::make_unique<WriteBackCacheBackend>(
        std::make_unique<StorageServer>(n, block_size),
        std::max<size_t>(n / 4, 1));
  }
  return std::make_unique<StorageServer>(n, block_size);
}

ReplayResult ReplayThroughFusion(const std::vector<StorageRequest>& plan,
                                 const std::string& inner_kind, uint64_t n,
                                 size_t block_size, uint64_t budget,
                                 uint64_t depth) {
  FusingBackend backend(MakeInner(inner_kind, n, block_size), budget);
  EXPECT_TRUE(backend.SetArray(MarkerDatabase(n, block_size)).ok());
  auto report = RunExchangePipeline(&backend, plan, depth);
  EXPECT_TRUE(report.ok());
  ReplayResult result;
  result.transcript = backend.transcript().ToString();
  result.stats = StatsFromTranscript(backend.transcript(), block_size);
  result.reply_hash = report->reply_hash;
  return result;
}

/// Records one exchange plan per registered scheme (first backend the
/// scheme builds, full-event transcript), then replays it through fusion
/// budgets {1, 3, 17, unlimited} over every backend topology: everything
/// the adversary (and the client) sees must be bit-identical.
TEST(FusionInvarianceTest, ReplayIsBitIdenticalAcrossBudgetsEverywhere) {
  const uint64_t kBudgets[] = {1, 3, 17, uint64_t{1} << 40};
  const char* kInners[] = {"memory", "sharded", "cached"};

  int schemes_covered = 0;
  for (const std::string& name :
       SchemeRegistry::Instance().RamSchemeNames()) {
    SchemeConfig config;
    config.n = 64;
    config.value_size = 24;
    config.seed = 20260728;
    std::vector<StorageBackend*> observed;
    config.backend_factory = [&observed](uint64_t n, size_t block_size) {
      auto backend = std::make_unique<StorageServer>(n, block_size);
      observed.push_back(backend.get());
      return backend;
    };
    auto scheme = SchemeRegistry::Instance().MakeRam(name, config);
    ASSERT_TRUE(scheme.ok()) << name;
    Rng rng(7);
    auto workload = MakeRamWorkload("uniform", &rng, config.n, 10,
                                    /*write_fraction=*/0.3);
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(RunRamWorkload(scheme->get(), *workload).ok()) << name;
    if (observed.empty()) continue;  // xor_pir: no StorageBackend at all
    StorageBackend* main = observed[0];
    if (main->transcript().TotalBlocksMoved() == 0) continue;
    if (main->transcript().download_count() == 0 &&
        main->transcript().upload_count() == 0) {
      // Eval-only traffic (dpf_pir): the transcript records key sizes as
      // counters, not replayable exchanges — and FusingBackend passes
      // kDpfEval through the queue untouched by construction anyway.
      continue;
    }
    std::vector<StorageRequest> plan =
        ExchangePlanFromTranscript(main->transcript(), main->block_size());
    ASSERT_FALSE(plan.empty()) << name;
    ++schemes_covered;

    for (const char* inner : kInners) {
      ReplayResult reference;
      for (size_t b = 0; b < std::size(kBudgets); ++b) {
        ReplayResult result = ReplayThroughFusion(
            plan, inner, main->n(), main->block_size(), kBudgets[b],
            /*depth=*/4);
        if (b == 0) {
          reference = result;
          continue;
        }
        EXPECT_EQ(result.transcript, reference.transcript)
            << name << " on " << inner << " budget " << kBudgets[b];
        EXPECT_TRUE(result.stats == reference.stats)
            << name << " on " << inner << " budget " << kBudgets[b];
        EXPECT_EQ(result.reply_hash, reference.reply_hash)
            << name << " on " << inner << " budget " << kBudgets[b];
      }
    }
  }
  // The registry must have yielded real coverage, not an all-skip pass.
  EXPECT_GE(schemes_covered, 8);
}

/// The registry's "fused" backend name builds a working scheme whose
/// results match the memory backend exactly.
TEST(FusionInvarianceTest, RegistryFusedBackendMatchesMemory) {
  for (const std::string& backend : {std::string("memory"),
                                     std::string("fused")}) {
    SchemeConfig config;
    config.n = 32;
    config.value_size = 16;
    config.seed = 99;
    config.backend = backend;
    config.fuse_blocks = 8;
    auto scheme = SchemeRegistry::Instance().MakeRam("dp_ram", config);
    ASSERT_TRUE(scheme.ok()) << backend;
    for (BlockId id = 0; id < 8; ++id) {
      auto got = (*scheme)->QueryRead(id);
      ASSERT_TRUE(got.ok()) << backend;
      ASSERT_TRUE(got->has_value());
      EXPECT_TRUE(IsMarkerBlock(**got, id)) << backend << " id " << id;
    }
  }
}

}  // namespace
}  // namespace dpstore
