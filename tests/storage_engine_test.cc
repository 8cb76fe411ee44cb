// StorageEngine (shared multi-tenant block store) suite.
//
// The load-bearing properties of the engine refactor:
//   1. tenancy is invisible — a scheme running over EngineBackends on a
//      busy shared engine produces transcripts and TransportStats
//      bit-identical to the single-client memory path, on every
//      registered scheme;
//   2. namespaces isolate — private namespaces never observe each other,
//      shared namespaces share every byte;
//   3. concurrent exchanges on one namespace serialize at exchange
//      granularity (striped locking: no torn batches), which the TSan CI
//      job additionally checks for data races; read-only exchanges share
//      their stripes, yet an eval still scans one whole-arena snapshot and
//      a stream of overlapping evals cannot starve a writer;
//   4. the StorageService serves N connections as tenants of one engine
//      (shared-namespace visibility across live socket connections), at
//      most `num_threads` exchanges at once: frames read while every
//      execution slot is held queue, fuse across connections of one
//      namespace, and never starve the draining reader's own client.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/driver.h"
#include "analysis/workload.h"
#include "core/scheme_registry.h"
#include "crypto/dpf.h"
#include "server/storage_service.h"
#include "storage/engine.h"
#include "storage/server.h"
#include "storage/wire.h"
#include "util/random.h"

namespace dpstore {
namespace {

std::vector<Block> MarkerDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

// --- Namespace semantics -----------------------------------------------------

TEST(StorageEngineTest, PrivateNamespacesAreIsolated) {
  auto engine = StorageEngine::Create();
  EngineBackend a(engine, 8, 4);
  EngineBackend b(engine, 8, 4);
  ASSERT_TRUE(a.SetArray(MarkerDatabase(8, 4)).ok());

  // b's arena is its own zeroed array, not a view of a's.
  EXPECT_EQ(b.PeekBlock(3), Block(4, 0));
  EXPECT_EQ(a.PeekBlock(3), MarkerBlock(3, 4));

  // Writes through one handle never appear in the other.
  ASSERT_TRUE(a.Upload(5, Block(4, 0xEE)).ok());
  EXPECT_EQ(b.PeekBlock(5), Block(4, 0));

  const StorageEngineCounters counters = engine->Counters();
  EXPECT_EQ(counters.namespaces, 2u);
  EXPECT_EQ(counters.attached_handles, 2u);
}

TEST(StorageEngineTest, PrivateNamespaceFreedOnDetach) {
  auto engine = StorageEngine::Create();
  {
    EngineBackend a(engine, 8, 4);
    EXPECT_EQ(engine->Counters().namespaces, 1u);
  }
  EXPECT_EQ(engine->Counters().namespaces, 0u);
  EXPECT_EQ(engine->Counters().attached_handles, 0u);
}

TEST(StorageEngineTest, SharedNamespaceSharesEveryByte) {
  auto engine = StorageEngine::Create();
  EngineBackend a(engine, 8, 4, /*id=*/42, AttachMode::kAttachOrCreate);
  EngineBackend b(engine, 8, 4, /*id=*/42, AttachMode::kAttachOrCreate);
  EXPECT_EQ(a.namespace_id(), b.namespace_id());
  EXPECT_EQ(engine->Counters().namespaces, 1u);

  ASSERT_TRUE(a.Upload(2, Block(4, 0xAB)).ok());
  EXPECT_EQ(b.PeekBlock(2), Block(4, 0xAB));
  StatusOr<Block> read = b.Download(2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Block(4, 0xAB));

  // Each tenant keeps its OWN adversary view: b's transcript records only
  // b's exchanges.
  EXPECT_EQ(a.transcript().upload_count(), 1u);
  EXPECT_EQ(a.transcript().download_count(), 0u);
  EXPECT_EQ(b.transcript().download_count(), 1u);
  EXPECT_EQ(b.transcript().upload_count(), 0u);
}

TEST(StorageEngineTest, SharedNamespaceOutlivesItsHandles) {
  auto engine = StorageEngine::Create();
  {
    EngineBackend a(engine, 8, 4, /*id=*/9, AttachMode::kAttachOrCreate);
    ASSERT_TRUE(a.Upload(0, Block(4, 0x77)).ok());
  }
  // Reconnecting finds the blocks still there (shared namespaces persist).
  EngineBackend b(engine, 8, 4, /*id=*/9, AttachMode::kAttachOrCreate);
  EXPECT_EQ(b.PeekBlock(0), Block(4, 0x77));
}

TEST(StorageEngineTest, AttachRejectsGeometryMismatchAndIdZero) {
  auto engine = StorageEngine::Create();
  StatusOr<NamespaceHandle> first =
      engine->Attach(7, 16, 8, AttachMode::kAttachOrCreate);
  ASSERT_TRUE(first.ok());

  StatusOr<NamespaceHandle> wrong_n =
      engine->Attach(7, 32, 8, AttachMode::kAttachOrCreate);
  EXPECT_EQ(wrong_n.status().code(), StatusCode::kFailedPrecondition);
  StatusOr<NamespaceHandle> wrong_bs =
      engine->Attach(7, 16, 4, AttachMode::kAttachOrCreate);
  EXPECT_EQ(wrong_bs.status().code(), StatusCode::kFailedPrecondition);

  // Id 0 is reserved for private minting.
  StatusOr<NamespaceHandle> zero =
      engine->Attach(0, 16, 8, AttachMode::kAttachOrCreate);
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorageEngineTest, SharedAttachCannotNameAPrivateNamespace) {
  auto engine = StorageEngine::Create();
  EngineBackend victim(engine, 8, 4);  // private; id minted from the top
  ASSERT_TRUE(victim.SetArray(MarkerDatabase(8, 4)).ok());
  const NamespaceId private_id = victim.namespace_id();
  ASSERT_GE(private_id, kPrivateNamespaceBase);

  // An attacker who predicts the minted id (they count down
  // deterministically from 2^64-1) and presents matching geometry must
  // be refused: the whole upper half of the id space is unattachable.
  StatusOr<NamespaceHandle> guess =
      engine->Attach(private_id, 8, 4, AttachMode::kAttachOrCreate);
  EXPECT_EQ(guess.status().code(), StatusCode::kInvalidArgument);
  StatusOr<NamespaceHandle> base =
      engine->Attach(kPrivateNamespaceBase, 8, 4, AttachMode::kAttachOrCreate);
  EXPECT_EQ(base.status().code(), StatusCode::kInvalidArgument);
  StatusOr<NamespaceHandle> top =
      engine->Attach(~NamespaceId{0}, 8, 4, AttachMode::kAttachOrCreate);
  EXPECT_EQ(top.status().code(), StatusCode::kInvalidArgument);

  // The private tenant is untouched: same arena, still the only handle.
  EXPECT_EQ(victim.PeekBlock(3), MarkerBlock(3, 4));
  EXPECT_EQ(engine->Counters().namespaces, 1u);
  EXPECT_EQ(engine->Counters().attached_handles, 1u);
}

TEST(StorageEngineTest, SharedIdAdjacentToPrivateRangeCannotCollide) {
  // The largest legal shared id sits directly below the private range;
  // creating it and then minting a private namespace must yield two
  // distinct namespaces (the collision would previously destroy the
  // freshly built private State and hand back a dangling handle).
  auto engine = StorageEngine::Create();
  StatusOr<NamespaceHandle> shared = engine->Attach(
      kPrivateNamespaceBase - 1, 8, 4, AttachMode::kAttachOrCreate);
  ASSERT_TRUE(shared.ok());
  EngineBackend priv(engine, 8, 4);
  EXPECT_NE(priv.namespace_id(), shared->id());
  EXPECT_EQ(engine->Counters().namespaces, 2u);
  ASSERT_TRUE(priv.Upload(1, Block(4, 0x5A)).ok());
  EXPECT_EQ(engine->Peek(*shared, 1)->size(), size_t{4});
  EXPECT_EQ(*engine->Peek(*shared, 1), Block(4, 0));  // isolated
}

// --- Concurrency ---------------------------------------------------------

// N writers hammer ONE shared namespace with whole-array uploads (every
// block tagged with the writer's current stamp) while also downloading the
// whole array back. Striped locking must serialize at exchange
// granularity: every download observes exactly one stamp across all
// blocks — a mixed-stamp array is a torn batch. TSan runs this test too.
TEST(StorageEngineTest, SharedNamespaceSerializesWholeExchanges) {
  constexpr uint64_t kBlocks = 64;
  constexpr size_t kBlockSize = 16;
  constexpr unsigned kThreads = 4;
  constexpr int kIters = 200;

  auto engine = StorageEngine::Create(
      StorageEngineOptions{/*num_threads=*/kThreads, /*lock_stripes=*/16, /*persist=*/{}});
  std::vector<BlockId> all(kBlocks);
  for (uint64_t i = 0; i < kBlocks; ++i) all[i] = i;

  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EngineBackend backend(engine, kBlocks, kBlockSize, /*id=*/1,
                            AttachMode::kAttachOrCreate, /*tid=*/t);
      backend.SetTranscriptCountingOnly(true);
      for (int iter = 0; iter < kIters; ++iter) {
        const uint8_t stamp = static_cast<uint8_t>((t * kIters + iter) % 251);
        BlockBuffer payload(kBlockSize);
        for (uint64_t i = 0; i < kBlocks; ++i) {
          MutableBlockView block = payload.AppendUninitialized();
          std::memset(block.data(), stamp, block.size());
        }
        if (!backend.Exchange(StorageRequest::UploadOf(all, std::move(payload)))
                 .ok()) {
          ++torn;
          return;
        }
        StatusOr<StorageReply> read =
            backend.Exchange(StorageRequest::DownloadOf(all));
        if (!read.ok()) {
          ++torn;
          return;
        }
        const BlockView first = read->blocks[0];
        for (uint64_t i = 0; i < kBlocks; ++i) {
          const BlockView block = read->blocks[i];
          if (!std::equal(block.begin(), block.end(), first.begin())) {
            ++torn;
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0);

  const StorageEngineCounters counters = engine->Counters();
  EXPECT_EQ(counters.exchanges, uint64_t{kThreads} * kIters * 2);
  EXPECT_EQ(counters.blocks_moved, uint64_t{kThreads} * kIters * 2 * kBlocks);
}

// Whole-arena images, one per stamp, of random bytes: the eval answer of
// a fixed key differs between stamps, and a scan that mixes two images
// matches neither.
std::vector<std::vector<Block>> StampImages(size_t stamps, uint64_t n,
                                            size_t block_size) {
  std::vector<std::vector<Block>> images(stamps);
  for (size_t s = 0; s < stamps; ++s) {
    Rng rng(1000 + s);
    images[s].resize(n);
    for (Block& block : images[s]) {
      block.resize(block_size);
      for (uint8_t& byte : block) byte = static_cast<uint8_t>(rng.Uniform(256));
    }
  }
  return images;
}

/// The answer a single server returns for `key` over `image`.
Block EvalOver(const crypto::DpfKey& key, const std::vector<Block>& image) {
  const std::vector<uint64_t> bits = crypto::DpfEvalFull(key);
  Block answer(image[0].size(), 0);
  for (size_t i = 0; i < image.size(); ++i) {
    if (((bits[i >> 6] >> (i & 63)) & 1) == 0) continue;
    for (size_t b = 0; b < answer.size(); ++b) answer[b] ^= image[i][b];
  }
  return answer;
}

// Evals hold their stripes SHARED, so they overlap each other, but they
// still hold every stripe at once: writers replacing the whole arena with
// one stamp's image must never be seen half-applied by a scan. Every eval
// answer has to equal that key's answer over exactly one stamp's image.
// Scanning one stripe at a time (releasing each before taking the next)
// lets an upload land mid-scan and fails this. The engine's exchange and
// block counters must also stay exact under the interleaving.
TEST(StorageEngineTest, SharedEvalsSeeWholeArenaSnapshots) {
  constexpr uint8_t kDepth = 10;
  constexpr uint64_t kBlocks = uint64_t{1} << kDepth;
  constexpr size_t kBlockSize = 64;
  constexpr size_t kStamps = 6;
  constexpr size_t kKeys = 4;
  constexpr unsigned kWriters = 2;
  constexpr unsigned kReaders = 3;
  constexpr int kIters = 150;

  auto engine = StorageEngine::Create(StorageEngineOptions{
      /*num_threads=*/kWriters + kReaders, /*lock_stripes=*/64,
      /*persist=*/{}});
  const std::vector<std::vector<Block>> images =
      StampImages(kStamps, kBlocks, kBlockSize);
  std::vector<std::vector<uint8_t>> keys;
  std::vector<std::vector<Block>> expect(kKeys);  // [key][stamp]
  Rng rng(31);
  for (size_t k = 0; k < kKeys; ++k) {
    StatusOr<crypto::DpfKeyPair> pair =
        crypto::DpfGen(rng.Uniform(kBlocks), kDepth);
    ASSERT_TRUE(pair.ok());
    keys.push_back(pair->key0.Serialize());
    for (size_t s = 0; s < kStamps; ++s) {
      expect[k].push_back(EvalOver(pair->key0, images[s]));
    }
  }
  std::vector<BlockId> all(kBlocks);
  for (uint64_t i = 0; i < kBlocks; ++i) all[i] = i;
  {
    EngineBackend setup(engine, kBlocks, kBlockSize, /*id=*/3,
                        AttachMode::kAttachOrCreate);
    ASSERT_TRUE(setup.SetArray(images[0]).ok());
  }

  std::atomic<int> torn{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWriters + kReaders; ++t) {
    threads.emplace_back([&, t] {
      EngineBackend backend(engine, kBlocks, kBlockSize, /*id=*/3,
                            AttachMode::kAttachOrCreate, /*tid=*/t);
      backend.SetTranscriptCountingOnly(true);
      for (int iter = 0; iter < kIters; ++iter) {
        if (t < kWriters) {
          const size_t stamp = (t + iter) % kStamps;
          if (!backend.Exchange(StorageRequest::UploadOf(all, images[stamp]))
                   .ok()) {
            ++failed;
          }
          continue;
        }
        const size_t k = (t + iter) % kKeys;
        StatusOr<StorageReply> answer =
            backend.Exchange(StorageRequest::DpfEvalOf(keys[k]));
        if (!answer.ok()) {
          ++failed;
          continue;
        }
        const BlockView got = answer->blocks[0];
        bool matches = false;
        for (const Block& want : expect[k]) {
          matches = matches || std::equal(got.begin(), got.end(), want.begin());
        }
        if (!matches) ++torn;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(torn.load(), 0);

  // One exchange per upload and per eval; an upload moves every block, an
  // eval returns its one aggregate block.
  const StorageEngineCounters counters = engine->Counters();
  EXPECT_EQ(counters.exchanges, uint64_t{kWriters + kReaders} * kIters);
  EXPECT_EQ(counters.blocks_moved,
            uint64_t{kWriters} * kIters * kBlocks + uint64_t{kReaders} * kIters);
}

// Three threads run evals back to back on one shared namespace, so at
// almost every instant some eval holds every stripe shared. A fourth
// thread's whole-arena uploads must still get through: the stripe locks
// prefer writers, so a waiting upload stops new evals from entering and
// waits only for the evals already in flight. A reader-preferring lock
// lets evals keep entering and can starve the uploads indefinitely.
// Progress is counted in evals that finish while an upload waits, not in
// seconds, so the bound does not depend on host speed, load or the
// sanitizers: writer preference allows about kReaders per upload, and the
// budget is several times that. The arena is 8 MiB so a scan is long next
// to the gap between one thread's evals: with a small arena all three
// evals are often between scans at once, and even a reader-preferring
// lock lets the writer in.
TEST(StorageEngineTest, WholeArenaUploadsProgressUnderBackToBackEvals) {
  constexpr uint8_t kDepth = 14;
  constexpr uint64_t kBlocks = uint64_t{1} << kDepth;
  constexpr size_t kBlockSize = 512;
  constexpr unsigned kReaders = 3;
  constexpr int kUploads = 100;
  constexpr uint64_t kWaitBudget = 50 * kUploads;

  auto engine = StorageEngine::Create(StorageEngineOptions{
      /*num_threads=*/kReaders + 1, /*lock_stripes=*/16, /*persist=*/{}});
  StatusOr<crypto::DpfKeyPair> pair = crypto::DpfGen(kBlocks / 3, kDepth);
  ASSERT_TRUE(pair.ok());
  const std::vector<uint8_t> key = pair->key0.Serialize();
  std::vector<BlockId> all(kBlocks);
  for (uint64_t i = 0; i < kBlocks; ++i) all[i] = i;
  auto upload_of = [&](int stamp) {
    BlockBuffer payload(kBlockSize);
    for (uint64_t i = 0; i < kBlocks; ++i) {
      MutableBlockView block = payload.AppendUninitialized();
      std::memset(block.data(), stamp, block.size());
    }
    return StorageRequest::UploadOf(all, std::move(payload));
  };

  EngineBackend writer_backend(engine, kBlocks, kBlockSize, /*id=*/4,
                               AttachMode::kAttachOrCreate, /*tid=*/kReaders);
  writer_backend.SetTranscriptCountingOnly(true);
  ASSERT_TRUE(writer_backend.Exchange(upload_of(0)).ok());

  std::atomic<bool> writer_waiting{false};
  std::atomic<int> uploads_done{0};
  std::atomic<int> failed{0};
  std::atomic<uint64_t> evals{0};
  std::atomic<uint64_t> evals_while_waiting{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      EngineBackend backend(engine, kBlocks, kBlockSize, /*id=*/4,
                            AttachMode::kAttachOrCreate, /*tid=*/t);
      backend.SetTranscriptCountingOnly(true);
      // Stop once the writer is done, or once the budget is spent so a
      // starved writer finishes and the test reports instead of hanging.
      while (uploads_done.load() < kUploads &&
             evals_while_waiting.load() < kWaitBudget) {
        if (!backend.Exchange(StorageRequest::DpfEvalOf(key)).ok()) ++failed;
        ++evals;
        if (writer_waiting.load()) ++evals_while_waiting;
      }
    });
  }
  // Let the evals get going before the writer arrives.
  while (evals.load() < kReaders) std::this_thread::yield();

  std::thread writer([&] {
    for (int u = 1; u <= kUploads; ++u) {
      StorageRequest request = upload_of(u);
      writer_waiting.store(true);
      if (!writer_backend.Exchange(std::move(request)).ok()) ++failed;
      writer_waiting.store(false);
      ++uploads_done;
    }
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_LT(evals_while_waiting.load(), kWaitBudget)
      << "whole-arena uploads starved behind back-to-back evals";
  EXPECT_EQ(failed.load(), 0);
  // The first upload counts too.
  const StorageEngineCounters counters = engine->Counters();
  EXPECT_EQ(counters.exchanges, uint64_t{kUploads + 1} + evals.load());
  EXPECT_EQ(counters.blocks_moved,
            uint64_t{kUploads + 1} * kBlocks + evals.load());
}

// --- Tenancy is invisible ------------------------------------------------

struct SchemeRun {
  std::vector<std::string> transcripts;
  std::vector<TransportStats> stats;
};

/// Runs one registered scheme over `factory`, returning the adversary
/// view (transcript + stats) of every backend the scheme built, in
/// creation order.
SchemeRun RunSchemeOver(const std::string& name, BackendFactory factory) {
  SchemeConfig config;
  config.n = 64;
  config.value_size = 24;
  config.seed = 20260808;
  std::vector<StorageBackend*> observed;
  config.backend_factory = [&observed, &factory](uint64_t n,
                                                 size_t block_size) {
    auto backend = factory(n, block_size);
    observed.push_back(backend.get());
    return backend;
  };
  SchemeRun run;
  auto scheme = SchemeRegistry::Instance().MakeRam(name, config);
  EXPECT_TRUE(scheme.ok()) << name;
  if (!scheme.ok()) return run;
  Rng rng(7);
  auto workload = MakeRamWorkload("uniform", &rng, config.n, 12,
                                  /*write_fraction=*/0.3);
  EXPECT_TRUE(workload.ok());
  EXPECT_TRUE(RunRamWorkload(scheme->get(), *workload).ok()) << name;
  for (StorageBackend* backend : observed) {
    run.transcripts.push_back(backend->transcript().ToString());
    run.stats.push_back(backend->Stats());
  }
  return run;
}

/// Every registered RAM scheme, run over EngineBackends tenanting a BUSY
/// shared engine (a noise client hammers its own namespace throughout),
/// must produce transcripts and TransportStats bit-identical to the
/// single-client memory path. This is the refactor's acceptance bar: the
/// shared engine changes WHO holds the arena, never what any one client
/// observes.
TEST(EngineEquivalenceTest, SchemeViewBitIdenticalToMemoryOnBusyEngine) {
  auto engine = StorageEngine::Create(
      StorageEngineOptions{/*num_threads=*/4, /*lock_stripes=*/8, /*persist=*/{}});

  // Noise tenant: random-ish exchanges on its own namespace until stopped.
  std::atomic<bool> stop{false};
  std::thread noise([&engine, &stop] {
    EngineBackend backend(engine, 32, 16, /*id=*/0, AttachMode::kPrivate,
                          /*tid=*/3);
    backend.SetTranscriptCountingOnly(true);
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)backend.Upload((i * 7) % 32, Block(16, static_cast<uint8_t>(i)));
      (void)backend.Download((i * 13) % 32);
      ++i;
    }
  });

  int schemes_covered = 0;
  unsigned next_tid = 0;
  for (const std::string& name :
       SchemeRegistry::Instance().RamSchemeNames()) {
    SchemeRun reference = RunSchemeOver(name, MemoryBackendFactory());
    SchemeRun tenant = RunSchemeOver(
        name, [&engine, &next_tid](uint64_t n, size_t block_size) {
          return std::make_unique<EngineBackend>(
              engine, n, block_size, /*id=*/0, AttachMode::kPrivate,
              /*tid=*/next_tid++ % 3);
        });
    ASSERT_EQ(reference.transcripts.size(), tenant.transcripts.size())
        << name;
    for (size_t i = 0; i < reference.transcripts.size(); ++i) {
      EXPECT_EQ(tenant.transcripts[i], reference.transcripts[i])
          << name << " backend " << i;
      EXPECT_TRUE(tenant.stats[i] == reference.stats[i])
          << name << " backend " << i;
    }
    if (!reference.transcripts.empty()) ++schemes_covered;
  }
  stop.store(true);
  noise.join();
  // Real coverage, not an all-skip pass (xor_pir builds no backend).
  EXPECT_GE(schemes_covered, 8);
}

// --- StorageService over live connections ---------------------------------

/// Minimal wire client for driving a service connection directly.
struct WireClient {
  explicit WireClient(int client_fd = -1) : fd(client_fd), reader(fd) {}

  int fd = -1;
  wire::FrameReader reader;
  uint64_t next_ticket = 1;

  StatusOr<wire::DecodedFrame> RoundTrip(wire::EncodedFrame frame) {
    Status written = wire::WriteFrame(fd, frame);
    if (!written.ok()) return written;
    return reader.Read();
  }
};

TEST(StorageServiceTest, ConnectionsShareANamespaceAndDrainCleanly) {
  StorageServiceOptions options;
  options.num_threads = 2;
  auto service = std::make_unique<StorageService>(options);

  int a[2], b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);
  ASSERT_TRUE(service->HandleConnection(a[1]));
  ASSERT_TRUE(service->HandleConnection(b[1]));
  WireClient alice(a[0]);
  WireClient bob(b[0]);

  // Both connections attach-or-create shared namespace 5 (8 x 4).
  for (WireClient* client : {&alice, &bob}) {
    StatusOr<wire::DecodedFrame> ack = client->RoundTrip(
        wire::EncodeOpen(client->next_ticket++, 8, 4, /*namespace_id=*/5,
                         /*mode=*/1));
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(ack->header.type, wire::FrameType::kReplyBlocks);
  }

  // Alice uploads block 6; Bob downloads it.
  StorageRequest upload;
  upload.op = StorageRequest::Op::kUpload;
  upload.indices = {6};
  upload.payload = BlockBuffer(4);
  upload.payload.Append(Block(4, 0xC3));
  StatusOr<wire::DecodedFrame> up_ack =
      alice.RoundTrip(wire::EncodeRequest(upload, alice.next_ticket++));
  ASSERT_TRUE(up_ack.ok());
  ASSERT_EQ(up_ack->header.type, wire::FrameType::kReplyBlocks);

  StorageRequest download;
  download.op = StorageRequest::Op::kDownload;
  download.indices = {6};
  StatusOr<wire::DecodedFrame> got =
      bob.RoundTrip(wire::EncodeRequest(download, bob.next_ticket++));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->header.type, wire::FrameType::kReplyBlocks);
  ASSERT_EQ(got->payload.size(), 1u);
  EXPECT_EQ(ToBlock(got->payload[0]), Block(4, 0xC3));

  // A third connection with mismatched geometry is refused per frame.
  int c[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, c), 0);
  ASSERT_TRUE(service->HandleConnection(c[1]));
  WireClient carol(c[0]);
  StatusOr<wire::DecodedFrame> refused = carol.RoundTrip(
      wire::EncodeOpen(carol.next_ticket++, 99, 4, /*namespace_id=*/5,
                       /*mode=*/1));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->header.type, wire::FrameType::kReplyError);

  ::close(alice.fd);
  ::close(bob.fd);
  ::close(carol.fd);
  service->Drain();
  const StorageServiceCounters counters = service->Counters();
  EXPECT_EQ(counters.connections_accepted, 3u);
  EXPECT_EQ(counters.connections_active, 0u);
  EXPECT_EQ(counters.exchanges_served, 2u);
  EXPECT_EQ(counters.frames_served, 5u);  // three Opens + two exchanges
  service.reset();  // double-drain via the destructor must be a no-op
}

TEST(StorageServiceTest, PreOpenErrorsAreV1AndReservedIdsAreRefused) {
  StorageServiceOptions options;
  options.num_threads = 1;
  StorageService service(options);

  int s[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, s), 0);
  ASSERT_TRUE(service.HandleConnection(s[1]));
  WireClient client(s[0]);

  // A request before any Open draws an error the client can decode even
  // if it only speaks wire v1: the reply is encoded at kMinWireVersion.
  StorageRequest premature;
  premature.op = StorageRequest::Op::kDownload;
  premature.indices = {0};
  StatusOr<wire::DecodedFrame> early =
      client.RoundTrip(wire::EncodeRequest(premature, client.next_ticket++));
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->header.type, wire::FrameType::kReplyError);
  EXPECT_EQ(early->header.version, wire::kMinWireVersion);

  // An attach-or-create Open naming an id in the reserved private half is
  // refused per frame (the connection survives and can re-Open legally).
  StatusOr<wire::DecodedFrame> reserved = client.RoundTrip(wire::EncodeOpen(
      client.next_ticket++, 8, 4,
      /*namespace_id=*/kPrivateNamespaceBase, /*mode=*/1));
  ASSERT_TRUE(reserved.ok());
  EXPECT_EQ(reserved->header.type, wire::FrameType::kReplyError);

  StatusOr<wire::DecodedFrame> ack = client.RoundTrip(
      wire::EncodeOpen(client.next_ticket++, 8, 4, /*namespace_id=*/5,
                       /*mode=*/1));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->header.type, wire::FrameType::kReplyBlocks);
  EXPECT_EQ(ack->header.version, wire::kWireVersion);

  ::close(client.fd);
  service.Drain();
}

TEST(StorageServiceTest, RefusesConnectionsBeyondMaxConns) {
  StorageServiceOptions options;
  options.num_threads = 1;
  options.max_conns = 1;
  StorageService service(options);

  int a[2], b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);
  ASSERT_TRUE(service.HandleConnection(a[1]));
  EXPECT_FALSE(service.HandleConnection(b[1]));  // closed by the service
  ::close(b[0]);
  ::close(a[0]);
  service.Drain();
  const StorageServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.connections_rejected, 1u);
}

/// Polls `done` (a predicate over the service counters) for up to 10 s.
template <typename Pred>
bool EventuallyCounters(const StorageService& service, Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done(service.Counters())) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Opens `count` raw connections on shared namespace `id` (n x bs).
std::vector<WireClient> OpenShared(StorageService& service, size_t count,
                                   uint64_t id, uint64_t n, uint32_t bs) {
  std::vector<WireClient> clients(count);
  for (WireClient& client : clients) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_TRUE(service.HandleConnection(fds[1]));
    client = WireClient(fds[0]);
    StatusOr<wire::DecodedFrame> ack = client.RoundTrip(
        wire::EncodeOpen(client.next_ticket++, n, bs, id, /*mode=*/1));
    EXPECT_TRUE(ack.ok() &&
                ack->header.type == wire::FrameType::kReplyBlocks);
  }
  return clients;
}

StorageRequest DownloadRequest(std::vector<BlockId> indices) {
  StorageRequest request;
  request.op = StorageRequest::Op::kDownload;
  request.indices = std::move(indices);
  return request;
}

// A 4 MiB reply cannot fit a socketpair's buffers, so a client that sends
// such a download and does not read holds the service's only slot in the
// reply write for as long as it likes.
constexpr uint64_t kBigN = 1024;
constexpr uint32_t kBigBlock = 4096;

std::vector<BlockId> AllIndices(uint64_t n) {
  std::vector<BlockId> all(n);
  for (uint64_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

TEST(StorageServiceTest, QueuedFramesFuseAcrossConnectionsBehindTheOnlySlot) {
  StorageServiceOptions options;
  options.num_threads = 1;
  StorageService service(options);
  std::vector<WireClient> clients =
      OpenShared(service, 3, /*id=*/7, kBigN, kBigBlock);
  WireClient& a = clients[0];
  WireClient& b = clients[1];
  WireClient& c = clients[2];
  StatusOr<wire::DecodedFrame> set = a.RoundTrip(wire::EncodeSetArray(
      BlockBuffer::Pack(MarkerDatabase(kBigN, kBigBlock)), a.next_ticket++));
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set->header.type, wire::FrameType::kReplyBlocks);
  // A set-up frame can already have queued: a client sees its reply
  // before the executing reader has released the slot.
  const uint64_t engine_before = service.Counters().engine.exchanges;
  const uint64_t queued_before = service.Counters().frames_queued;

  // A takes the slot: its reader executes the whole-arena download, then
  // blocks writing a reply nobody reads yet.
  ASSERT_TRUE(wire::WriteFrame(a.fd, wire::EncodeRequest(
                                         DownloadRequest(AllIndices(kBigN)),
                                         a.next_ticket++))
                  .ok());
  ASSERT_TRUE(EventuallyCounters(service, [&](const auto& counters) {
    return counters.engine.exchanges == engine_before + 1;
  }));
  // B and C find no free slot: their readers queue the frames and go back
  // to reading.
  ASSERT_TRUE(wire::WriteFrame(b.fd, wire::EncodeRequest(
                                         DownloadRequest({1, 2}),
                                         b.next_ticket++))
                  .ok());
  ASSERT_TRUE(wire::WriteFrame(c.fd, wire::EncodeRequest(
                                         DownloadRequest({3}),
                                         c.next_ticket++))
                  .ok());
  ASSERT_TRUE(EventuallyCounters(service, [&](const auto& counters) {
    return counters.frames_queued == queued_before + 2;
  }));
  EXPECT_EQ(service.Counters().exchanges_served, 0u);

  // A reads its reply; the slot's release drains the queue, and the two
  // same-namespace downloads ride one fused engine exchange.
  StatusOr<wire::DecodedFrame> whole = a.reader.Read();
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->payload.size(), kBigN);
  for (uint64_t i = 0; i < kBigN; ++i) {
    ASSERT_EQ(ToBlock(whole->payload[i]), MarkerBlock(i, kBigBlock)) << i;
  }
  StatusOr<wire::DecodedFrame> got_b = b.reader.Read();
  ASSERT_TRUE(got_b.ok());
  ASSERT_EQ(got_b->payload.size(), 2u);
  EXPECT_EQ(got_b->header.ticket, b.next_ticket - 1);
  EXPECT_EQ(ToBlock(got_b->payload[0]), MarkerBlock(1, kBigBlock));
  EXPECT_EQ(ToBlock(got_b->payload[1]), MarkerBlock(2, kBigBlock));
  StatusOr<wire::DecodedFrame> got_c = c.reader.Read();
  ASSERT_TRUE(got_c.ok());
  ASSERT_EQ(got_c->payload.size(), 1u);
  EXPECT_EQ(got_c->header.ticket, c.next_ticket - 1);
  EXPECT_EQ(ToBlock(got_c->payload[0]), MarkerBlock(3, kBigBlock));

  for (const WireClient& client : clients) ::close(client.fd);
  service.Drain();
  const StorageServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.fused_batches, 1u);
  EXPECT_EQ(counters.fused_frames, 2u);
  EXPECT_EQ(counters.frames_queued, queued_before + 2);
  EXPECT_EQ(counters.exchanges_served, 3u);  // A, B, C downloads
  EXPECT_EQ(counters.frames_served, 7u);     // + three Opens and SetArray
  EXPECT_EQ(counters.engine.exchanges, engine_before + 2);
}

TEST(StorageServiceTest, DrainingReaderStillServesItsOwnClient) {
  // A reader that releases the only slot drains the queue first. If other
  // connections kept that queue full, the drainer's own client would wait
  // for all of them; instead its next frame, once buffered, takes its
  // turn among theirs.
  StorageServiceOptions options;
  options.num_threads = 1;
  options.fuse_blocks = 1;
  StorageService service(options);
  std::vector<WireClient> clients =
      OpenShared(service, 2, /*id=*/9, kBigN, kBigBlock);
  WireClient& a = clients[0];
  WireClient& b = clients[1];
  const uint64_t queued_before = service.Counters().frames_queued;
  ASSERT_TRUE(wire::WriteFrame(a.fd, wire::EncodeRequest(
                                         DownloadRequest(AllIndices(kBigN)),
                                         a.next_ticket++))
                  .ok());
  ASSERT_TRUE(EventuallyCounters(service, [](const auto& counters) {
    return counters.engine.exchanges == 1;
  }));

  // B queues a long pipeline behind A's slot; with fusion off, every
  // frame is its own engine exchange.
  constexpr uint64_t kPipeline = 4000;
  std::thread b_replies([&b] {
    for (uint64_t i = 0; i < kPipeline; ++i) {
      if (!b.reader.Read().ok()) return;
    }
  });
  for (uint64_t i = 0; i < kPipeline; ++i) {
    ASSERT_TRUE(wire::WriteFrame(b.fd, wire::EncodeRequest(
                                           DownloadRequest({i % kBigN}),
                                           b.next_ticket++))
                    .ok());
  }
  ASSERT_TRUE(EventuallyCounters(service, [&](const auto& counters) {
    return counters.frames_queued == queued_before + kPipeline;
  }));

  // A reads its reply — its reader now drains B's pipeline — and at once
  // sends one more request, which must not wait for the whole pipeline.
  ASSERT_TRUE(a.reader.Read().ok());
  StatusOr<wire::DecodedFrame> next =
      a.RoundTrip(wire::EncodeRequest(DownloadRequest({7}), a.next_ticket++));
  const uint64_t served_by_then = service.Counters().exchanges_served;
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(ToBlock(next->payload[0]), Block(kBigBlock, 0));
  EXPECT_LT(served_by_then, kPipeline + 2);

  b_replies.join();
  for (const WireClient& client : clients) ::close(client.fd);
  service.Drain();
  EXPECT_EQ(service.Counters().exchanges_served, kPipeline + 2);
}

}  // namespace
}  // namespace dpstore
