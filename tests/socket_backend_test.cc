// SocketBackend (real RPC transport) suite.
//
// The load-bearing property: moving the exchange over a real socket
// changes WHERE the blocks live and how long an exchange measurably
// takes — and nothing else. Transcripts, TransportStats and pipelined
// reply hashes must be bit-identical to the in-memory backend on every
// registered scheme; errors and injected faults must surface at Wait with
// the same codes; and a corrupt or vanished server must fail exchanges,
// never crash the client.
//
// Default mode runs against the in-process socketpair fallback (the same
// dispatch loop dpstore_server runs). When DPSTORE_SOCKET_TEST_ADDR
// (host:port) or DPSTORE_SOCKET_TEST_UNIX (path) name a live
// dpstore_server, the external-server tests additionally run the basic
// suite over that connection — CI launches the binary and sets the env
// var to cover real TCP framing.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/driver.h"
#include "analysis/workload.h"
#include "core/scheme_registry.h"
#include "server/storage_service.h"
#include "storage/server.h"
#include "storage/socket_backend.h"
#include "storage/wire.h"

namespace dpstore {
namespace {

std::vector<Block> MakeDatabase(uint64_t n, size_t block_size) {
  std::vector<Block> db(n);
  for (uint64_t i = 0; i < n; ++i) db[i] = MarkerBlock(i, block_size);
  return db;
}

// --- Basic exchange semantics (socketpair fallback) --------------------------

TEST(SocketBackendTest, DownloadUploadRoundTripAndTranscript) {
  SocketBackend backend(16, 8);
  ASSERT_TRUE(backend.ConnectionStatus().ok());
  ASSERT_TRUE(backend.SetArray(MakeDatabase(16, 8)).ok());

  backend.BeginQuery();
  auto blocks = backend.DownloadMany({3, 0, 15, 3});
  ASSERT_TRUE(blocks.ok()) << blocks.status();
  ASSERT_EQ(blocks->size(), 4u);
  EXPECT_TRUE(IsMarkerBlock((*blocks)[0], 3));
  EXPECT_TRUE(IsMarkerBlock((*blocks)[2], 15));
  EXPECT_TRUE(IsMarkerBlock((*blocks)[3], 3));
  EXPECT_EQ(backend.roundtrip_count(), 1u);
  EXPECT_EQ(backend.download_count(), 4u);

  ASSERT_TRUE(backend.Upload(5, MarkerBlock(99, 8)).ok());
  EXPECT_TRUE(IsMarkerBlock(backend.PeekBlock(5), 99));
  EXPECT_EQ(backend.upload_count(), 1u);
  EXPECT_EQ(backend.roundtrip_count(), 1u);  // uploads are fire-and-forget

  backend.CorruptBlock(5);
  EXPECT_FALSE(IsMarkerBlock(backend.PeekBlock(5), 99));
}

TEST(SocketBackendTest, PipelinedSubmitsResolveByTicket) {
  SocketBackend backend(16, 8);
  ASSERT_TRUE(backend.SetArray(MakeDatabase(16, 8)).ok());
  // Three exchanges in flight before the first Wait; waited out of
  // submission order to prove ticket correlation (transcript recording
  // order is the client's Wait order, as for any backend).
  Ticket a = backend.Submit(StorageRequest::DownloadOf({1}));
  Ticket b = backend.Submit(StorageRequest::DownloadOf({2}));
  Ticket c = backend.Submit(StorageRequest::DownloadOf({3}));
  auto rc = backend.Wait(c);
  auto ra = backend.Wait(a);
  auto rb = backend.Wait(b);
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  EXPECT_TRUE(IsMarkerBlock(ra->blocks[0], 1));
  EXPECT_TRUE(IsMarkerBlock(rb->blocks[0], 2));
  EXPECT_TRUE(IsMarkerBlock(rc->blocks[0], 3));
  EXPECT_EQ(backend.roundtrip_count(), 3u);
}

TEST(SocketBackendTest, ErrorsSurfaceAtWaitAndNothingIsRecorded) {
  SocketBackend backend(8, 8);
  // Validation: decided locally, never crosses the wire.
  EXPECT_EQ(backend.DownloadMany({0, 9}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(backend.UploadMany({0, 1}, {ZeroBlock(8)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.UploadMany({0}, {ZeroBlock(7)}).code(),
            StatusCode::kInvalidArgument);
  // Injected faults: one roll per exchange, client side.
  backend.SetFailureRate(1.0);
  EXPECT_EQ(backend.DownloadMany({0, 1}).status().code(),
            StatusCode::kUnavailable);
  backend.SetFailureRate(0.0);
  EXPECT_EQ(backend.transcript().TotalBlocksMoved(), 0u);
  EXPECT_EQ(backend.roundtrip_count(), 0u);
  // And the connection is still healthy afterwards.
  ASSERT_TRUE(backend.DownloadMany({0}).ok());
}

TEST(SocketBackendTest, EmptyExchangesAreFreeAndTicketsSingleUse) {
  SocketBackend backend(8, 8);
  auto empty = backend.DownloadMany({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(backend.transcript().TotalBlocksMoved(), 0u);

  Ticket t = backend.Submit(StorageRequest::DownloadOf({1}));
  ASSERT_TRUE(backend.Wait(t).ok());
  EXPECT_EQ(backend.Wait(t).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.Wait(12345).status().code(), StatusCode::kInvalidArgument);
}

TEST(SocketBackendTest, MeasuredWallClockAccumulatesPerExchange) {
  SocketBackend backend(8, 8);
  ASSERT_TRUE(backend.SetArray(MakeDatabase(8, 8)).ok());
  EXPECT_EQ(backend.Stats().measured_wall_ms, 0.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(backend.DownloadMany({0, 1, 2}).ok());
  }
  // A real socket roundtrip takes measurable time; the in-memory backend
  // reports exactly zero on the same axis.
  EXPECT_GT(backend.Stats().measured_wall_ms, 0.0);
  StorageServer memory(8, 8);
  ASSERT_TRUE(memory.DownloadMany({0}).ok());
  EXPECT_EQ(memory.Stats().measured_wall_ms, 0.0);
  // The modeled axes still compare equal across backends: measured time is
  // deliberately outside operator==.
  SocketBackend twin(8, 8);
  ASSERT_TRUE(twin.SetArray(MakeDatabase(8, 8)).ok());
  ASSERT_TRUE(twin.DownloadMany({0}).ok());
  ASSERT_TRUE(memory.Stats() == twin.Stats());
}

// --- Broken / hostile servers ------------------------------------------------

TEST(SocketBackendTest, ConnectFailureLatchesAndSurfacesEverywhere) {
  SocketBackendOptions options;
  options.socket_path = "/nonexistent/dpstore.sock";
  SocketBackend backend(8, 8, options);
  EXPECT_FALSE(backend.ConnectionStatus().ok());
  EXPECT_EQ(backend.DownloadMany({0}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(backend.SetArray(MakeDatabase(8, 8)).code(),
            StatusCode::kUnavailable);
}

/// Crafts the raw bytes a hostile server answers the first real exchange
/// with, given that exchange's ticket (so a "well-formed but lying" reply
/// can correlate correctly).
using HostileReply = std::function<std::vector<uint8_t>(uint64_t ticket)>;

/// A server that answers the Open handshake correctly, then answers the
/// first real exchange with whatever `make_reply` fabricates and closes.
/// Drives the client's defenses against corrupt and lying reply streams.
void HostileServer(int fd, HostileReply make_reply) {
  wire::FrameReader reader(fd);
  auto open = reader.Read();
  if (open.ok()) {
    static const BlockBuffer kEmpty;
    (void)wire::WriteFrame(
        fd, wire::EncodeReplyBlocks(kEmpty, open->header.ticket));
    auto doomed = reader.Read();
    const std::vector<uint8_t> reply_bytes =
        make_reply(doomed.ok() ? doomed->header.ticket : 0);
    size_t sent = 0;
    while (sent < reply_bytes.size()) {
      const ssize_t n = ::send(fd, reply_bytes.data() + sent,
                               reply_bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
  }
  ::close(fd);
}

/// Connects a SocketBackend to a hostile server via a Unix socket bridge:
/// a listener whose accepted connection is pumped by `serve` (by default
/// HostileServer).
class HostileListener {
 public:
  /// Convenience: a fixed byte string, ignoring the ticket.
  explicit HostileListener(std::vector<uint8_t> reply_bytes)
      : HostileListener(HostileReply(
            [bytes = std::move(reply_bytes)](uint64_t) { return bytes; })) {}

  explicit HostileListener(HostileReply make_reply)
      : HostileListener(std::function<void(int)>(
            [maker = std::move(make_reply)](int fd) {
              HostileServer(fd, maker);
            })) {}

  /// Serves `connections` accepted connections, one after another.
  explicit HostileListener(std::function<void(int)> serve,
                           int connections = 1) {
    path_ = ::testing::TempDir() + "dpstore_hostile_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
            ".sock";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    ::unlink(path_.c_str());
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    acceptor_ = std::thread([this, connections, serve = std::move(serve)] {
      for (int i = 0; i < connections; ++i) {
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) return;
        serve(conn);
      }
    });
  }
  ~HostileListener() {
    // Ends an accept() still waiting for a connection that never came.
    ::shutdown(listen_fd_, SHUT_RDWR);
    acceptor_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
  int listen_fd_ = -1;
  std::thread acceptor_;
};

TEST(SocketBackendTest, CorruptReplyFrameFailsWaitNotTheProcess) {
  // A frame with a valid length prefix and garbage contents.
  std::vector<uint8_t> garbage = {32, 0, 0, 0};
  garbage.resize(4 + 32, 0xAB);
  HostileListener hostile(std::move(garbage));
  SocketBackendOptions options;
  options.socket_path = hostile.path();
  SocketBackend backend(8, 8, options);
  ASSERT_TRUE(backend.ConnectionStatus().ok());
  Ticket t = backend.Submit(StorageRequest::DownloadOf({0}));
  auto reply = backend.Wait(t);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(backend.transcript().TotalBlocksMoved(), 0u);
  // The breakage is latched: later exchanges fail fast.
  EXPECT_FALSE(backend.DownloadMany({1}).ok());
}

TEST(SocketBackendTest, TruncatedReplyStreamFailsWaitNotTheProcess) {
  // A length prefix promising 100 bytes, then EOF after 3.
  HostileListener hostile({100, 0, 0, 0, 1, 2, 3});
  SocketBackendOptions options;
  options.socket_path = hostile.path();
  SocketBackend backend(8, 8, options);
  Ticket t = backend.Submit(StorageRequest::DownloadOf({0}));
  EXPECT_EQ(backend.Wait(t).status().code(), StatusCode::kUnavailable);
}

TEST(SocketBackendTest, ReplyForUnknownTicketBreaksTheConnection) {
  // A well-formed blocks reply for a ticket the client never issued.
  BlockBuffer one(8);
  one.Append(MarkerBlock(1, 8));
  wire::EncodedFrame frame = wire::EncodeReplyBlocks(one, /*ticket=*/999);
  std::vector<uint8_t> bytes = frame.head;
  bytes.insert(bytes.end(), frame.body.begin(), frame.body.end());
  HostileListener hostile(std::move(bytes));
  SocketBackendOptions options;
  options.socket_path = hostile.path();
  SocketBackend backend(8, 8, options);
  Ticket t = backend.Submit(StorageRequest::DownloadOf({0}));
  EXPECT_EQ(backend.Wait(t).status().code(), StatusCode::kUnavailable);
}

TEST(SocketBackendTest, WellFormedReplyWithWrongGeometryFailsNotCrashes) {
  // A lying server: perfectly valid frames whose block count or size
  // disagrees with the request. Wait must fail the exchange, not hand a
  // short reply to code that will index blocks[0].
  const auto kLies = {
      HostileReply([](uint64_t ticket) {  // empty reply to a 1-block download
        static const BlockBuffer kEmpty;
        wire::EncodedFrame frame = wire::EncodeReplyBlocks(kEmpty, ticket);
        return frame.head;
      }),
      HostileReply([](uint64_t ticket) {  // right count, wrong block size
        BlockBuffer wrong(4);
        wrong.Append(MarkerBlock(0, 4));
        wire::EncodedFrame frame = wire::EncodeReplyBlocks(wrong, ticket);
        std::vector<uint8_t> bytes = frame.head;
        bytes.insert(bytes.end(), frame.body.begin(), frame.body.end());
        return bytes;
      }),
  };
  for (const HostileReply& lie : kLies) {
    HostileListener hostile(lie);
    SocketBackendOptions options;
    options.socket_path = hostile.path();
    SocketBackend backend(8, 8, options);
    Ticket t = backend.Submit(StorageRequest::DownloadOf({0}));
    auto reply = backend.Wait(t);
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(backend.transcript().TotalBlocksMoved(), 0u);
  }
}

TEST(SocketBackendTest, SubmitIsBoundedByItsDeadlineWhenThePeerStopsReading) {
  // A server that acks the Open handshake and then never reads again.
  // Submit writes on the caller's thread, so a multi-MiB upload fills the
  // socket buffers; it must give up at the exchange's deadline (breaking
  // the connection: half a frame is on the stream) rather than block.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  HostileListener mute(std::function<void(int)>([released](int fd) {
    auto open = wire::FrameReader(fd).Read();
    if (open.ok()) {
      static const BlockBuffer kEmpty;
      (void)wire::WriteFrame(
          fd, wire::EncodeReplyBlocks(kEmpty, open->header.ticket));
      released.wait();
    }
    ::close(fd);
  }));
  constexpr uint64_t kN = 1024;
  constexpr size_t kBlock = 4096;  // a 4 MiB upload
  SocketBackendOptions options;
  options.socket_path = mute.path();
  const auto start = std::chrono::steady_clock::now();
  {
    SocketBackend backend(kN, kBlock, options);
    ASSERT_TRUE(backend.ConnectionStatus().ok());
    StorageRequest upload;
    upload.op = StorageRequest::Op::kUpload;
    upload.payload = BlockBuffer(kBlock);
    for (uint64_t i = 0; i < kN; ++i) {
      upload.indices.push_back(i);
      upload.payload.Append(MarkerBlock(i, kBlock));
    }
    upload.deadline_ms = 50;
    auto reply = backend.Wait(backend.Submit(std::move(upload)));
    ASSERT_FALSE(reply.ok());
    EXPECT_TRUE(reply.status().code() == StatusCode::kDeadlineExceeded ||
                reply.status().code() == StatusCode::kUnavailable)
        << reply.status();
    EXPECT_EQ(backend.transcript().TotalBlocksMoved(), 0u);
  }  // the destructor must not hang on the stalled peer either
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  release.set_value();
}

TEST(SocketBackendTest, PipelinedLargeRepliesDoNotDeadlockSubmit) {
  // 64 downloads of 8192 x 8 B blocks at depth 16: every request and every
  // reply is 64 KiB, so the in-flight requests overflow the socket buffers
  // while the server sits blocked writing replies nobody has read yet.
  // Submit must drain those replies while its own write waits for room;
  // a write that only waits for room deadlocks against the server here.
  constexpr uint64_t kN = 8192;
  constexpr size_t kBlock = 8;
  constexpr uint64_t kExchanges = 64;
  std::vector<StorageRequest> plan;
  for (uint64_t e = 0; e < kExchanges; ++e) {
    std::vector<BlockId> indices(kN);
    for (uint64_t i = 0; i < kN; ++i) indices[i] = (i + 97 * e) % kN;
    plan.push_back(StorageRequest::DownloadOf(std::move(indices)));
  }
  StorageServer memory(kN, kBlock);
  ASSERT_TRUE(memory.SetArray(MakeDatabase(kN, kBlock)).ok());
  SocketBackend socket(kN, kBlock);
  ASSERT_TRUE(socket.SetArray(MakeDatabase(kN, kBlock)).ok());
  auto expected = RunExchangePipeline(&memory, plan, /*depth=*/16);
  auto got = RunExchangePipeline(&socket, plan, /*depth=*/16);
  ASSERT_TRUE(expected.ok() && got.ok()) << got.status();
  EXPECT_EQ(got->exchanges, kExchanges);
  EXPECT_EQ(got->reply_hash, expected->reply_hash);
  EXPECT_TRUE(got->transport == expected->transport);
  EXPECT_EQ(socket.transcript().ToString(), memory.transcript().ToString());
}

TEST(SocketBackendTest, DeadlineMidFrameKeepsTheStreamInSync) {
  // The server writes half of the first reply, then nothing until the
  // client's next request arrives — which the client sends only after
  // Wait gave up on the first. Then it writes the rest of the first reply
  // and the second reply back to back. The late half-frame must be
  // consumed silently and the second exchange must get its own reply.
  HostileListener slow(std::function<void(int)>([](int fd) {
    wire::FrameReader reader(fd);
    auto open = reader.Read();
    if (open.ok()) {
      static const BlockBuffer kEmpty;
      (void)wire::WriteFrame(
          fd, wire::EncodeReplyBlocks(kEmpty, open->header.ticket));
    }
    auto first = reader.Read();
    if (first.ok()) {
      BlockBuffer one(8);
      one.Append(MarkerBlock(1, 8));
      const wire::EncodedFrame late =
          wire::EncodeReplyBlocks(one, first->header.ticket);
      std::vector<uint8_t> bytes = late.head;
      bytes.insert(bytes.end(), late.body.begin(), late.body.end());
      const size_t half = bytes.size() / 2;
      (void)::send(fd, bytes.data(), half, MSG_NOSIGNAL);
      auto second = reader.Read();
      if (second.ok()) {
        (void)::send(fd, bytes.data() + half, bytes.size() - half,
                     MSG_NOSIGNAL);
        BlockBuffer two(8);
        two.Append(MarkerBlock(2, 8));
        (void)wire::WriteFrame(
            fd, wire::EncodeReplyBlocks(two, second->header.ticket));
        (void)reader.Read();  // until the client closes
      }
    }
    ::close(fd);
  }));
  SocketBackendOptions options;
  options.socket_path = slow.path();
  SocketBackend backend(8, 8, options);
  ASSERT_TRUE(backend.ConnectionStatus().ok());
  StorageRequest first = StorageRequest::DownloadOf({1});
  first.deadline_ms = 50;
  auto timed_out = backend.Wait(backend.Submit(std::move(first)));
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  // Bounded too, so a client that lost sync fails here instead of hanging.
  StorageRequest next = StorageRequest::DownloadOf({2});
  next.deadline_ms = 5000;
  auto second = backend.Wait(backend.Submit(std::move(next)));
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->blocks.size(), 1u);
  EXPECT_TRUE(IsMarkerBlock(second->blocks[0], 2));
  EXPECT_TRUE(backend.ConnectionStatus().ok());
  // Only the exchange that completed is on the adversary's record.
  EXPECT_EQ(backend.roundtrip_count(), 1u);
  EXPECT_EQ(backend.download_count(), 1u);
}

TEST(SocketBackendTest, RedialsAPeerThatClosedBetweenExchanges) {
  // The server closes the first connection right after the Open
  // handshake, while the client is idle, and serves a second one. Nothing
  // reads the socket between calls, so with reconnect budget the next
  // Submit must notice the close and redial instead of writing into the
  // dead socket and failing the exchange.
  std::promise<void> closed;
  int accepted = 0;
  HostileListener restarting(
      std::function<void(int)>([&closed, &accepted](int fd) {
        wire::FrameReader reader(fd);
        auto open = reader.Read();
        if (open.ok()) {
          static const BlockBuffer kEmpty;
          (void)wire::WriteFrame(
              fd, wire::EncodeReplyBlocks(kEmpty, open->header.ticket));
        }
        if (++accepted == 1) {
          ::close(fd);
          closed.set_value();
          return;
        }
        auto request = reader.Read();
        if (request.ok() && request->indices.size() == 1) {
          BlockBuffer one(8);
          one.Append(MarkerBlock(request->indices[0], 8));
          (void)wire::WriteFrame(
              fd, wire::EncodeReplyBlocks(one, request->header.ticket));
          (void)reader.Read();  // until the client closes
        }
        ::close(fd);
      }),
      /*connections=*/2);
  SocketBackendOptions options;
  options.socket_path = restarting.path();
  options.max_reconnects = 1;
  options.reconnect_base_ms = 0;
  SocketBackend backend(8, 8, options);
  ASSERT_TRUE(backend.ConnectionStatus().ok());
  closed.get_future().wait();
  auto reply = backend.Wait(backend.Submit(StorageRequest::DownloadOf({3})));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(IsMarkerBlock(reply->blocks[0], 3));
  EXPECT_EQ(backend.RetriedAttempts(), 1u);
}

TEST(SocketBackendTest, ServerCapsHostileDownloadReplySize) {
  // The flip side of the client's frame-cap guard: a hostile raw client
  // (not a SocketBackend) opens an arena of huge blocks and sends a small
  // request frame whose duplicate indices would make the REPLY ~2 GiB.
  // The server must answer with an error frame, not size the allocation.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread server([fd = fds[1]] { ServeStorageConnection(fd); });
  const int fd = fds[0];
  wire::FrameReader reader(fd);
  ASSERT_TRUE(wire::WriteFrame(fd, wire::EncodeControl(
                                       wire::FrameType::kOpen, /*ticket=*/1,
                                       /*aux=*/4, /*block_size=*/1u << 20))
                  .ok());
  auto ack = reader.Read();
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->header.type, wire::FrameType::kReplyBlocks);

  StorageRequest huge =
      StorageRequest::DownloadOf(std::vector<BlockId>(2048, 0));
  ASSERT_TRUE(wire::WriteFrame(fd, wire::EncodeRequest(huge, 2)).ok());
  auto reply = reader.Read();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->header.type, wire::FrameType::kReplyError);
  EXPECT_EQ(static_cast<StatusCode>(reply->header.code),
            StatusCode::kInvalidArgument);
  // The connection survives: a sane exchange still works.
  ASSERT_TRUE(
      wire::WriteFrame(fd, wire::EncodeRequest(
                               StorageRequest::DownloadOf({0}), 3))
          .ok());
  auto sane = reader.Read();
  ASSERT_TRUE(sane.ok());
  EXPECT_EQ(sane->header.type, wire::FrameType::kReplyBlocks);
  ::close(fd);
  server.join();
}

// --- Cross-backend equivalence: socket vs memory -----------------------------

struct SchemeRun {
  WorkloadReport report;
  /// Transcript of every backend the scheme built, in build order.
  std::vector<std::string> transcripts;
  std::vector<TransportStats> stats;
  /// First-backend exchange plan, for the pipelined replay comparison.
  std::vector<StorageRequest> plan;
  uint64_t plan_n = 0;
  size_t plan_block_size = 0;
};

SchemeRun RunScheme(const std::string& name, bool socket) {
  SchemeConfig config;
  config.n = 64;
  config.value_size = 24;
  config.seed = 20260728;
  std::vector<StorageBackend*> observed;
  config.backend_factory = [&observed,
                            socket](uint64_t n, size_t block_size)
      -> std::unique_ptr<StorageBackend> {
    std::unique_ptr<StorageBackend> backend;
    if (socket) {
      backend = std::make_unique<SocketBackend>(n, block_size);
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
  if (!observed.empty() &&
      observed[0]->transcript().TotalBlocksMoved() > 0) {
    run.plan = ExchangePlanFromTranscript(observed[0]->transcript(),
                                          observed[0]->block_size());
    run.plan_n = observed[0]->n();
    run.plan_block_size = observed[0]->block_size();
  }
  return run;
}

/// Every registered RAM scheme, run against in-memory and socket-backed
/// storage with identical seeds: reports, per-backend transcripts and
/// modeled TransportStats must be bit-identical, and the socket backends
/// must additionally report nonzero measured wall-clock.
TEST(SocketEquivalenceTest, EverySchemeIsBitIdenticalToMemory) {
  int schemes_covered = 0;
  for (const std::string& name :
       SchemeRegistry::Instance().RamSchemeNames()) {
    SchemeRun memory = RunScheme(name, /*socket=*/false);
    SchemeRun socket = RunScheme(name, /*socket=*/true);

    EXPECT_EQ(memory.report.operations, socket.report.operations) << name;
    EXPECT_EQ(memory.report.perp_results, socket.report.perp_results)
        << name;
    EXPECT_TRUE(memory.report.transport == socket.report.transport) << name;

    ASSERT_EQ(memory.transcripts.size(), socket.transcripts.size()) << name;
    for (size_t b = 0; b < memory.transcripts.size(); ++b) {
      EXPECT_EQ(memory.transcripts[b], socket.transcripts[b])
          << name << " backend " << b;
      EXPECT_TRUE(memory.stats[b] == socket.stats[b])
          << name << " backend " << b;
      EXPECT_EQ(memory.stats[b].measured_wall_ms, 0.0) << name;
      if (socket.stats[b].blocks_moved > 0) {
        EXPECT_GT(socket.stats[b].measured_wall_ms, 0.0)
            << name << " backend " << b;
      }
    }
    if (!memory.transcripts.empty()) ++schemes_covered;
  }
  // The registry must have yielded real coverage, not an all-skip pass
  // (xor_pir builds no StorageBackend and is legitimately absent).
  EXPECT_GE(schemes_covered, 8);
}

/// Replays every scheme's recorded exchange plan through Submit/Wait at
/// pipeline depths {1, 4} on both backends: the FNV reply hash, transport
/// stats and transcripts must be bit-identical — pipelining on the real
/// wire moves wall-clock only.
TEST(SocketEquivalenceTest, PipelinedReplayHashesMatchMemory) {
  int plans_covered = 0;
  for (const std::string& name :
       SchemeRegistry::Instance().RamSchemeNames()) {
    SchemeRun recorded = RunScheme(name, /*socket=*/false);
    if (recorded.plan.empty()) continue;
    ++plans_covered;
    for (uint64_t depth : {uint64_t{1}, uint64_t{4}}) {
      StorageServer memory(recorded.plan_n, recorded.plan_block_size);
      ASSERT_TRUE(
          memory
              .SetArray(MakeDatabase(recorded.plan_n,
                                     recorded.plan_block_size))
              .ok());
      SocketBackend socket(recorded.plan_n, recorded.plan_block_size);
      ASSERT_TRUE(
          socket
              .SetArray(MakeDatabase(recorded.plan_n,
                                     recorded.plan_block_size))
              .ok());
      auto memory_report = RunExchangePipeline(&memory, recorded.plan, depth);
      auto socket_report = RunExchangePipeline(&socket, recorded.plan, depth);
      ASSERT_TRUE(memory_report.ok() && socket_report.ok()) << name;
      EXPECT_EQ(memory_report->reply_hash, socket_report->reply_hash)
          << name << " depth " << depth;
      EXPECT_TRUE(memory_report->transport == socket_report->transport)
          << name << " depth " << depth;
      EXPECT_EQ(memory.transcript().ToString(),
                socket.transcript().ToString())
          << name << " depth " << depth;
      EXPECT_GT(socket_report->transport.measured_wall_ms, 0.0) << name;
    }
  }
  EXPECT_GE(plans_covered, 8);
}

/// The KVS repertoire over sockets: every registered KVS scheme, driven by
/// the same YCSB-style sequence on memory and socket storage, must produce
/// bit-identical per-backend transcripts and reports.
TEST(SocketEquivalenceTest, KvsSchemesMatchMemory) {
  int schemes_covered = 0;
  for (const std::string& name :
       SchemeRegistry::Instance().KvsSchemeNames()) {
    std::vector<std::string> transcripts[2];
    WorkloadReport reports[2];
    for (int socket = 0; socket < 2; ++socket) {
      SchemeConfig config;
      config.n = 64;
      config.value_size = 24;
      config.seed = 20260728;
      std::vector<StorageBackend*> observed;
      config.backend_factory =
          [&observed, socket](uint64_t n, size_t block_size)
          -> std::unique_ptr<StorageBackend> {
        std::unique_ptr<StorageBackend> backend;
        if (socket != 0) {
          backend = std::make_unique<SocketBackend>(n, block_size);
        } else {
          backend = std::make_unique<StorageServer>(n, block_size);
        }
        observed.push_back(backend.get());
        return backend;
      };
      auto scheme = SchemeRegistry::Instance().MakeKvs(name, config);
      ASSERT_TRUE(scheme.ok()) << name;
      Rng rng(11);
      KvsSequence ops = YcsbKvsSequence(&rng, config.n / 2, 12,
                                        /*read_fraction=*/0.5, 0.99);
      auto report = RunKvsWorkload(scheme->get(), ops);
      ASSERT_TRUE(report.ok()) << name << ": " << report.status();
      reports[socket] = *report;
      for (StorageBackend* backend : observed) {
        transcripts[socket].push_back(backend->transcript().ToString());
      }
    }
    EXPECT_EQ(reports[0].operations, reports[1].operations) << name;
    EXPECT_EQ(reports[0].perp_results, reports[1].perp_results) << name;
    EXPECT_TRUE(reports[0].transport == reports[1].transport) << name;
    EXPECT_EQ(transcripts[0], transcripts[1]) << name;
    if (!transcripts[0].empty()) ++schemes_covered;
  }
  EXPECT_GE(schemes_covered, 3);
}

/// The registry's "socket" backend name builds working schemes whose
/// results match the memory backend exactly.
TEST(SocketEquivalenceTest, RegistrySocketBackendMatchesMemory) {
  for (const std::string& backend : {std::string("memory"),
                                     std::string("socket")}) {
    SchemeConfig config;
    config.n = 32;
    config.value_size = 16;
    config.seed = 99;
    config.backend = backend;
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

// --- External dpstore_server (CI launches one and sets the env var) ----------

SocketBackendOptions ExternalServerOptions(bool* available) {
  SocketBackendOptions options;
  *available = false;
  if (const char* addr = std::getenv("DPSTORE_SOCKET_TEST_ADDR")) {
    const std::string spec(addr);
    const size_t colon = spec.rfind(':');
    if (colon != std::string::npos) {
      options.host = spec.substr(0, colon);
      options.port =
          static_cast<uint16_t>(std::atoi(spec.c_str() + colon + 1));
      *available = true;
    }
  } else if (const char* path = std::getenv("DPSTORE_SOCKET_TEST_UNIX")) {
    options.socket_path = path;
    *available = true;
  }
  return options;
}

TEST(SocketExternalServerTest, BasicExchangesOverExternalServer) {
  bool available = false;
  SocketBackendOptions options = ExternalServerOptions(&available);
  if (!available) {
    GTEST_SKIP() << "set DPSTORE_SOCKET_TEST_ADDR=host:port (or "
                    "DPSTORE_SOCKET_TEST_UNIX=path) to run against a live "
                    "dpstore_server";
  }
  SocketBackend backend(32, 16, options);
  ASSERT_TRUE(backend.ConnectionStatus().ok())
      << backend.ConnectionStatus();
  ASSERT_TRUE(backend.SetArray(MakeDatabase(32, 16)).ok());
  auto blocks = backend.DownloadMany({0, 7, 31});
  ASSERT_TRUE(blocks.ok());
  EXPECT_TRUE(IsMarkerBlock((*blocks)[1], 7));
  ASSERT_TRUE(backend.Upload(2, MarkerBlock(42, 16)).ok());
  EXPECT_TRUE(IsMarkerBlock(backend.PeekBlock(2), 42));
  EXPECT_GT(backend.Stats().measured_wall_ms, 0.0);

  // Two clients against the same server get independent arenas.
  SocketBackend other(32, 16, options);
  EXPECT_FALSE(IsMarkerBlock(other.PeekBlock(2), 42));
}

TEST(SocketExternalServerTest, SchemeEquivalenceOverExternalServer) {
  bool available = false;
  SocketBackendOptions options = ExternalServerOptions(&available);
  if (!available) GTEST_SKIP() << "no external dpstore_server configured";
  for (const std::string& backend_name : {std::string("memory"),
                                          std::string("socket")}) {
    SchemeConfig config;
    config.n = 64;
    config.value_size = 24;
    config.seed = 4242;
    config.backend = backend_name;
    config.socket_host = options.host;
    config.socket_port = options.port;
    config.socket_path = options.socket_path;
    auto scheme =
        SchemeRegistry::Instance().MakeRam("dp_ram_retrieval", config);
    ASSERT_TRUE(scheme.ok()) << backend_name;
    for (BlockId id = 0; id < 16; ++id) {
      auto got = (*scheme)->QueryRead(id);
      ASSERT_TRUE(got.ok()) << backend_name;
      if (got->has_value()) {
        EXPECT_TRUE(IsMarkerBlock(**got, id)) << backend_name;
      }
    }
  }
}

}  // namespace
}  // namespace dpstore
