#ifndef DPSTORE_STORAGE_SOCKET_BACKEND_H_
#define DPSTORE_STORAGE_SOCKET_BACKEND_H_

/// \file
/// SocketBackend: the real RPC transport. The paper's client/server
/// boundary, finally crossed by actual bytes — every exchange is
/// serialized with the wire codec (storage/wire.h, spec in
/// docs/wire-format.md) and answered by a server process owning the block
/// arena, instead of an in-process function call whose latency the
/// CostModel merely models.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/backend.h"
#include "storage/block_buffer.h"
#include "storage/transcript.h"
#include "storage/wire.h"
#include "util/random.h"

namespace dpstore {

/// Where the server lives. Precedence: `socket_path` (Unix domain socket)
/// wins over `host`/`port` (TCP); with neither set the backend spawns an
/// in-process server thread over a socketpair — the same dispatch loop a
/// standalone dpstore_server runs, so tests exercise the full codec
/// without managing an external process.
struct SocketBackendOptions {
  /// Unix-domain socket path of a running dpstore_server.
  std::string socket_path;
  /// TCP host (name or numeric) of a running dpstore_server.
  std::string host;
  uint16_t port = 0;
  /// Engine namespace binding shipped in the Open handshake (wire v2).
  /// Defaults request a connection-private arena — the classic
  /// semantics, where every backend gets its own zeroed array. Setting
  /// `attach_or_create` with a nonzero `namespace_id` instead attaches
  /// this backend to the server's shared namespace of that id (creating
  /// it on first attach), so N backends become N tenants of ONE arena.
  /// Shared ids must be below 2^63 — the upper half of the id space is
  /// reserved for server-minted private namespaces and is refused.
  uint64_t namespace_id = 0;
  bool attach_or_create = false;
  /// Bounded auto-reconnect budget. 0 (the default) keeps the classic
  /// latching semantics: the first broken read/write fails every future
  /// exchange with Unavailable. With a positive budget, the next Submit
  /// (or control call) after a break tears the dead connection down,
  /// backs off (exponential from `reconnect_base_ms`, capped at
  /// `reconnect_cap_ms`, plus seeded jitter in [0, backoff]), redials and
  /// re-runs the Open handshake. Exchanges in flight at the break still
  /// fail atomically — reconnect never replays them; that policy lives in
  /// RetryingBackend and the schemes. NOTE: reconnecting to a PRIVATE
  /// namespace gets a fresh zeroed arena (the server freed the old one at
  /// disconnect) — pair reconnect with `attach_or_create` on a shared
  /// namespace (or a durable server) when the data must survive.
  int max_reconnects = 0;
  uint64_t reconnect_base_ms = 1;
  uint64_t reconnect_cap_ms = 200;
  uint64_t reconnect_seed = 42;
};

/// StorageBackend whose server is on the far side of a socket.
///
/// No thread of its own: every call does its socket I/O on the caller's
/// thread. Submit serializes the exchange and writes the frame, so frames
/// leave in ticket order and `RunExchangePipeline` depth overlaps
/// exchanges on the wire. Wait reads the socket itself (leader/followers,
/// with the client thread as the only leader): it returns at once when
/// its reply is already parked, and otherwise reads frames, parking each
/// by ticket, until its own arrives. A Submit whose write finds the
/// socket full drains and parks the replies that arrive meanwhile, so it
/// can only block on a peer that stopped reading, never on a server
/// blocked writing replies this client has not read yet. A request with
/// `deadline_ms` never blocks past it in Submit either: the write polls
/// for room until the deadline, and a frame that could not go out whole
/// breaks the connection (the stream cannot be resynced; the reconnect
/// budget applies). Control frames (Open/SetArray/Peek/Corrupt) have no
/// deadline. With reconnect budget left, each call first parks what is
/// readable, so a peer that closed meanwhile is redialed, not written to.
///
/// Wait records the transcript exactly as the in-memory backend would
/// (events at Wait, in submission order — the discipline ClusterBackend
/// shares, so the adversary's view is bit-identical to `memory` when
/// exchanges are awaited in submission order, which every scheme's narrow
/// calls do), and accumulates MEASURED wall-clock per exchange, from
/// Submit until its reply was read, alongside the modeled CostModel axes
/// (TransportStats::measured_wall_ms).
///
/// Error semantics match the in-process backends: validation errors and
/// injected faults are decided locally at Submit (nothing crosses the
/// wire, nothing is recorded) and surface at Wait; server-side errors
/// arrive as error frames and also surface at Wait; a broken connection
/// fails every in-flight and future exchange with Unavailable. Fault
/// injection stays client-side (one Bernoulli roll per exchange at
/// Submit) so the failure model is identical across backends.
///
/// Thread safety: like every StorageBackend, one client thread at a time
/// — which is also what keeps writes in ticket order.
class SocketBackend : public StorageBackend {
 public:
  /// Connects per `options` and performs the Open handshake for an
  /// `n` x `block_size` arena. Constructors cannot fail, so connection
  /// errors are latched: every subsequent operation surfaces them
  /// (ConnectionStatus() tells tests why).
  SocketBackend(uint64_t n, size_t block_size,
                SocketBackendOptions options = {});
  ~SocketBackend() override;

  uint64_t n() const override { return n_; }
  size_t block_size() const override { return block_size_; }

  /// Not OK when the connection failed to open or broke; the same status
  /// every pending and future exchange reports at Wait.
  Status ConnectionStatus() const;

  /// Ships the whole array to the server arena (one kSetArray frame).
  Status SetArray(std::vector<Block> blocks) override;

  Ticket Submit(StorageRequest request) override;
  StatusOr<StorageReply> Wait(Ticket ticket) override;

  void BeginQuery() override { transcript_.BeginQuery(); }

  const Transcript& transcript() const override { return transcript_; }
  void ResetTranscript() override { transcript_.Clear(); }
  void SetTranscriptCountingOnly(bool counting_only) override {
    transcript_.SetCountingOnly(counting_only);
  }

  /// Fetched from the server with a kPeek frame (unrecorded, like every
  /// backend's Peek).
  Block PeekBlock(BlockId index) const override;
  void CorruptBlock(BlockId index) override;

  /// Client-side, one roll per exchange at Submit, before anything is
  /// sent — identical failure model to the in-process backends.
  void SetFailureRate(double rate, uint64_t seed = 7) override;

  /// Sum over completed exchanges of (reply read - submitted), i.e. the
  /// real socket latency the CostModel previously only modeled.
  double MeasuredWallMs() const override;

  /// Reconnect attempts made so far (successful or not); surfaced as
  /// TransportStats::retries.
  uint64_t RetriedAttempts() const override;

 protected:
  /// Never reached through the overridden Submit; provided so the class is
  /// concrete. Equivalent to a one-shot Submit+Wait.
  StatusOr<StorageReply> Execute(StorageRequest request) override;

 private:
  /// One exchange (or control call) in flight between Submit and Wait.
  struct InFlight {
    StorageRequest::Op op = StorageRequest::Op::kDownload;
    std::vector<BlockId> indices;
    /// Blocks a well-formed kReplyBlocks for this ticket must carry
    /// (downloads: the index count; uploads/acks: 0; Peek: 1). A reply
    /// disagreeing is a protocol violation and breaks the connection —
    /// a hostile server must fail exchanges, never crash the client.
    uint64_t expected_blocks = 0;
    /// Record transcript events at Wait and measured time when the reply
    /// is read (true only for exchanges that actually crossed the wire).
    bool record = false;
    /// DPF evals: serialized key bytes shipped, for RecordEval at Wait.
    uint64_t eval_query_bytes = 0;
    /// `submitted` + the request's `deadline_ms` (none when 0): Submit's
    /// write and Wait give up at this point.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /// Wait timed out on this exchange and already returned
    /// DeadlineExceeded; a later read discards the late reply (or a
    /// connection break reaps it) without touching the stream state.
    bool abandoned = false;
    bool done = false;
    StatusOr<StorageReply> reply{StorageReply{}};
    std::chrono::steady_clock::time_point submitted;
  };

  /// Dials and runs the Open handshake; failures latch in broken_.
  void StartConnection();
  /// If the connection is broken and reconnect budget remains, tears it
  /// down, backs off (exponential + jitter) and redials + re-Opens,
  /// repeating until connected or the budget is spent.
  void MaybeReconnect();
  /// Shuts down and closes the socket, joining the fallback server.
  void TearDownConnection();
  /// Writes one frame by `deadline`, parking replies that arrive while the
  /// socket is full; a frame not written whole breaks the connection.
  void SendFrame(const wire::EncodedFrame& frame,
                 std::chrono::steady_clock::time_point deadline);
  /// Parks the replies readable without blocking; returns broken_.
  Status DrainReplies();
  /// Reads and parks frames until `slot` is done; false when `deadline`
  /// passed first.
  bool Await(const InFlight& slot,
             std::chrono::steady_clock::time_point deadline);
  /// Completes the exchange `frame` answers (discarding late replies of
  /// abandoned ones); a read error or protocol violation breaks the link.
  void Park(StatusOr<wire::DecodedFrame> frame);
  /// Fails every in-flight exchange and latches `why`.
  void BreakConnection(Status why);
  /// Parks an already-decided reply under a fresh ticket (validation
  /// error, injected fault, no-op): never recorded, never measured.
  Ticket ParkImmediate(StatusOr<StorageReply> reply);
  /// Sends one control frame and reads until its reply arrives (cold
  /// paths: Open/SetArray/Peek/Corrupt). `body` is the payload a kSetArray
  /// frame ships; empty otherwise.
  StatusOr<StorageReply> ControlRoundTrip(wire::FrameType type, uint64_t aux,
                                          uint32_t block_size,
                                          const BlockBuffer& body);

  uint64_t n_ = 0;
  size_t block_size_ = 0;
  /// Connection options, kept for redialing.
  SocketBackendOptions options_;
  int fd_ = -1;
  /// Buffers the reply stream of `fd_`; replaced at every (re)connect.
  wire::FrameReader frames_;
  /// In-process fallback server (socketpair mode only).
  std::thread server_;

  std::unordered_map<Ticket, std::unique_ptr<InFlight>> in_flight_;
  Ticket next_ticket_ = 1;
  Status broken_ = OkStatus();
  double measured_wall_ms_ = 0.0;
  /// Remaining reconnect budget / total attempts made.
  int reconnects_left_ = 0;
  uint64_t reconnect_attempts_ = 0;
  Rng backoff_rng_;

  Transcript transcript_;
  FaultInjector faults_;
};

/// BackendFactory producing SocketBackends against `options` (in-process
/// socketpair servers when empty; counting-only transcripts on request).
BackendFactory SocketBackendFactory(SocketBackendOptions options = {},
                                    bool counting_only = false);

}  // namespace dpstore

#endif  // DPSTORE_STORAGE_SOCKET_BACKEND_H_
