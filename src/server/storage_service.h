#ifndef DPSTORE_SERVER_STORAGE_SERVICE_H_
#define DPSTORE_SERVER_STORAGE_SERVICE_H_

/// \file
/// Server side of the wire codec: StorageService turns connected sockets
/// into tenants of ONE shared StorageEngine.
///
/// Every exchange runs to completion on the thread that read it. The
/// roles:
///
///   * per-connection READERS: a connection's reader thread decodes a
///     frame and, when an EXECUTION SLOT is free, executes it itself and
///     writes the reply — no handoff to another thread on the common path;
///   * EXECUTION SLOTS (`num_threads`): at most that many exchanges
///     execute at once, so engine concurrency is bounded no matter how
///     many connections are open. Slot ids are the engine `tid`s;
///   * OVERFLOW: when every slot is held, the reader queues the frame on
///     the ready list and goes back to reading. A thread releasing a slot
///     first drains the ready list, so queued work always makes progress
///     (and a draining reader whose own socket has a whole frame waiting
///     queues it behind the others, so its client is not starved);
///   * CROSS-CONNECTION BATCH FUSION: a slot holder executing one
///     connection's queue head also harvests same-direction request
///     frames bound for the SAME namespace from other queued connections
///     and executes them as one fused engine exchange (the FusingBackend
///     idea, applied server-side). Fusion only finds partners in the
///     overflow queue, i.e. under load. Each connection still receives
///     exactly one reply frame per request frame, with its own ticket, in
///     its own request order — the adversary-view invariant is per
///     connection and fusion never changes any client's bytes.
///
/// Shared by the dpstore_server binary and by SocketBackend's in-process
/// fallback (ServeStorageConnection), which runs the same reader loop on
/// the caller's thread with one slot over a socketpair — a test against
/// the fallback exercises byte-for-byte the same codec and execution path
/// as a real TCP deployment.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/engine.h"
#include "storage/wire.h"

namespace dpstore {

struct StorageServiceOptions {
  /// Execution slots: exchanges executed at once (>= 1). Readers execute
  /// their own frames while a slot is free and queue them otherwise.
  size_t num_threads = 4;
  /// Concurrent-connection cap; HandleConnection refuses (and closes)
  /// beyond it.
  size_t max_conns = 64;
  /// Cross-connection fusion budget: max blocks one fused engine
  /// exchange may carry. 1 disables fusion.
  uint64_t fuse_blocks = 256;
  /// Stripe count for the shared engine's per-namespace locking.
  size_t lock_stripes = 16;
  /// Queue-age load shedding: a kRequest frame whose age (from the moment
  /// its reader decoded it to the moment a slot executes it) reaches this
  /// many ms is answered with a DeadlineExceeded error frame instead of
  /// executed — the server-side half of the client's `deadline_ms`
  /// budget, applied where an overloaded server's time actually goes. -1
  /// disables; 0 sheds every request (a deterministic test mode). Control
  /// frames (Open/SetArray/Peek/Corrupt) always execute.
  int64_t shed_after_ms = -1;
  /// Durability passthrough to the shared engine (--data-dir). With it
  /// set, an upload's ack is only written after its journal record is
  /// fdatasync-durable — and because a fused group executes as ONE engine
  /// exchange, a batch of fused uploads costs one journal record and one
  /// fdatasync (group commit covers concurrent slots too). Use Make()
  /// to observe recovery failures as Status.
  persist::PersistOptions persist;
};

/// Point-in-time accounting (connection/namespace accounting for the
/// server binary's drain report).
struct StorageServiceCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t connections_rejected = 0;  ///< refused at max_conns
  uint64_t frames_served = 0;         ///< reply frames written
  uint64_t exchanges_served = 0;      ///< kRequest frames answered
  uint64_t fused_batches = 0;         ///< engine calls carrying >1 frame
  uint64_t fused_frames = 0;          ///< request frames that rode fused
  uint64_t frames_shed = 0;  ///< requests answered DeadlineExceeded unexecuted
  /// Frames that waited for an execution slot (read while every slot, or
  /// their own connection, was busy) instead of running on their reader.
  uint64_t frames_queued = 0;
  StorageEngineCounters engine;
};

class StorageService {
 public:
  /// CHECK-fails if options.persist asks for a data dir that cannot be
  /// recovered; Make() reports that as Status instead.
  explicit StorageService(StorageServiceOptions options = {});
  /// Construction path for persistent deployments: runs crash recovery
  /// (StorageEngine::Open) and surfaces its DataLoss/Internal errors.
  static StatusOr<std::unique_ptr<StorageService>> Make(
      StorageServiceOptions options = {});
  /// Drains (see Drain) and joins every reader.
  ~StorageService();

  StorageService(const StorageService&) = delete;
  StorageService& operator=(const StorageService&) = delete;

  /// Adopts `fd` as a new connection and spawns its reader. Returns false
  /// — closing `fd` — when draining or at max_conns.
  bool HandleConnection(int fd);

  /// Graceful shutdown: refuse new connections, stop reading, finish
  /// every queued exchange (replies still flow), close all connections,
  /// join the readers, and — once quiescent — checkpoint the engine so a
  /// clean restart replays nothing. Idempotent.
  void Drain();

  StorageServiceCounters Counters() const;
  StorageEngine& engine() { return *engine_; }

 private:
  struct Connection;

  StorageService(StorageServiceOptions options,
                 std::shared_ptr<StorageEngine> engine);

  friend uint64_t ServeStorageConnection(int fd);

  /// Registers `fd` as a connection, or closes it and returns null when
  /// draining or at max_conns. Requires mu_.
  std::shared_ptr<Connection> AdmitLocked(int fd);
  /// Reads `conn`'s frames until EOF or a framing error, executing them
  /// in a slot when one is free and queueing them otherwise.
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  /// Queues a frame the reader of `conn` decoded, or — on a read error —
  /// marks the reader done. Returns true when a frame was queued.
  /// Requires mu_.
  bool AcceptFrameLocked(const std::shared_ptr<Connection>& conn,
                         StatusOr<wire::DecodedFrame> frame);
  /// Holds one execution slot on behalf of `reader`'s thread and executes
  /// the ready list until it is empty, then releases the slot. Between
  /// groups, while others wait, pulls a frame `reader`'s own connection
  /// can deliver without blocking into the queue, so its client waits its
  /// turn instead of starving. Requires mu_ and a free slot.
  void ExecuteReadyLocked(std::unique_lock<std::mutex>& lock,
                          const std::shared_ptr<Connection>& reader);
  /// Executes one connection's head-of-queue group (plus harvested
  /// same-direction requests from other ready connections). mu_ held on
  /// entry and exit, released around engine execution and socket writes.
  void ProcessLocked(unsigned tid, std::unique_lock<std::mutex>& lock,
                     const std::shared_ptr<Connection>& conn);
  /// Marks `conn` ready (or finalizes it) after its queue changed.
  /// Requires mu_.
  void ScheduleLocked(const std::shared_ptr<Connection>& conn);
  /// Closes and retires a connection whose reader stopped and whose
  /// queue drained. Requires mu_.
  void FinalizeLocked(const std::shared_ptr<Connection>& conn);
  /// Marks a connection dead after a reply write failed: drops its queue
  /// and shuts the socket down so its reader stops. Requires mu_.
  void FailLocked(const std::shared_ptr<Connection>& conn);

  const StorageServiceOptions options_;
  std::shared_ptr<StorageEngine> engine_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;  // Drain: connections_active -> 0
  std::vector<std::shared_ptr<Connection>> conns_;
  /// Connections with queued frames waiting for a slot, in arrival order.
  /// Non-empty only while every slot is held: a slot is released only
  /// after its holder found this list empty.
  std::vector<std::shared_ptr<Connection>> ready_;
  /// Ids (engine tids) of the execution slots nobody holds.
  std::vector<unsigned> free_slots_;
  bool draining_ = false;
  StorageServiceCounters counters_;
};

/// Compat entry point (SocketBackend's socketpair fallback): serves one
/// connection on the caller's thread against a connection-private
/// engine, through the same reader loop with one execution slot. Closes
/// `fd`; returns exchange frames served.
uint64_t ServeStorageConnection(int fd);

}  // namespace dpstore

#endif  // DPSTORE_SERVER_STORAGE_SERVICE_H_
