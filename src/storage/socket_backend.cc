#include "storage/socket_backend.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "server/storage_service.h"
#include "util/check.h"

namespace dpstore {

namespace {

/// Connects to a Unix-domain dpstore_server. Returns -1 with `*why` set.
int ConnectUnix(const std::string& path, Status* why) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *why = InvalidArgumentError("socket path too long: " + path);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *why = UnavailableError(std::string("socket(): ") + std::strerror(errno));
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *why = UnavailableError("connect(" + path +
                            "): " + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Connects to a TCP dpstore_server. Returns -1 with `*why` set.
int ConnectTcp(const std::string& host, uint16_t port, Status* why) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                               &results);
  if (rc != 0) {
    *why = UnavailableError("getaddrinfo(" + host + "): " +
                            ::gai_strerror(rc));
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    *why = UnavailableError("connect(" + host + ":" + service +
                            "): " + std::strerror(errno));
    return -1;
  }
  // Small header-only frames (single-block exchanges, acks) must not sit in
  // Nagle's buffer: this backend MEASURES latency.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

SocketBackend::SocketBackend(uint64_t n, size_t block_size,
                             SocketBackendOptions options)
    : n_(n),
      block_size_(block_size),
      options_(std::move(options)),
      reconnects_left_(options_.max_reconnects),
      backoff_rng_(options_.reconnect_seed) {
  StartConnection();
}

void SocketBackend::StartConnection() {
  Status why = OkStatus();
  if (!options_.socket_path.empty()) {
    fd_ = ConnectUnix(options_.socket_path, &why);
  } else if (!options_.host.empty()) {
    fd_ = ConnectTcp(options_.host, options_.port, &why);
  } else {
    // In-process fallback: the same dispatch loop dpstore_server runs,
    // served from a thread over a socketpair.
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      why = UnavailableError(std::string("socketpair(): ") +
                             std::strerror(errno));
    } else {
      fd_ = fds[0];
      server_ = std::thread([server_fd = fds[1]] {
        ServeStorageConnection(server_fd);
      });
    }
  }
  if (fd_ < 0) {
    broken_ = std::move(why);
    return;
  }
  frames_ = wire::FrameReader(fd_);
  // Open handshake: the server binds this connection to an engine
  // namespace of this geometry (private by default, shared when the
  // options say so). A rejection (or transport failure) latches as
  // broken_, so every later operation reports the root cause.
  StatusOr<StorageReply> ack = ControlRoundTrip(
      wire::FrameType::kOpen, n_, static_cast<uint32_t>(block_size_),
      BlockBuffer());
  if (!ack.ok() && broken_.ok()) broken_ = ack.status();
}

void SocketBackend::TearDownConnection() {
  // Shutdown first: it ends the fallback server's reader with EOF, so the
  // join below (and thus destruction) can never hang on a peer.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void SocketBackend::MaybeReconnect() {
  // A peer that closed while nothing was reading is noticed only by a
  // read: with budget to redial, look before writing into a dead socket.
  if (broken_.ok() && reconnects_left_ > 0) DrainReplies();
  while (!broken_.ok() && reconnects_left_ > 0) {
    --reconnects_left_;
    ++reconnect_attempts_;
    const int attempt = options_.max_reconnects - reconnects_left_;
    uint64_t backoff = options_.reconnect_base_ms;
    for (int i = 1; i < attempt && backoff < options_.reconnect_cap_ms; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, options_.reconnect_cap_ms);
    // Full jitter in [backoff, 2*backoff): deterministic given the seed,
    // decorrelated across backends seeded differently.
    if (backoff > 0) backoff += backoff_rng_.Uniform(backoff);
    TearDownConnection();
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    // BreakConnection already failed every exchange in flight and reaped
    // the deadline-abandoned ones.
    broken_ = OkStatus();
    // Redial + re-Open. On failure this latches broken_ again and the
    // loop burns the next unit of budget (or gives up).
    StartConnection();
  }
}

SocketBackend::~SocketBackend() { TearDownConnection(); }

Status SocketBackend::ConnectionStatus() const { return broken_; }

Status SocketBackend::SetArray(std::vector<Block> blocks) {
  // Validate locally so geometry errors match StorageServer::SetArray
  // byte for byte (and skip shipping a doomed payload).
  if (blocks.size() != n_) {
    return InvalidArgumentError("SetArray: wrong block count");
  }
  for (const Block& block : blocks) {
    if (block.size() != block_size_) {
      return InvalidArgumentError("SetArray: block size mismatch");
    }
  }
  if (block_size_ > 0 &&
      n_ > (wire::kMaxFrameBytes - wire::kHeaderBytes) / block_size_) {
    return InvalidArgumentError("SetArray: array exceeds the wire frame cap");
  }
  BlockBuffer flat = BlockBuffer::Pack(blocks);
  return ControlRoundTrip(wire::FrameType::kSetArray, 0,
                          static_cast<uint32_t>(block_size_), std::move(flat))
      .status();
}

Ticket SocketBackend::Submit(StorageRequest request) {
  MaybeReconnect();
  if (!broken_.ok()) return ParkImmediate(broken_);
  // Free-by-contract exchanges never reach the wire (no frame, no fault
  // roll, no transcript event) — the base-class contract.
  if (request.IsNoOp()) return ParkImmediate(StorageReply{});
  // Decided locally, exactly as the in-process backends decide them in
  // Execute: validation first, then one fault roll per exchange. Nothing
  // crosses the wire and nothing is recorded for either.
  Status early = ValidateRequest(request, n_, block_size_);
  if (early.ok()) {
    // Both legs of the exchange must fit one wire frame: the request
    // (8-byte indices, plus the payload for uploads) and the download
    // reply (count blocks). Division, not multiplication, so a huge
    // count cannot wrap the arithmetic.
    const uint64_t count = request.indices.size();
    const uint64_t per_block =
        request.op == StorageRequest::Op::kDownload
            ? std::max<uint64_t>(8, block_size_)
            : 8 + uint64_t{request.payload.block_size()};
    if (count > (wire::kMaxFrameBytes - wire::kHeaderBytes) / per_block) {
      early = InvalidArgumentError(
          "exchange of " + std::to_string(count) +
          " blocks exceeds the wire frame cap");
    }
  }
  if (early.ok()) early = faults_.MaybeInject();
  if (!early.ok()) return ParkImmediate(std::move(early));

  const Ticket ticket = next_ticket_++;
  wire::EncodedFrame frame = wire::EncodeRequest(request, ticket);
  auto flight = std::make_unique<InFlight>();
  flight->op = request.op;
  flight->indices = std::move(request.indices);
  if (request.op == StorageRequest::Op::kDownload) {
    flight->expected_blocks = flight->indices.size();
  } else if (request.op == StorageRequest::Op::kDpfEval) {
    // The server answers an eval with one aggregate block of the arena's
    // geometry; the key bytes are remembered for RecordEval at Wait.
    flight->expected_blocks = 1;
    flight->eval_query_bytes = request.payload.bytes();
  } else {
    flight->expected_blocks = 0;  // uploads answer with an empty ack
  }
  flight->record = true;
  flight->submitted = std::chrono::steady_clock::now();
  if (request.deadline_ms > 0) {
    flight->deadline =
        flight->submitted + std::chrono::milliseconds(request.deadline_ms);
  }
  const auto deadline = flight->deadline;
  in_flight_.emplace(ticket, std::move(flight));
  // frame.body aliases request.payload, which outlives the write.
  SendFrame(frame, deadline);
  return ticket;
}

StatusOr<StorageReply> SocketBackend::Wait(Ticket ticket) {
  auto it = in_flight_.find(ticket);
  if (it == in_flight_.end() || it->second->abandoned) {
    return InvalidArgumentError(
        "Wait: unknown or already-consumed ticket " + std::to_string(ticket));
  }
  InFlight* slot = it->second.get();
  if (!Await(*slot, slot->deadline)) {
    // The exchange stays in the map, flagged: a later read discards the
    // late reply without desynchronizing the stream, and the server may
    // or may not have applied it — the same ambiguity as a broken
    // connection, so callers treat DeadlineExceeded exactly like
    // Unavailable for retry purposes.
    slot->abandoned = true;
    return DeadlineExceededError("Wait: exchange exceeded its deadline");
  }
  // `it` is still valid: parking only erases abandoned flights.
  std::unique_ptr<InFlight> flight = std::move(it->second);
  in_flight_.erase(it);
  // Transcript recording happens at Wait, atomically per exchange (as in
  // ClusterBackend): awaited in submission order — which
  // every scheme's narrow calls guarantee — the adversary's view is
  // bit-identical to the in-memory backend's.
  if (flight->record && flight->reply.ok()) {
    if (flight->op == StorageRequest::Op::kDpfEval) {
      transcript_.RecordRoundtrip();
      transcript_.RecordEval(flight->eval_query_bytes);
    } else if (flight->op == StorageRequest::Op::kDownload) {
      transcript_.RecordRoundtrip();
      transcript_.RecordMany(AccessEvent::Type::kDownload, flight->indices);
    } else {
      transcript_.RecordMany(AccessEvent::Type::kUpload, flight->indices);
    }
  }
  return std::move(flight->reply);
}

Block SocketBackend::PeekBlock(BlockId index) const {
  DPSTORE_CHECK_LT(index, n_);
  // Peek is morally const (an unrecorded read) but must travel the same
  // frame/reply machinery as everything else.
  auto* self = const_cast<SocketBackend*>(this);
  StatusOr<StorageReply> reply = self->ControlRoundTrip(
      wire::FrameType::kPeek, index, 0, BlockBuffer());
  DPSTORE_CHECK_OK(reply.status());
  DPSTORE_CHECK_EQ(reply->blocks.size(), 1u);
  return ToBlock(reply->blocks[0]);
}

void SocketBackend::CorruptBlock(BlockId index) {
  DPSTORE_CHECK_LT(index, n_);
  DPSTORE_CHECK_GT(block_size_, 0u);
  DPSTORE_CHECK_OK(
      ControlRoundTrip(wire::FrameType::kCorrupt, index, 0, BlockBuffer())
          .status());
}

void SocketBackend::SetFailureRate(double rate, uint64_t seed) {
  faults_.Set(rate, seed);
}

double SocketBackend::MeasuredWallMs() const { return measured_wall_ms_; }

uint64_t SocketBackend::RetriedAttempts() const {
  return reconnect_attempts_;
}

StatusOr<StorageReply> SocketBackend::Execute(StorageRequest request) {
  return Wait(Submit(std::move(request)));
}

Ticket SocketBackend::ParkImmediate(StatusOr<StorageReply> reply) {
  const Ticket ticket = next_ticket_++;
  auto flight = std::make_unique<InFlight>();
  flight->done = true;
  flight->reply = std::move(reply);
  in_flight_.emplace(ticket, std::move(flight));
  return ticket;
}

StatusOr<StorageReply> SocketBackend::ControlRoundTrip(
    wire::FrameType type, uint64_t aux, uint32_t block_size,
    const BlockBuffer& body) {
  // The re-Open handshake runs inside MaybeReconnect itself.
  if (type != wire::FrameType::kOpen) MaybeReconnect();
  if (!broken_.ok()) return broken_;
  const Ticket ticket = next_ticket_++;
  auto flight = std::make_unique<InFlight>();
  flight->expected_blocks = type == wire::FrameType::kPeek ? 1 : 0;
  InFlight* slot = flight.get();
  in_flight_.emplace(ticket, std::move(flight));
  wire::EncodedFrame frame;
  if (type == wire::FrameType::kSetArray) {
    frame = wire::EncodeSetArray(body, ticket);  // aliases `body`
  } else if (type == wire::FrameType::kOpen) {
    // The handshake carries the namespace binding from the options:
    // private by default, or attach-or-create of a shared namespace.
    frame = wire::EncodeOpen(ticket, aux, block_size, options_.namespace_id,
                             options_.attach_or_create ? 1 : 0);
  } else {
    frame = wire::EncodeControl(type, ticket, aux, block_size);
  }
  SendFrame(frame, std::chrono::steady_clock::time_point::max());
  Await(*slot, std::chrono::steady_clock::time_point::max());
  StatusOr<StorageReply> reply = std::move(slot->reply);
  in_flight_.erase(ticket);
  return reply;
}

void SocketBackend::SendFrame(const wire::EncodedFrame& frame,
                              std::chrono::steady_clock::time_point deadline) {
  // While the socket is full, park whatever replies are readable: the
  // server may be blocked writing them, and so not reading this frame.
  Status written =
      wire::WriteFrame(fd_, frame, deadline, [this] { return DrainReplies(); });
  // A frame that did not go out whole (deadline mid-frame, peer gone)
  // leaves the stream unresyncable; the reconnect budget applies later.
  if (!written.ok()) BreakConnection(std::move(written));
}

Status SocketBackend::DrainReplies() {
  while (broken_.ok() && frames_.Poll()) Park(frames_.Read());
  return broken_;
}

bool SocketBackend::Await(const InFlight& slot,
                          std::chrono::steady_clock::time_point deadline) {
  while (!slot.done) {
    StatusOr<wire::DecodedFrame> frame = frames_.Read(deadline);
    if (frame.status().code() == StatusCode::kDeadlineExceeded) return false;
    Park(std::move(frame));
  }
  return true;
}

void SocketBackend::Park(StatusOr<wire::DecodedFrame> frame) {
  if (!frame.ok()) {
    // EOF, a corrupt frame or an I/O error breaks every exchange still in
    // flight rather than crashing or hanging.
    BreakConnection(frame.status());
    return;
  }
  auto it = in_flight_.find(frame->header.ticket);
  if (it != in_flight_.end() && it->second->abandoned) {
    // Late reply for a deadline-abandoned exchange: the stream is still
    // in sync — consume the frame silently and reap the flight.
    in_flight_.erase(it);
    return;
  }
  if (it == in_flight_.end() || it->second->done) {
    BreakConnection(
        DataLossError("wire: reply for unknown or completed ticket " +
                      std::to_string(frame->header.ticket)));
    return;
  }
  InFlight* slot = it->second.get();
  if (frame->header.type == wire::FrameType::kReplyBlocks) {
    // A WELL-FORMED reply whose geometry disagrees with the request is as
    // hostile as a corrupt frame: without this check, a lying server
    // could park a 0-block reply for a 1-block download and crash the
    // client at reply.blocks[0] instead of failing the exchange.
    if (frame->payload.size() != slot->expected_blocks ||
        (!frame->payload.empty() &&
         frame->payload.block_size() != block_size_)) {
      BreakConnection(
          DataLossError("wire: reply geometry mismatch for ticket " +
                        std::to_string(frame->header.ticket)));
      return;
    }
    slot->reply = StorageReply{std::move(frame->payload)};
  } else if (frame->header.type == wire::FrameType::kReplyError) {
    slot->reply = Status(static_cast<StatusCode>(frame->header.code),
                         std::move(frame->message));
  } else {
    BreakConnection(
        DataLossError("wire: unexpected frame type in reply stream"));
    return;
  }
  slot->done = true;
  if (slot->record && slot->reply.ok()) {
    measured_wall_ms_ += std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - slot->submitted)
                             .count();
  }
}

void SocketBackend::BreakConnection(Status why) {
  if (broken_.ok()) {
    broken_ = UnavailableError("socket backend: connection broken: " +
                               why.ToString());
  }
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    InFlight* flight = it->second.get();
    if (flight->abandoned) {
      // Deadline-abandoned: nobody will Wait this ticket again, and the
      // reply it was waiting for died with the connection.
      it = in_flight_.erase(it);
      continue;
    }
    if (!flight->done) {
      flight->done = true;
      flight->reply = broken_;  // not OK: Wait records nothing
    }
    ++it;
  }
}

BackendFactory SocketBackendFactory(SocketBackendOptions options,
                                    bool counting_only) {
  return [options, counting_only](uint64_t n, size_t block_size) {
    auto backend = std::make_unique<SocketBackend>(n, block_size, options);
    if (counting_only) backend->SetTranscriptCountingOnly(true);
    return backend;
  };
}

}  // namespace dpstore
