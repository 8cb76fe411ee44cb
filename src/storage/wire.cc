#include "storage/wire.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cstring>
#include <string_view>

#include "util/io.h"

namespace dpstore {
namespace wire {

namespace {

// Explicit little-endian scalar serialization: the format is defined by
// these loops, not by host memory layout.
template <typename T>
void Put(std::vector<uint8_t>* out, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(uint8_t(value >> (8 * i)));
  }
}

template <typename T>
T Get(const uint8_t* p) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) value |= T(p[i]) << (8 * i);
  return value;
}

/// Assembles a frame: `head` = length prefix + header + indices + `text`
/// (an error message: small, and owned nowhere stable the frame could
/// alias), `body` = the payload leg (aliased, not copied).
EncodedFrame MakeFrame(const FrameHeader& header, BlockView body = {},
                       const std::vector<BlockId>& indices = {},
                       std::string_view text = {}) {
  EncodedFrame frame;
  frame.body = body;
  std::vector<uint8_t>& head = frame.head;
  head.reserve(4 + kHeaderBytes + indices.size() * 8 + text.size());
  const uint64_t length =
      kHeaderBytes + indices.size() * 8 + text.size() + body.size();
  Put<uint32_t>(&head, static_cast<uint32_t>(length));
  head.push_back(header.version);
  head.push_back(static_cast<uint8_t>(header.type));
  head.push_back(header.code);
  head.push_back(0);  // reserved
  Put<uint64_t>(&head, header.ticket);
  Put<uint64_t>(&head, header.count);
  Put<uint32_t>(&head, header.block_size);
  Put<uint64_t>(&head, header.aux);
  for (BlockId index : indices) Put<uint64_t>(&head, index);
  head.insert(head.end(), text.begin(), text.end());
  return frame;
}

Status TruncatedError(const char* what) {
  return DataLossError(std::string("wire: truncated frame: ") + what);
}

}  // namespace

EncodedFrame EncodeRequest(const StorageRequest& request, uint64_t ticket) {
  FrameHeader header{.type = FrameType::kRequest,
                     .code = static_cast<uint8_t>(request.op),
                     .ticket = ticket,
                     .count = request.indices.size(),
                     .block_size = static_cast<uint32_t>(
                         request.payload.block_size())};
  if (request.op == StorageRequest::Op::kDpfEval) {
    // A dpf-eval frame carries no indices: count sizes the key payload
    // (one "block" of key bytes) and aux is the domain offset.
    header.count = request.payload.size();
    header.aux = request.dpf_offset;
  }
  return MakeFrame(header, request.payload.AllBytes(), request.indices);
}

EncodedFrame EncodeReplyBlocks(const BlockBuffer& blocks, uint64_t ticket,
                               uint8_t version) {
  return EncodeReplyBlocksView(blocks.AllBytes(), blocks.size(),
                               static_cast<uint32_t>(blocks.block_size()),
                               ticket, version);
}

EncodedFrame EncodeReplyBlocksView(BlockView body, uint64_t count,
                                   uint32_t block_size, uint64_t ticket,
                                   uint8_t version) {
  return MakeFrame({.version = version,
                    .type = FrameType::kReplyBlocks,
                    .ticket = ticket,
                    .count = count,
                    .block_size = block_size},
                   body);
}

EncodedFrame EncodeReplyError(const Status& status, uint64_t ticket,
                              uint8_t version) {
  return MakeFrame({.version = version,
                    .type = FrameType::kReplyError,
                    .code = static_cast<uint8_t>(status.code()),
                    .ticket = ticket,
                    .count = status.message().size()},
                   {}, {}, status.message());
}

EncodedFrame EncodeControl(FrameType type, uint64_t ticket, uint64_t aux,
                           uint32_t block_size) {
  return MakeFrame(
      {.type = type, .ticket = ticket, .block_size = block_size, .aux = aux});
}

EncodedFrame EncodeOpen(uint64_t ticket, uint64_t n, uint32_t block_size,
                        uint64_t namespace_id, uint8_t mode) {
  return MakeFrame({.type = FrameType::kOpen,
                    .code = mode,
                    .ticket = ticket,
                    .count = namespace_id,
                    .block_size = block_size,
                    .aux = n});
}

EncodedFrame EncodeSetArray(const BlockBuffer& array, uint64_t ticket) {
  return MakeFrame({.type = FrameType::kSetArray,
                    .ticket = ticket,
                    .count = array.size(),
                    .block_size = static_cast<uint32_t>(array.block_size())},
                   array.AllBytes());
}

StatusOr<DecodedFrame> DecodeFrame(BlockView bytes) {
  if (bytes.size() < kHeaderBytes) return TruncatedError("header");
  const uint8_t* p = bytes.data();
  DecodedFrame frame;
  FrameHeader& header = frame.header;
  header.version = p[0];
  if (header.version < kMinWireVersion || header.version > kWireVersion) {
    return InvalidArgumentError("wire: unknown version " +
                                std::to_string(header.version));
  }
  const uint8_t raw_type = p[1];
  if (raw_type < static_cast<uint8_t>(FrameType::kRequest) ||
      raw_type > static_cast<uint8_t>(FrameType::kCorrupt)) {
    return InvalidArgumentError("wire: unknown frame type " +
                                std::to_string(raw_type));
  }
  header.type = static_cast<FrameType>(raw_type);
  header.code = p[2];
  // p[3] reserved, ignored.
  header.ticket = Get<uint64_t>(p + 4);
  header.count = Get<uint64_t>(p + 12);
  header.block_size = Get<uint32_t>(p + 20);
  header.aux = Get<uint64_t>(p + 24);
  const size_t rest = bytes.size() - kHeaderBytes;
  const uint8_t* tail = p + kHeaderBytes;

  // Every type's body size is fully determined by the header; a mismatch
  // with the actual frame length is a corrupt (or hostile) frame. Checking
  // BEFORE sizing any allocation is what defuses a forged max-count header.
  switch (header.type) {
    case FrameType::kRequest: {
      if (header.code > 2) {
        return InvalidArgumentError("wire: unknown request op " +
                                    std::to_string(header.code));
      }
      if (header.code == 2) {
        // DPF eval: no indices; the payload is exactly one serialized key
        // of block_size bytes (count == 1 by construction), aux is the
        // domain offset. Same defensive arithmetic as uploads.
        if (header.count != 1 || header.block_size == 0 ||
            size_t(header.block_size) != rest) {
          return TruncatedError("dpf key payload");
        }
        frame.payload = BlockBuffer::Uninitialized(1, header.block_size);
        CopyBytes(frame.payload.Mutable(0).data(), tail, rest);
        return frame;
      }
      const bool upload = header.code == 1;
      // count * 8 (indices) + payload must be exactly `rest`; work in
      // checked steps so a forged count cannot overflow the arithmetic.
      if (header.count > rest / 8) return TruncatedError("indices");
      const size_t index_bytes = size_t(header.count) * 8;
      const size_t payload_bytes = rest - index_bytes;
      if (upload) {
        if (size_t(header.count) * header.block_size != payload_bytes) {
          return TruncatedError("upload payload");
        }
      } else if (payload_bytes != 0) {
        return InvalidArgumentError("wire: download request carries payload");
      }
      frame.indices.resize(header.count);
      for (uint64_t i = 0; i < header.count; ++i) {
        frame.indices[i] = Get<uint64_t>(tail + i * 8);
      }
      if (upload && header.count > 0) {
        frame.payload =
            BlockBuffer::Uninitialized(header.count, header.block_size);
        CopyBytes(frame.payload.Mutable(0).data(), tail + index_bytes,
                  payload_bytes);
      }
      return frame;
    }
    case FrameType::kReplyBlocks:
    case FrameType::kSetArray: {
      if (header.block_size == 0 && header.count > 0) {
        return InvalidArgumentError("wire: blocks frame with block_size 0");
      }
      if (header.count != 0 &&
          (header.count > rest / header.block_size ||
           size_t(header.count) * header.block_size != rest)) {
        return TruncatedError("block payload");
      }
      if (header.count == 0 && rest != 0) {
        return InvalidArgumentError("wire: empty blocks frame with payload");
      }
      if (header.count > 0) {
        frame.payload =
            BlockBuffer::Uninitialized(header.count, header.block_size);
        CopyBytes(frame.payload.Mutable(0).data(), tail, rest);
      }
      return frame;
    }
    case FrameType::kReplyError: {
      if (header.count != rest) return TruncatedError("error message");
      if (header.code == 0 ||
          header.code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
        return InvalidArgumentError("wire: error frame with bad status code " +
                                    std::to_string(header.code));
      }
      frame.message.assign(reinterpret_cast<const char*>(tail), rest);
      return frame;
    }
    case FrameType::kOpen:
    case FrameType::kPeek:
    case FrameType::kCorrupt: {
      if (rest != 0) {
        return InvalidArgumentError("wire: control frame carries payload");
      }
      if (header.type == FrameType::kOpen) {
        // v2: code is the attach mode; a v1 frame always carries 0
        // (private), so one check covers both versions.
        if (header.code > 1) {
          return InvalidArgumentError("wire: unknown open mode " +
                                      std::to_string(header.code));
        }
        if (header.code == 1 && header.count == 0) {
          return InvalidArgumentError(
              "wire: shared open requires a nonzero namespace id");
        }
      }
      return frame;
    }
  }
  return InternalError("wire: unreachable frame type");
}

namespace {

/// poll()s `fd` for `events` until `deadline` (time_point::max(): no
/// limit): the signalled events, 0 on timeout, -1 if already past it.
int PollUntil(int fd, short events,
              std::chrono::steady_clock::time_point deadline) {
  int timeout_ms = -1;
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    // Rounded up, so a sub-millisecond remainder still sleeps.
    const int64_t left = std::chrono::ceil<std::chrono::milliseconds>(
                             deadline - std::chrono::steady_clock::now())
                             .count();
    if (left <= 0) return -1;
    timeout_ms = static_cast<int>(std::min<int64_t>(left, 1 << 30));
  }
  struct pollfd ready{fd, events, 0};
  return ::poll(&ready, 1, timeout_ms) > 0 ? ready.revents : 0;
}

}  // namespace

Status WriteFrame(int fd, const EncodedFrame& frame,
                  std::chrono::steady_clock::time_point deadline,
                  const std::function<Status()>& drain) {
  // The writer side of the length-prefix contract: a frame beyond the cap
  // would be rejected by any conforming reader — and beyond u32, its
  // truncated prefix would desynchronize the stream. Refuse to put it on
  // the wire at all; the connection stays usable.
  const uint64_t length =
      (frame.head.size() - sizeof(uint32_t)) + frame.body.size();
  if (length > kMaxFrameBytes) {
    return InvalidArgumentError("wire: frame of " + std::to_string(length) +
                                " bytes exceeds cap");
  }
  struct iovec iov[2];
  iov[0].iov_base = const_cast<uint8_t*>(frame.head.data());
  iov[0].iov_len = frame.head.size();
  iov[1].iov_base = const_cast<uint8_t*>(frame.body.data());
  iov[1].iov_len = frame.body.size();
  int iovcnt = frame.body.empty() ? 1 : 2;
  struct iovec* cursor = iov;
  // MSG_DONTWAIT per send rather than O_NONBLOCK on the socket: reads of
  // the same descriptor keep their own blocking mode.
  const int flags = MSG_NOSIGNAL | MSG_DONTWAIT;
  const short events = POLLOUT | (drain ? POLLIN : 0);
  while (iovcnt > 0) {
    // sendmsg(MSG_NOSIGNAL), not writev: a peer that vanished mid-write
    // must surface as EPIPE, not kill the process with SIGPIPE.
    struct msghdr msg{};
    msg.msg_iov = cursor;
    msg.msg_iovlen = iovcnt;
    const ssize_t wrote = io::SendmsgEintr(fd, &msg, flags);
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int revents = PollUntil(fd, events, deadline);
      if (revents < 0) {
        return DeadlineExceededError(
            "wire: frame not written before its deadline");
      }
      if (drain && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        DPSTORE_RETURN_IF_ERROR(drain());
      }
      continue;
    }
    if (wrote < 0) {
      return UnavailableError(std::string("wire: write failed: ") +
                              std::strerror(errno));
    }
    size_t remaining = static_cast<size_t>(wrote);
    while (iovcnt > 0 && remaining >= cursor->iov_len) {
      remaining -= cursor->iov_len;
      ++cursor;
      --iovcnt;
    }
    if (iovcnt > 0) {
      cursor->iov_base = static_cast<uint8_t*>(cursor->iov_base) + remaining;
      cursor->iov_len -= remaining;
    }
  }
  return OkStatus();
}

StatusOr<DecodedFrame> FrameReader::Read(
    std::chrono::steady_clock::time_point deadline) {
  // A bounded read tries the socket before sleeping in poll, so a frame
  // that already arrived costs one recv even past the deadline.
  const bool bounded = deadline != std::chrono::steady_clock::time_point::max();
  const int flags = bounded ? MSG_DONTWAIT : 0;
  while (!FrameBuffered()) {
    if (!failed_.ok()) return failed_;
    if (!Fill(flags) && PollUntil(fd_, POLLIN, deadline) < 0) {
      return DeadlineExceededError("wire: frame not read before its deadline");
    }
  }
  const size_t span = FrameSpan();
  StatusOr<DecodedFrame> frame =
      DecodeFrame(BlockView(buffer_.data() + begin_ + 4, span - 4));
  begin_ += span;
  if (begin_ == end_) begin_ = end_ = 0;
  return frame;
}

bool FrameReader::Poll() {
  while (!FrameBuffered() && failed_.ok()) {
    if (!Fill(MSG_DONTWAIT)) return false;
  }
  return true;
}

size_t FrameReader::FrameSpan() const {
  if (end_ - begin_ < 4) return 4;
  return 4 + size_t{Get<uint32_t>(buffer_.data() + begin_)};
}

bool FrameReader::Fill(int flags) {
  const size_t span = FrameSpan();
  if (span - 4 > kMaxFrameBytes) {
    failed_ = DataLossError("wire: frame length " + std::to_string(span - 4) +
                            " exceeds cap");
    return true;
  }
  if (begin_ + span > buffer_.size()) {
    // Slide the partial frame to the front and grow to fit it (at least
    // 64 KiB, so one recv can bring several pipelined frames).
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    }
    end_ -= begin_;
    begin_ = 0;
    if (span > buffer_.size()) {
      buffer_.resize(std::max<size_t>(span, size_t{1} << 16));
    }
  }
  const ssize_t got =
      io::RecvEintr(fd_, buffer_.data() + end_, buffer_.size() - end_, flags);
  if (got > 0) {
    end_ += static_cast<size_t>(got);
    return true;
  }
  if (got < 0 && (flags & MSG_DONTWAIT) != 0 &&
      (errno == EAGAIN || errno == EWOULDBLOCK)) {
    return false;
  }
  if (got == 0) {
    failed_ = begin_ == end_
                  ? NotFoundError("wire: connection closed")
                  : DataLossError("wire: connection closed mid-frame");
  } else {
    failed_ = UnavailableError(std::string("wire: read failed: ") +
                               std::strerror(errno));
  }
  return true;
}

}  // namespace wire
}  // namespace dpstore
