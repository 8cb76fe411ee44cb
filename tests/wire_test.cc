// Wire codec suite: encode/decode round-trips for every frame type, plus
// the defensive-decoding table the codec is contractually held to —
// truncated, corrupt, or hostile frames must decode to an error Status,
// never crash, hang, or size an allocation from an unchecked header —
// and the same standard for FrameReader over a real stream socket.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/backend.h"
#include "storage/block_buffer.h"
#include "storage/wire.h"
#include "util/random.h"

namespace dpstore {
namespace {

/// The bytes DecodeFrame sees: head minus the u32 length prefix, then the
/// body leg — exactly what FrameReader reassembles from the stream.
std::vector<uint8_t> FrameBytes(const wire::EncodedFrame& frame) {
  std::vector<uint8_t> bytes(frame.head.begin() + 4, frame.head.end());
  bytes.insert(bytes.end(), frame.body.begin(), frame.body.end());
  return bytes;
}

BlockBuffer MarkerBuffer(size_t count, size_t block_size, uint64_t base = 0) {
  BlockBuffer buffer(block_size);
  for (size_t i = 0; i < count; ++i) {
    buffer.Append(MarkerBlock(base + i, block_size));
  }
  return buffer;
}

// --- Round-trips -------------------------------------------------------------

TEST(WireCodecTest, DownloadRequestRoundTrips) {
  StorageRequest request = StorageRequest::DownloadOf({3, 0, 17, 3});
  wire::EncodedFrame frame = wire::EncodeRequest(request, /*ticket=*/42);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kRequest);
  EXPECT_EQ(decoded->header.code, 0);  // download
  EXPECT_EQ(decoded->header.ticket, 42u);
  EXPECT_EQ(decoded->indices, (std::vector<BlockId>{3, 0, 17, 3}));
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(WireCodecTest, UploadRequestRoundTripsPayloadBytes) {
  StorageRequest request =
      StorageRequest::UploadOf({5, 9}, MarkerBuffer(2, 16, 100));
  wire::EncodedFrame frame = wire::EncodeRequest(request, /*ticket=*/7);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.code, 1);  // upload
  EXPECT_EQ(decoded->indices, (std::vector<BlockId>{5, 9}));
  ASSERT_EQ(decoded->payload.size(), 2u);
  EXPECT_EQ(decoded->payload.block_size(), 16u);
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[0], 100));
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[1], 101));
}

TEST(WireCodecTest, ZeroBlockExchangesRoundTrip) {
  // A zero-index download and a zero-block upload are legal frames (the
  // client normally short-circuits them, but the codec must not assume).
  for (auto op : {StorageRequest::Op::kDownload, StorageRequest::Op::kUpload}) {
    StorageRequest request;
    request.op = op;
    wire::EncodedFrame frame = wire::EncodeRequest(request, /*ticket=*/1);
    auto decoded = wire::DecodeFrame(FrameBytes(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(decoded->indices.empty());
    EXPECT_TRUE(decoded->payload.empty());
  }
}

TEST(WireCodecTest, ReplyBlocksRoundTripsIncludingEmptyAck) {
  BlockBuffer blocks = MarkerBuffer(3, 8);
  wire::EncodedFrame frame = wire::EncodeReplyBlocks(blocks, /*ticket=*/9);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kReplyBlocks);
  ASSERT_EQ(decoded->payload.size(), 3u);
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[2], 2));

  wire::EncodedFrame ack = wire::EncodeReplyBlocks(BlockBuffer(), 10);
  auto decoded_ack = wire::DecodeFrame(FrameBytes(ack));
  ASSERT_TRUE(decoded_ack.ok()) << decoded_ack.status();
  EXPECT_EQ(decoded_ack->header.ticket, 10u);
  EXPECT_TRUE(decoded_ack->payload.empty());
}

TEST(WireCodecTest, ErrorReplyRoundTripsStatus) {
  const Status error = OutOfRangeError("index 99 >= n=8");
  wire::EncodedFrame frame = wire::EncodeReplyError(error, /*ticket=*/3);
  EXPECT_TRUE(frame.body.empty());  // message rides in the head
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kReplyError);
  EXPECT_EQ(static_cast<StatusCode>(decoded->header.code),
            StatusCode::kOutOfRange);
  EXPECT_EQ(decoded->message, "index 99 >= n=8");
}

TEST(WireCodecTest, ControlFramesRoundTrip) {
  wire::EncodedFrame open =
      wire::EncodeControl(wire::FrameType::kOpen, 1, /*aux=*/1024,
                          /*block_size=*/64);
  auto decoded = wire::DecodeFrame(FrameBytes(open));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kOpen);
  EXPECT_EQ(decoded->header.aux, 1024u);
  EXPECT_EQ(decoded->header.block_size, 64u);

  wire::EncodedFrame peek =
      wire::EncodeControl(wire::FrameType::kPeek, 2, /*aux=*/17, 0);
  auto decoded_peek = wire::DecodeFrame(FrameBytes(peek));
  ASSERT_TRUE(decoded_peek.ok());
  EXPECT_EQ(decoded_peek->header.aux, 17u);
}

TEST(WireCodecTest, SetArrayRoundTrips) {
  BlockBuffer array = MarkerBuffer(4, 8);
  wire::EncodedFrame frame = wire::EncodeSetArray(array, /*ticket=*/5);
  auto decoded = wire::DecodeFrame(FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, wire::FrameType::kSetArray);
  ASSERT_EQ(decoded->payload.size(), 4u);
  EXPECT_TRUE(IsMarkerBlock(decoded->payload[3], 3));
}

// --- Defensive decoding ------------------------------------------------------

TEST(WireCodecTest, EveryTruncationOfAValidFrameIsAnError) {
  // The header's count/block_size fully determine the frame length, so any
  // proper prefix must be internally inconsistent — and an error.
  StorageRequest request =
      StorageRequest::UploadOf({1, 2, 3}, MarkerBuffer(3, 8));
  std::vector<uint8_t> bytes =
      FrameBytes(wire::EncodeRequest(request, /*ticket=*/1));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = wire::DecodeFrame(BlockView(bytes.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireCodecTest, MaxCountHeaderIsRejectedWithoutAllocating) {
  // A forged count (here 2^61 blocks) must be rejected by the
  // length-consistency check before it can size any allocation.
  StorageRequest request = StorageRequest::DownloadOf({1});
  std::vector<uint8_t> bytes =
      FrameBytes(wire::EncodeRequest(request, /*ticket=*/1));
  const uint64_t huge = uint64_t{1} << 61;
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));  // count field
  auto decoded = wire::DecodeFrame(bytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, BadVersionTypeAndOpAreRejected) {
  StorageRequest request = StorageRequest::DownloadOf({1});
  const std::vector<uint8_t> good =
      FrameBytes(wire::EncodeRequest(request, /*ticket=*/1));

  std::vector<uint8_t> bad = good;
  bad[0] = 99;  // version
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());

  bad = good;
  bad[1] = 0;  // frame type below range
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());
  bad[1] = 200;  // frame type above range
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());

  bad = good;
  bad[2] = 7;  // request op neither download nor upload
  EXPECT_FALSE(wire::DecodeFrame(bad).ok());
}

TEST(WireCodecTest, InconsistentGeometryIsRejected) {
  // Download carrying payload bytes.
  StorageRequest download = StorageRequest::DownloadOf({1, 2});
  std::vector<uint8_t> bytes =
      FrameBytes(wire::EncodeRequest(download, /*ticket=*/1));
  bytes.push_back(0xAB);
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());

  // Upload whose payload is one byte short of count * block_size.
  StorageRequest upload = StorageRequest::UploadOf({1}, MarkerBuffer(1, 8));
  bytes = FrameBytes(wire::EncodeRequest(upload, /*ticket=*/1));
  bytes.pop_back();
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());

  // Blocks reply claiming blocks but block_size 0. The buffer must outlive
  // the encoded frame: the frame body aliases it.
  BlockBuffer two = MarkerBuffer(2, 8);
  wire::EncodedFrame reply = wire::EncodeReplyBlocks(two, 1);
  bytes = FrameBytes(reply);
  std::memset(bytes.data() + 20, 0, 4);  // block_size field
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());

  // Error reply whose message length disagrees with the frame.
  wire::EncodedFrame err =
      wire::EncodeReplyError(InternalError("boom"), /*ticket=*/1);
  bytes = FrameBytes(err);
  bytes.push_back('!');
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());

  // Control frame carrying unexpected payload.
  wire::EncodedFrame peek =
      wire::EncodeControl(wire::FrameType::kPeek, 1, 0, 0);
  bytes = FrameBytes(peek);
  bytes.push_back(0);
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());
}

TEST(WireCodecTest, ErrorReplyWithOkOrUnknownCodeIsRejected) {
  wire::EncodedFrame err =
      wire::EncodeReplyError(InternalError("x"), /*ticket=*/1);
  std::vector<uint8_t> bytes = FrameBytes(err);
  bytes[2] = 0;  // StatusCode::kOk is not an error
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());
  bytes[2] = 250;  // far outside the canonical space
  EXPECT_FALSE(wire::DecodeFrame(bytes).ok());
}

TEST(WireCodecTest, SingleByteCorruptionNeverCrashesTheDecoder) {
  // Fuzz-ish table: flip every byte of a valid frame to several values and
  // decode. Many mutations still decode (a different ticket or index is a
  // perfectly valid frame); the contract under test is "no crash, no UB,
  // no unbounded allocation", which ASan/UBSan runs turn into hard checks.
  StorageRequest request =
      StorageRequest::UploadOf({0, 7}, MarkerBuffer(2, 8));
  const std::vector<uint8_t> good =
      FrameBytes(wire::EncodeRequest(request, /*ticket=*/77));
  int decoded_ok = 0;
  for (size_t i = 0; i < good.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> bad = good;
      bad[i] ^= flip;
      auto decoded = wire::DecodeFrame(bad);
      if (decoded.ok()) ++decoded_ok;
    }
  }
  // Flipping payload or ticket bytes must keep decoding; flipping the
  // count or type must not. Both classes exist in any valid frame.
  EXPECT_GT(decoded_ok, 0);
}

TEST(WireCodecTest, RandomBytesNeverCrashTheDecoder) {
  Rng rng(20260728);
  for (int round = 0; round < 500; ++round) {
    const size_t len = rng.Uniform(160);
    std::vector<uint8_t> bytes(len);
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Uniform(256));
    }
    // Survival (under ASan/UBSan) is the assertion; most decode to errors.
    (void)wire::DecodeFrame(bytes);
  }
}


// --- FrameReader over a stream socket --------------------------------------

/// The bytes a peer puts on the wire for `frame`: length prefix, header,
/// indices, then the body leg.
std::vector<uint8_t> WireBytes(const wire::EncodedFrame& frame) {
  std::vector<uint8_t> bytes = frame.head;
  bytes.insert(bytes.end(), frame.body.begin(), frame.body.end());
  return bytes;
}

/// A connected socketpair: the test writes on `writer`, the reader under
/// test reads `reader_fd`.
struct StreamPair {
  StreamPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer = fds[0];
    reader_fd = fds[1];
  }
  ~StreamPair() {
    if (writer >= 0) ::close(writer);
    ::close(reader_fd);
  }
  void Send(const uint8_t* data, size_t len) {
    size_t sent = 0;
    while (sent < len) {
      const ssize_t n = ::send(writer, data + sent, len - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }
  void Send(const std::vector<uint8_t>& bytes) {
    Send(bytes.data(), bytes.size());
  }
  void CloseWriter() {
    ::close(writer);
    writer = -1;
  }
  int writer = -1;
  int reader_fd = -1;
};

/// Field-by-field equality of two decoded frames.
void ExpectSameFrame(const wire::DecodedFrame& got,
                     const wire::DecodedFrame& want, const std::string& what) {
  EXPECT_EQ(got.header.version, want.header.version) << what;
  EXPECT_EQ(got.header.type, want.header.type) << what;
  EXPECT_EQ(got.header.code, want.header.code) << what;
  EXPECT_EQ(got.header.ticket, want.header.ticket) << what;
  EXPECT_EQ(got.header.count, want.header.count) << what;
  EXPECT_EQ(got.header.block_size, want.header.block_size) << what;
  EXPECT_EQ(got.header.aux, want.header.aux) << what;
  EXPECT_EQ(got.indices, want.indices) << what;
  EXPECT_EQ(got.message, want.message) << what;
  const BlockView got_bytes = got.payload.AllBytes();
  const BlockView want_bytes = want.payload.AllBytes();
  EXPECT_EQ(std::vector<uint8_t>(got_bytes.begin(), got_bytes.end()),
            std::vector<uint8_t>(want_bytes.begin(), want_bytes.end()))
      << what;
}

TEST(FrameReaderTest, FramesSplitAtEveryByteBoundaryReassemble) {
  // Each frame is sent in two parts. A read whose deadline has already
  // passed returns DeadlineExceeded while the frame is partial, and the
  // buffered prefix is not lost: after the rest arrives the frame decodes
  // exactly as DecodeFrame decodes its bytes.
  const BlockBuffer blocks = MarkerBuffer(3, 8);
  const StorageRequest upload =
      StorageRequest::UploadOf({4, 1}, MarkerBuffer(2, 16, 50));
  const std::vector<wire::EncodedFrame> frames = {
      wire::EncodeRequest(StorageRequest::DownloadOf({3, 0, 17}), 11),
      wire::EncodeRequest(upload, 12),
      wire::EncodeReplyBlocks(blocks, 13),
      wire::EncodeReplyError(NotFoundError("gone"), 14),
      wire::EncodeOpen(15, 64, 8, /*namespace_id=*/3, /*mode=*/1),
  };
  for (size_t f = 0; f < frames.size(); ++f) {
    const std::vector<uint8_t> bytes = WireBytes(frames[f]);
    StatusOr<wire::DecodedFrame> want =
        wire::DecodeFrame(FrameBytes(frames[f]));
    ASSERT_TRUE(want.ok()) << want.status();
    for (size_t split = 0; split <= bytes.size(); ++split) {
      const std::string what =
          "frame " + std::to_string(f) + " split at " + std::to_string(split);
      StreamPair pair;
      wire::FrameReader reader(pair.reader_fd);
      pair.Send(bytes.data(), split);
      if (split < bytes.size()) {
        EXPECT_FALSE(reader.Poll()) << what;
        StatusOr<wire::DecodedFrame> early =
            reader.Read(std::chrono::steady_clock::now());
        EXPECT_EQ(early.status().code(), StatusCode::kDeadlineExceeded)
            << what;
        pair.Send(bytes.data() + split, bytes.size() - split);
      }
      EXPECT_TRUE(reader.Poll()) << what;
      StatusOr<wire::DecodedFrame> got = reader.Read();
      ASSERT_TRUE(got.ok()) << what << ": " << got.status();
      ExpectSameFrame(*got, *want, what);
    }
  }
}

TEST(FrameReaderTest, SeveralFramesInOneSendAreReadInOrder) {
  // Pipelined frames arrive packed into one segment; the reader hands
  // them out one by one, still from its buffer after the peer closed, and
  // only then reports the clean close.
  constexpr uint64_t kFrames = 6;
  std::vector<BlockBuffer> payloads;
  for (uint64_t t = 0; t < kFrames; ++t) {
    payloads.push_back(MarkerBuffer(t + 1, 8, 10 * t));
  }
  std::vector<uint8_t> packed;
  for (uint64_t t = 0; t < kFrames; ++t) {
    const std::vector<uint8_t> bytes =
        WireBytes(wire::EncodeReplyBlocks(payloads[t], 100 + t));
    packed.insert(packed.end(), bytes.begin(), bytes.end());
  }
  StreamPair pair;
  pair.Send(packed);
  pair.CloseWriter();
  wire::FrameReader reader(pair.reader_fd);
  for (uint64_t t = 0; t < kFrames; ++t) {
    StatusOr<wire::DecodedFrame> got = reader.Read();
    ASSERT_TRUE(got.ok()) << t << ": " << got.status();
    EXPECT_EQ(got->header.ticket, 100 + t);
    ASSERT_EQ(got->payload.size(), t + 1);
    for (uint64_t b = 0; b <= t; ++b) {
      EXPECT_TRUE(IsMarkerBlock(got->payload[b], 10 * t + b)) << t;
    }
  }
  EXPECT_EQ(reader.Read().status().code(), StatusCode::kNotFound);
}

TEST(FrameReaderTest, HostileAndTruncatedStreamsFailWithTypedCodes) {
  // Parse table: the bytes a peer sends before closing its end, and the
  // code the read after any whole frames must return. Every failure is
  // latched, so a second read repeats it.
  const std::vector<uint8_t> ack =
      WireBytes(wire::EncodeReplyBlocks(BlockBuffer(), 1));
  std::vector<uint8_t> oversized(4);
  const uint32_t too_long = static_cast<uint32_t>(wire::kMaxFrameBytes + 1);
  std::memcpy(oversized.data(), &too_long, sizeof(too_long));
  std::vector<uint8_t> half_ack(ack.begin(), ack.begin() + ack.size() / 2);
  std::vector<uint8_t> bad_version = ack;
  bad_version[4] = 99;
  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
    size_t whole_frames;
    StatusCode code;
  };
  std::vector<uint8_t> ack_then_half = ack;
  ack_then_half.insert(ack_then_half.end(), half_ack.begin(), half_ack.end());
  const std::vector<Case> cases = {
      {"eof before the first byte", {}, 0, StatusCode::kNotFound},
      {"eof after a whole frame", ack, 1, StatusCode::kNotFound},
      {"eof inside the length prefix", {28, 0}, 0, StatusCode::kDataLoss},
      {"eof after the prefix", {28, 0, 0, 0}, 0, StatusCode::kDataLoss},
      {"eof mid-frame", half_ack, 0, StatusCode::kDataLoss},
      {"eof mid-frame after a whole one", ack_then_half, 1,
       StatusCode::kDataLoss},
      {"oversized length prefix", oversized, 0, StatusCode::kDataLoss},
      {"whole frame of an unknown version", bad_version, 0,
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    StreamPair pair;
    pair.Send(c.bytes);
    pair.CloseWriter();
    wire::FrameReader reader(pair.reader_fd);
    for (size_t i = 0; i < c.whole_frames; ++i) {
      EXPECT_TRUE(reader.Read().ok()) << c.name;
    }
    EXPECT_TRUE(reader.Poll()) << c.name;
    EXPECT_EQ(reader.Read().status().code(), c.code) << c.name;
    if (c.code != StatusCode::kInvalidArgument) {
      EXPECT_EQ(reader.Read().status().code(), c.code) << c.name << " again";
    }
  }
}

TEST(FrameReaderTest, OversizedPrefixIsRejectedWithoutWaitingForTheBody) {
  // The cap is checked as soon as the prefix is buffered: the peer stays
  // open, and the read must fail at once instead of waiting (or
  // allocating) for a body of 1 GiB + 1 bytes.
  StreamPair pair;
  const uint32_t too_long = static_cast<uint32_t>(wire::kMaxFrameBytes + 1);
  uint8_t prefix[4];
  std::memcpy(prefix, &too_long, sizeof(prefix));
  pair.Send(prefix, sizeof(prefix));
  wire::FrameReader reader(pair.reader_fd);
  EXPECT_EQ(reader.Read().status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace dpstore
