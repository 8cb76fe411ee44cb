#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DPSTORE_CHACHA_X86 1
#else
#define DPSTORE_CHACHA_X86 0
#endif

namespace dpstore {
namespace crypto {

namespace {

constexpr uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32,
                                0x6b206574};

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

inline uint32_t Load32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void Store32Le(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = Rotl32(d, 16);
  c += d; b ^= c; b = Rotl32(b, 12);
  a += b; d ^= a; d = Rotl32(d, 8);
  c += d; b ^= c; b = Rotl32(b, 7);
}

// --- scalar ------------------------------------------------------------------

/// One lane: the RFC 8439 Section 2.3 state (constants, key, counter,
/// nonce), 20 rounds, the feed-forward add, little-endian output.
void BlockScalar(const ChaChaLane& lane, uint8_t out[kChaChaBlockSize]) {
  uint32_t state[16];
  for (int i = 0; i < 4; ++i) state[i] = kSigma[i];
  for (int i = 0; i < 8; ++i) state[4 + i] = Load32Le(lane.key + 4 * i);
  state[12] = lane.counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = Load32Le(lane.nonce + 4 * i);
  uint32_t w[16];
  std::memcpy(w, state, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    QuarterRound(w[0], w[4], w[8], w[12]);
    QuarterRound(w[1], w[5], w[9], w[13]);
    QuarterRound(w[2], w[6], w[10], w[14]);
    QuarterRound(w[3], w[7], w[11], w[15]);
    // Diagonal rounds.
    QuarterRound(w[0], w[5], w[10], w[15]);
    QuarterRound(w[1], w[6], w[11], w[12]);
    QuarterRound(w[2], w[7], w[8], w[13]);
    QuarterRound(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) Store32Le(out + 4 * i, w[i] + state[i]);
}

// --- avx2: 8 lanes, one state word per register ------------------------------

#if DPSTORE_CHACHA_X86

#define DPSTORE_AVX2 __attribute__((target("avx2")))
#define DPSTORE_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) inline

/// Rotate every 32-bit word left by 16 / 8: whole-byte rotations are one
/// byte shuffle instead of two shifts and an OR.
DPSTORE_AVX2_INLINE __m256i Rotl16(__m256i x) {
  const __m256i k = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14,
                                     15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10,
                                     11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, k);
}

DPSTORE_AVX2_INLINE __m256i Rotl8(__m256i x) {
  const __m256i k = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15,
                                     12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8,
                                     9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, k);
}

template <int kBits>
DPSTORE_AVX2_INLINE __m256i Rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, kBits),
                         _mm256_srli_epi32(x, 32 - kBits));
}

DPSTORE_AVX2_INLINE void QuarterRoundAvx2(__m256i& a, __m256i& b, __m256i& c,
                                          __m256i& d) {
  a = _mm256_add_epi32(a, b); d = Rotl16(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = Rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = Rotl8(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = Rotl<7>(_mm256_xor_si256(b, c));
}

/// In-place 8x8 transpose of 32-bit words: on return r[j] holds word j of
/// every input row, row i in element i.
DPSTORE_AVX2_INLINE void Transpose8x8(__m256i r[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

inline int32_t NonceWord(const ChaChaLane& lane, int i) {
  uint32_t w;
  std::memcpy(&w, lane.nonce + 4 * i, 4);  // x86 is little-endian
  return static_cast<int32_t>(w);
}

/// Eight lanes at once into out[0, 512).
DPSTORE_AVX2 void Blocks8Avx2(const ChaChaLane* lanes, uint8_t* out) {
  __m256i s[16];
  for (int i = 0; i < 4; ++i) {
    s[i] = _mm256_set1_epi32(static_cast<int32_t>(kSigma[i]));
  }
  // Row i of the key block is lane i's 8 key words; the transpose turns
  // it into one register per key word.
  for (int i = 0; i < 8; ++i) {
    s[4 + i] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes[i].key));
  }
  Transpose8x8(s + 4);
  s[12] = _mm256_setr_epi32(
      static_cast<int32_t>(lanes[0].counter),
      static_cast<int32_t>(lanes[1].counter),
      static_cast<int32_t>(lanes[2].counter),
      static_cast<int32_t>(lanes[3].counter),
      static_cast<int32_t>(lanes[4].counter),
      static_cast<int32_t>(lanes[5].counter),
      static_cast<int32_t>(lanes[6].counter),
      static_cast<int32_t>(lanes[7].counter));
  for (int i = 0; i < 3; ++i) {
    s[13 + i] = _mm256_setr_epi32(
        NonceWord(lanes[0], i), NonceWord(lanes[1], i), NonceWord(lanes[2], i),
        NonceWord(lanes[3], i), NonceWord(lanes[4], i), NonceWord(lanes[5], i),
        NonceWord(lanes[6], i), NonceWord(lanes[7], i));
  }
  __m256i x[16];
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    QuarterRoundAvx2(x[0], x[4], x[8], x[12]);
    QuarterRoundAvx2(x[1], x[5], x[9], x[13]);
    QuarterRoundAvx2(x[2], x[6], x[10], x[14]);
    QuarterRoundAvx2(x[3], x[7], x[11], x[15]);
    QuarterRoundAvx2(x[0], x[5], x[10], x[15]);
    QuarterRoundAvx2(x[1], x[6], x[11], x[12]);
    QuarterRoundAvx2(x[2], x[7], x[8], x[13]);
    QuarterRoundAvx2(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], s[i]);
  // Back to lane order: words 0..7 of lane i are row i of the first
  // transpose, words 8..15 row i of the second.
  Transpose8x8(x);
  Transpose8x8(x + 8);
  for (int i = 0; i < 8; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 64 * i), x[i]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 64 * i + 32),
                        x[8 + i]);
  }
}

#undef DPSTORE_AVX2
#undef DPSTORE_AVX2_INLINE

#endif  // DPSTORE_CHACHA_X86

}  // namespace

void ChaCha20BlocksVariant(kernels::Variant v, const ChaChaLane* lanes,
                           size_t n, uint8_t* out) {
  size_t i = 0;
#if DPSTORE_CHACHA_X86
  if (v == kernels::Variant::kAvx2) {
    for (; i + kChaChaLanes <= n; i += kChaChaLanes) {
      Blocks8Avx2(lanes + i, out + i * kChaChaBlockSize);
    }
  }
#else
  (void)v;
#endif
  for (; i < n; ++i) BlockScalar(lanes[i], out + i * kChaChaBlockSize);
}

void ChaCha20Blocks(const ChaChaLane* lanes, size_t n, uint8_t* out) {
  ChaCha20BlocksVariant(kernels::ActiveVariant(), lanes, n, out);
}

void ChaCha20Block(const ChaChaKey& key, const ChaChaNonce& nonce,
                   uint32_t counter, uint8_t out[kChaChaBlockSize]) {
  const ChaChaLane lane{key.data(), nonce.data(), counter};
  ChaCha20Blocks(&lane, 1, out);
}

void ChaCha20Xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                 uint32_t counter, uint8_t* data, size_t len) {
  // The keystream is produced a few lane groups at a time (same key and
  // nonce, successive counters) and XORed in with the dispatched kernel.
  constexpr size_t kChunkBlocks = 4 * kChaChaLanes;
  ChaChaLane lanes[kChunkBlocks];
  uint8_t keystream[kChunkBlocks * kChaChaBlockSize];
  size_t offset = 0;
  while (offset < len) {
    const size_t bytes = std::min(len - offset, sizeof(keystream));
    const size_t blocks = (bytes + kChaChaBlockSize - 1) / kChaChaBlockSize;
    for (size_t b = 0; b < blocks; ++b) {
      lanes[b] = {key.data(), nonce.data(), counter++};
    }
    ChaCha20Blocks(lanes, blocks, keystream);
    kernels::XorAccumulate(data + offset, keystream, bytes);
    offset += bytes;
  }
}

}  // namespace crypto
}  // namespace dpstore
