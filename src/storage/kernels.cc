#include "storage/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DPSTORE_KERNELS_X86 1
#else
#define DPSTORE_KERNELS_X86 0
#endif

namespace dpstore {
namespace kernels {
namespace {

// The scalar variants are the semantic reference AND the measured
// baseline for the SIMD speedup criterion, so they must stay scalar:
// without the pin, -O3 auto-vectorizes these loops into the very SIMD
// code they are supposed to be compared against.
#if defined(__GNUC__) && !defined(__clang__)
#define DPSTORE_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define DPSTORE_NO_AUTOVEC
#endif

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline void StoreWord(uint8_t* p, uint64_t w) { std::memcpy(p, &w, sizeof(w)); }

inline uint64_t SelectBit(const uint64_t* bits, uint64_t index) {
  return (bits[index >> 6] >> (index & 63)) & 1;
}

// Selection bits [index, index + 64) as one word, bit 0 first. Reads the
// next packed word only when `index` is not word-aligned, so it stays
// inside any vector that covers index + 64 bits.
inline uint64_t SelectWord(const uint64_t* bits, uint64_t index) {
  const uint64_t shift = index & 63;
  const uint64_t low = bits[index >> 6] >> shift;
  return shift == 0 ? low : low | (bits[(index >> 6) + 1] << (64 - shift));
}

// --- scalar ------------------------------------------------------------------

DPSTORE_NO_AUTOVEC
void XorAccumulateScalar(uint8_t* dst, const uint8_t* src, size_t len) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    StoreWord(dst + i, LoadWord(dst + i) ^ LoadWord(src + i));
  }
  for (; i < len; ++i) dst[i] = static_cast<uint8_t>(dst[i] ^ src[i]);
}

// dst ^= (src & mask) over len bytes, mask per-word 0 or ~0. Branchless so
// the scan's timing and traffic are selection-independent.
DPSTORE_NO_AUTOVEC
void MaskedXorScalar(uint8_t* dst, const uint8_t* src, size_t len,
                     uint64_t mask) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    StoreWord(dst + i, LoadWord(dst + i) ^ (LoadWord(src + i) & mask));
  }
  const uint8_t byte_mask = static_cast<uint8_t>(mask);
  for (; i < len; ++i) {
    dst[i] = static_cast<uint8_t>(dst[i] ^ (src[i] & byte_mask));
  }
}

void SelectXorScanScalar(uint8_t* dst, const uint8_t* src, size_t count,
                         size_t block_size, const uint64_t* bits,
                         uint64_t bit_offset) {
  for (size_t i = 0; i < count; ++i) {
    const uint64_t mask = 0 - SelectBit(bits, bit_offset + i);
    MaskedXorScalar(dst, src + i * block_size, block_size, mask);
  }
}

DPSTORE_NO_AUTOVEC
void CopyRunScalar(uint8_t* dst, const uint8_t* src, size_t len) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) StoreWord(dst + i, LoadWord(src + i));
  for (; i < len; ++i) dst[i] = src[i];
}

void CopyRunsScalar(const CopyRun* runs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    CopyRunScalar(runs[i].dst, runs[i].src, runs[i].len);
  }
}

// --- sse2 / avx2 -------------------------------------------------------------

#if DPSTORE_KERNELS_X86

__attribute__((target("sse2"))) void XorAccumulateSse2(uint8_t* dst,
                                                       const uint8_t* src,
                                                       size_t len) {
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(a, b));
  }
  if (i < len) XorAccumulateScalar(dst + i, src + i, len - i);
}

__attribute__((target("sse2"))) void MaskedXorSse2(uint8_t* dst,
                                                   const uint8_t* src,
                                                   size_t len, uint64_t mask) {
  const __m128i vmask = _mm_set1_epi64x(static_cast<int64_t>(mask));
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(a, _mm_and_si128(b, vmask)));
  }
  if (i < len) MaskedXorScalar(dst + i, src + i, len - i, mask);
}

__attribute__((target("sse2"))) void SelectXorScanSse2(
    uint8_t* dst, const uint8_t* src, size_t count, size_t block_size,
    const uint64_t* bits, uint64_t bit_offset) {
  for (size_t i = 0; i < count; ++i) {
    const uint64_t mask = 0 - SelectBit(bits, bit_offset + i);
    MaskedXorSse2(dst, src + i * block_size, block_size, mask);
  }
}

__attribute__((target("sse2"))) void CopyRunsSse2(const CopyRun* runs,
                                                  size_t count) {
  for (size_t r = 0; r < count; ++r) {
    uint8_t* dst = runs[r].dst;
    const uint8_t* src = runs[r].src;
    const size_t len = runs[r].len;
    size_t i = 0;
    for (; i + 16 <= len; i += 16) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + i),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    }
    if (i < len) CopyRunScalar(dst + i, src + i, len - i);
  }
}

__attribute__((target("avx2"))) void XorAccumulateAvx2(uint8_t* dst,
                                                       const uint8_t* src,
                                                       size_t len) {
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  if (i < len) XorAccumulateSse2(dst + i, src + i, len - i);
}

__attribute__((target("avx2"))) void MaskedXorAvx2(uint8_t* dst,
                                                   const uint8_t* src,
                                                   size_t len, uint64_t mask) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<int64_t>(mask));
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, _mm256_and_si256(b, vmask)));
  }
  if (i < len) MaskedXorSse2(dst + i, src + i, len - i, mask);
}

// XORs one 64-byte block into the two register accumulators, gated by
// `bit` (0 or 1): the block is loaded whatever the bit says.
__attribute__((target("avx2"), always_inline)) inline void XorBlock64Avx2(
    __m256i* acc0, __m256i* acc1, const uint8_t* block, uint64_t bit) {
  const __m256i mask = _mm256_set1_epi64x(static_cast<int64_t>(0 - bit));
  const __m256i* b = reinterpret_cast<const __m256i*>(block);
  *acc0 = _mm256_xor_si256(*acc0, _mm256_and_si256(_mm256_loadu_si256(b), mask));
  *acc1 =
      _mm256_xor_si256(*acc1, _mm256_and_si256(_mm256_loadu_si256(b + 1), mask));
}

// Register-resident scan for 64-byte blocks (the PIR database's block
// size): the running answer lives in two ymm accumulators and touches
// `dst` once, at the end, so no block waits on a store-to-load forward
// through memory. The selection bits are taken a word at a time, 64 blocks
// per word, which keeps the per-block instruction count (and so the loads
// the core can keep in flight) close to a plain streaming read.
__attribute__((target("avx2"))) void SelectXorScan64Avx2(
    uint8_t* dst, const uint8_t* src, size_t count, const uint64_t* bits,
    uint64_t bit_offset) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 64 <= count; i += 64) {
    const uint64_t word = SelectWord(bits, bit_offset + i);
    const uint8_t* blocks = src + i * 64;
#pragma GCC unroll 64
    for (size_t j = 0; j < 64; ++j) {
      XorBlock64Avx2(&acc0, &acc1, blocks + j * 64, (word >> j) & 1);
    }
  }
  for (; i < count; ++i) {
    XorBlock64Avx2(&acc0, &acc1, src + i * 64, SelectBit(bits, bit_offset + i));
  }
  __m256i* out = reinterpret_cast<__m256i*>(dst);
  _mm256_storeu_si256(out, _mm256_xor_si256(_mm256_loadu_si256(out), acc0));
  _mm256_storeu_si256(out + 1,
                      _mm256_xor_si256(_mm256_loadu_si256(out + 1), acc1));
}

__attribute__((target("avx2"))) void SelectXorScanAvx2(
    uint8_t* dst, const uint8_t* src, size_t count, size_t block_size,
    const uint64_t* bits, uint64_t bit_offset) {
  if (block_size == 64) {
    return SelectXorScan64Avx2(dst, src, count, bits, bit_offset);
  }
  for (size_t i = 0; i < count; ++i) {
    const uint64_t mask = 0 - SelectBit(bits, bit_offset + i);
    MaskedXorAvx2(dst, src + i * block_size, block_size, mask);
  }
}

__attribute__((target("avx2"))) void CopyRunsAvx2(const CopyRun* runs,
                                                  size_t count) {
  for (size_t r = 0; r < count; ++r) {
    uint8_t* dst = runs[r].dst;
    const uint8_t* src = runs[r].src;
    const size_t len = runs[r].len;
    size_t i = 0;
    for (; i + 32 <= len; i += 32) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + i),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    }
    if (i < len) CopyRunScalar(dst + i, src + i, len - i);
  }
}

#endif  // DPSTORE_KERNELS_X86

Variant DetectBest() {
#if DPSTORE_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return Variant::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Variant::kSse2;
#endif
  return Variant::kScalar;
}

Variant ChooseVariant() {
  Variant best = DetectBest();
  const char* env = std::getenv("DPSTORE_KERNEL");
  if (env != nullptr && *env != '\0') {
    const std::string want(env);
    Variant forced = best;
    if (want == "scalar") {
      forced = Variant::kScalar;
    } else if (want == "sse2") {
      forced = Variant::kSse2;
    } else if (want == "avx2") {
      forced = Variant::kAvx2;
    }
    // Only ever force DOWN: an unsupported (or unknown) request keeps the
    // detected best instead of crashing on an illegal instruction.
    if (static_cast<uint8_t>(forced) < static_cast<uint8_t>(best)) {
      best = forced;
    }
  }
  return best;
}

}  // namespace

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kScalar:
      return "scalar";
    case Variant::kSse2:
      return "sse2";
    case Variant::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Variant ActiveVariant() {
  static const Variant v = ChooseVariant();
  return v;
}

bool VariantSupported(Variant v) {
  return static_cast<uint8_t>(v) <= static_cast<uint8_t>(DetectBest());
}

void XorAccumulateVariant(Variant v, uint8_t* dst, const uint8_t* src,
                          size_t len) {
#if DPSTORE_KERNELS_X86
  if (v == Variant::kAvx2) return XorAccumulateAvx2(dst, src, len);
  if (v == Variant::kSse2) return XorAccumulateSse2(dst, src, len);
#endif
  XorAccumulateScalar(dst, src, len);
}

void SelectXorScanVariant(Variant v, uint8_t* dst, const uint8_t* src,
                          size_t count, size_t block_size,
                          const uint64_t* bits, uint64_t bit_offset) {
#if DPSTORE_KERNELS_X86
  if (v == Variant::kAvx2) {
    return SelectXorScanAvx2(dst, src, count, block_size, bits, bit_offset);
  }
  if (v == Variant::kSse2) {
    return SelectXorScanSse2(dst, src, count, block_size, bits, bit_offset);
  }
#endif
  SelectXorScanScalar(dst, src, count, block_size, bits, bit_offset);
}

void CopyRunsVariant(Variant v, const CopyRun* runs, size_t count) {
#if DPSTORE_KERNELS_X86
  if (v == Variant::kAvx2) return CopyRunsAvx2(runs, count);
  if (v == Variant::kSse2) return CopyRunsSse2(runs, count);
#endif
  CopyRunsScalar(runs, count);
}

void XorAccumulate(uint8_t* dst, const uint8_t* src, size_t len) {
  XorAccumulateVariant(ActiveVariant(), dst, src, len);
}

void SelectXorScan(uint8_t* dst, const uint8_t* src, size_t count,
                   size_t block_size, const uint64_t* bits,
                   uint64_t bit_offset) {
  SelectXorScanVariant(ActiveVariant(), dst, src, count, block_size, bits,
                       bit_offset);
}

void CopyRuns(const CopyRun* runs, size_t count) {
  CopyRunsVariant(ActiveVariant(), runs, count);
}

void ParallelFor(size_t begin, size_t end, size_t min_chunk,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  const size_t total = end - begin;
  const size_t floor = std::max<size_t>(min_chunk, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t max_threads = hw == 0 ? 1 : hw;
  const size_t chunks = std::min(max_threads, std::max<size_t>(total / floor, 1));
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }
  const size_t per = (total + chunks - 1) / chunks;
  std::vector<std::thread> threads;
  threads.reserve(chunks - 1);
  size_t b = begin;
  for (size_t c = 0; c + 1 < chunks && b < end; ++c) {
    const size_t e = std::min(b + per, end);
    threads.emplace_back([&fn, b, e] { fn(b, e); });
    b = e;
  }
  if (b < end) fn(b, end);
  for (auto& t : threads) t.join();
}

}  // namespace kernels
}  // namespace dpstore
