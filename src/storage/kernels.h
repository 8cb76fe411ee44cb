#ifndef DPSTORE_STORAGE_KERNELS_H_
#define DPSTORE_STORAGE_KERNELS_H_

/// \file
/// Runtime-dispatched data-plane kernels for the storage hot paths.
///
/// Three primitives cover every bulk byte loop in the transport and the
/// PIR scan servers:
///
///   - XorAccumulate:  dst ^= src over a flat byte range (XOR-PIR answer
///     folding, DPF answer combination).
///   - SelectXorScan:  the two-server PIR server inner loop — one pass
///     over `count` contiguous blocks XOR-accumulating block i into `dst`
///     iff bit (bit_offset + i) of a packed selection vector is set. The
///     scan is branchless (a 0/−0 word mask gates every XOR), so its
///     memory traffic and timing are independent of the selection bits:
///     every block is read exactly once whether selected or not.
///   - CopyRuns:       a batch of disjoint memcpy runs (the engine's
///     run-coalesced gather/scatter).
///
/// One more primitive lives with the cipher it serves but dispatches
/// through ActiveVariant() below: crypto/chacha20.h ChaCha20Blocks, N
/// independent ChaCha20 keystream blocks from N (key, nonce, counter)
/// lanes, 8 lanes per AVX2 pass (scalar rounds for the SSE2 and scalar
/// tiers and for the N mod 8 remainder). The cipher batches and the DPF
/// level expansion run on it.
///
/// Each primitive has portable-scalar, SSE2 and AVX2 implementations
/// compiled with per-function target attributes in one translation unit;
/// the best variant the CPU supports is chosen once at startup and can be
/// forced down with the environment variable DPSTORE_KERNEL
/// (`scalar` | `sse2` | `avx2`) — CI runs the whole suite with
/// DPSTORE_KERNEL=scalar so the portable path stays tested on wide
/// runners. All variants are bit-identical by contract
/// (tests/kernels_test.cc holds them to it on random and edge-aligned
/// buffers).
///
/// For 64-byte blocks (the PIR database's block size) the AVX2 scan keeps
/// the running answer in two ymm accumulators and folds it into `dst`
/// once, at the end; for other sizes it XORs each block into `dst` in
/// memory. Every variant stays branchless in the selection bits: each
/// block is loaded in full, and the bit only masks what is XORed in.
///
/// ParallelFor is the chunking harness for many-core hosts: it splits a
/// scan into contiguous chunks and runs them on a small thread set
/// (inline when the range is small or the host has one core), so a
/// SelectXorScan over a multi-GiB arena can use the machine's full
/// memory bandwidth.

#include <cstddef>
#include <cstdint>
#include <functional>

namespace dpstore {
namespace kernels {

/// Implementation tiers, ordered weakest to strongest. Dispatch picks the
/// strongest the CPU supports unless DPSTORE_KERNEL forces a weaker one.
enum class Variant : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Human-readable variant name ("scalar", "sse2", "avx2") for BENCH cells
/// and logs.
const char* VariantName(Variant v);

/// The variant every dispatched call below uses. Chosen once (first call),
/// from CPU feature detection filtered through DPSTORE_KERNEL.
Variant ActiveVariant();

/// One copy run: `len` bytes from `src` to `dst`. A run's dst must not
/// overlap its own src; runs in a batch execute in order (so later runs
/// may overwrite earlier ones, as duplicate upload indices require).
struct CopyRun {
  uint8_t* dst = nullptr;
  const uint8_t* src = nullptr;
  size_t len = 0;
};

// --- Dispatched entry points (use ActiveVariant) -----------------------------

/// dst[i] ^= src[i] for i in [0, len).
void XorAccumulate(uint8_t* dst, const uint8_t* src, size_t len);

/// For each block i in [0, count): if bit (bit_offset + i) of `bits` is
/// set, dst[j] ^= src[i * block_size + j] for j in [0, block_size).
/// `bits` is a packed little-endian word vector (bit x lives at
/// bits[x >> 6] >> (x & 63)) and must cover bit_offset + count bits.
/// Branchless: every block is touched regardless of its bit.
void SelectXorScan(uint8_t* dst, const uint8_t* src, size_t count,
                   size_t block_size, const uint64_t* bits,
                   uint64_t bit_offset);

/// Executes every run in `runs`, in order.
void CopyRuns(const CopyRun* runs, size_t count);

// --- Per-variant entry points (benches and bit-identity tests) ---------------

/// As above but forcing `v`. Calling an unsupported variant on this CPU is
/// undefined; guard with VariantSupported.
void XorAccumulateVariant(Variant v, uint8_t* dst, const uint8_t* src,
                          size_t len);
void SelectXorScanVariant(Variant v, uint8_t* dst, const uint8_t* src,
                          size_t count, size_t block_size,
                          const uint64_t* bits, uint64_t bit_offset);
void CopyRunsVariant(Variant v, const CopyRun* runs, size_t count);

/// True when this CPU can execute `v`.
bool VariantSupported(Variant v);

// --- Chunked parallel-for ----------------------------------------------------

/// Runs fn(chunk_begin, chunk_end) over a partition of [begin, end) into
/// contiguous chunks of at least `min_chunk` elements. Uses up to
/// hardware_concurrency threads when the range is large enough to amortize
/// thread startup; otherwise runs inline on the caller's thread. `fn` must
/// be safe to call concurrently on disjoint chunks.
void ParallelFor(size_t begin, size_t end, size_t min_chunk,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace kernels
}  // namespace dpstore

#endif  // DPSTORE_STORAGE_KERNELS_H_
