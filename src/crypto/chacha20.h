#ifndef DPSTORE_CRYPTO_CHACHA20_H_
#define DPSTORE_CRYPTO_CHACHA20_H_

/// \file
/// ChaCha20 (RFC 8439, 20 rounds) built around one lane-parallel
/// primitive: ChaCha20Blocks computes N independent 64-byte keystream
/// blocks from N independent (key, nonce, counter) lanes. Every
/// multi-block consumer — the Cipher batch calls (a whole Path ORAM path
/// per call), ChaCha20Xor, and DpfEvalFull's level expansion — feeds its
/// blocks through it, so the lanes can run side by side.
///
/// The AVX2 body (the standard multi-block vectorization: Goll and
/// Gueron, "Vectorization of ChaCha Stream Cipher", ITNG 2014) runs 8
/// lanes in the transposed layout: each ymm register holds one of the 16
/// state words for all 8 blocks, the rotations by 16 and 8 are byte
/// shuffles, and two 8x8 word transposes write the blocks back out in lane
/// order. Full groups of 8 lanes take that body; the remaining N mod 8
/// lanes (and every lane under the scalar and SSE2 tiers) run the scalar
/// rounds, so a 1–2 block caller (ChaCha20Block, Prg, DpfGen) costs what
/// the scalar code costs. The tier is kernels::ActiveVariant(), so
/// DPSTORE_KERNEL=scalar forces the portable path. Every tier is
/// bit-identical to the RFC (tests/crypto_test.cc).

#include <array>
#include <cstdint>
#include <cstddef>

#include "storage/kernels.h"

namespace dpstore {
namespace crypto {

inline constexpr size_t kChaChaKeySize = 32;
inline constexpr size_t kChaChaNonceSize = 12;
inline constexpr size_t kChaChaBlockSize = 64;

/// Lanes one AVX2 group computes at once.
inline constexpr size_t kChaChaLanes = 8;

using ChaChaKey = std::array<uint8_t, kChaChaKeySize>;
using ChaChaNonce = std::array<uint8_t, kChaChaNonceSize>;

/// One keystream block's inputs. `key` points at kChaChaKeySize bytes and
/// `nonce` at kChaChaNonceSize bytes (a nonce may sit unaligned inside a
/// ciphertext slot); both must outlive the call.
struct ChaChaLane {
  const uint8_t* key = nullptr;
  const uint8_t* nonce = nullptr;
  uint32_t counter = 0;
};

/// Computes block i of ChaCha20(lanes[i].key, lanes[i].nonce,
/// lanes[i].counter) into out[64 i, 64 i + 64) for i in [0, n), on the
/// active kernel tier.
void ChaCha20Blocks(const ChaChaLane* lanes, size_t n, uint8_t* out);

/// As ChaCha20Blocks but forcing tier `v` (benches and bit-identity
/// tests); guard with kernels::VariantSupported.
void ChaCha20BlocksVariant(kernels::Variant v, const ChaChaLane* lanes,
                           size_t n, uint8_t* out);

/// Computes one 64-byte ChaCha20 keystream block (RFC 8439, 20 rounds) for
/// (key, nonce, counter) into `out`: the N = 1 case of ChaCha20Blocks.
void ChaCha20Block(const ChaChaKey& key, const ChaChaNonce& nonce,
                   uint32_t counter, uint8_t out[kChaChaBlockSize]);

/// XORs `len` bytes of keystream (starting at block `counter`) into
/// `data` in place. Symmetric: applying twice with the same parameters
/// restores the input. This is the whole cipher - no padding, no state.
/// The block counter wraps modulo 2^32, as RFC 8439's 32-bit word does.
void ChaCha20Xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                 uint32_t counter, uint8_t* data, size_t len);

}  // namespace crypto
}  // namespace dpstore

#endif  // DPSTORE_CRYPTO_CHACHA20_H_
