#ifndef DPSTORE_CRYPTO_DPF_H_
#define DPSTORE_CRYPTO_DPF_H_

/// \file
/// Two-party distributed point function (DPF) over the in-tree ChaCha20.
///
/// A DPF for the point function f_alpha (f_alpha(alpha) = 1, else 0) on
/// domain {0, ..., 2^depth - 1} is a pair of keys such that each key alone
/// is computationally independent of alpha, yet the XOR of the two
/// parties' evaluations equals f_alpha at every point. This is the
/// Boyle-Gilboa-Ishai GGM-tree construction with early termination
/// ("Function Secret Sharing: Improvements and Extensions", CCS'16,
/// Sec. 3.2): the tree stops kDpfLeafLevels = 9 levels above the domain,
/// and each leaf seed is converted into a 512-bit block of output bits.
/// A key is a root seed, one 17-byte correction word per tree level and
/// one 64-byte output correction word — O(lambda log n) bytes, 276 B
/// serialized at n = 2^20 (DpfKeyBytes) versus the O(n)-bit selection
/// vector xor_pir ships per query.
///
/// The length-doubling PRG is one ChaCha20 block per node (the seed is the
/// cipher key, zero-padded to 32 bytes; zero nonce, counter 0): bytes
/// 0..15 and 16..31 are the left/right child seeds, bytes 32 and 33 carry
/// the child control bits. The leaf conversion is the SAME key and nonce
/// at counter 1, so its 64 output bytes are domain-separated from the
/// expansion. No OpenSSL, no AES-NI dependency — the same primitive the
/// rest of src/crypto builds on.
///
/// The parties' leaf seeds and control bits agree exactly off the special
/// path and differ on it, so a leaf's output block Convert(s) XOR (t ?
/// output correction word : 0) XORs across the parties to zero everywhere
/// except the leaf holding alpha, where it XORs to the unit vector
/// e_(alpha mod 512). Output bit j of a leaf is bit (j & 7) of its byte
/// j >> 3. DpfEvalFull therefore costs 2^(depth-9) - 1 tree expansions
/// plus 2^(depth-9) conversions (~256x fewer PRG blocks than expanding a
/// tree down to every point; 4,095 blocks at depth 20), expands
/// level-by-level in bounded working memory, and packs the leaf blocks
/// with explicit little-endian loads into the word vector that
/// storage/kernels.h SelectXorScan gates its XOR scan with. Each level's
/// expansions, and the leaf conversions, go to the lane-parallel
/// ChaCha20Blocks (crypto/chacha20.h) 64 nodes per call, one lane per node
/// keyed by its own seed, so the AVX2 tier computes them 8 at a time;
/// levels narrower than 8 nodes take the scalar rounds. DpfGen and
/// DpfEvalPoint walk one path and stay one block per call.
///
/// Parsing is defensive by contract: serialized keys may arrive over the
/// wire from an untrusted peer, so truncated, oversized, or corrupt keys
/// — including keys in the retired "DPF1" format — decode to an
/// InvalidArgument Status, never a crash or an unbounded allocation
/// (depth is capped at kMaxDpfDepth, bounding EvalFull's output).

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/statusor.h"

namespace dpstore {
namespace crypto {

/// Seed width lambda in bytes (128-bit security).
inline constexpr size_t kDpfSeedSize = 16;

/// Upper bound on tree depth accepted anywhere (Gen and Parse), so a
/// hostile key cannot make EvalFull allocate more than 2^26 bits = 8 MiB.
inline constexpr uint8_t kMaxDpfDepth = 26;

/// Domain bits resolved by the leaf conversion instead of the tree: each
/// leaf covers 2^kDpfLeafLevels points.
inline constexpr uint8_t kDpfLeafLevels = 9;

/// Output bytes per leaf: one ChaCha20 block, 2^kDpfLeafLevels bits.
inline constexpr size_t kDpfLeafBytes = 64;

/// GGM tree levels a key of `depth` walks: max(0, depth - kDpfLeafLevels).
inline constexpr uint8_t DpfTreeLevels(uint8_t depth) {
  return depth > kDpfLeafLevels ? depth - kDpfLeafLevels : 0;
}

/// Serialized key size for a given depth (see DpfKey::Serialize layout).
inline constexpr size_t DpfKeyBytes(uint8_t depth) {
  return 25 + size_t{17} * DpfTreeLevels(depth) + kDpfLeafBytes;
}

/// One party's DPF key: the GGM root, one correction word per tree level
/// and the shared output correction word.
struct DpfKey {
  struct CorrectionWord {
    std::array<uint8_t, kDpfSeedSize> seed{};
    uint8_t t_left = 0;
    uint8_t t_right = 0;
  };

  /// Which party this key belongs to (0 or 1); affects nothing in Eval
  /// (the construction is symmetric) but is carried for bookkeeping.
  uint8_t party = 0;
  /// Tree depth = log2(domain size), in [1, kMaxDpfDepth].
  uint8_t depth = 0;
  std::array<uint8_t, kDpfSeedSize> root_seed{};
  /// Root control bit (party 0 gets 0, party 1 gets 1).
  uint8_t root_t = 0;
  std::vector<CorrectionWord> cw;  // cw.size() == DpfTreeLevels(depth)
  /// Convert(s0) XOR Convert(s1) XOR e_(alpha mod 512), where s0/s1 are
  /// the parties' seeds at alpha's leaf; applied to every leaf whose
  /// control bit is 1. Shared by both keys.
  std::array<uint8_t, kDpfLeafBytes> output_cw{};

  /// Byte layout ("DPF2"): magic, party u8, depth u8, 2 reserved zero
  /// bytes, root seed (16), root control bit u8, then per tree level the
  /// correction seed (16) and a packed bit byte (bit 0 = t_left, bit 1 =
  /// t_right), then the 64-byte output correction word. All fields are
  /// byte-granular, so the encoding is endian-free.
  std::vector<uint8_t> Serialize() const;

  /// Inverse of Serialize. Rejects (InvalidArgument) any input that is
  /// truncated, has trailing bytes, a bad magic (including the retired
  /// "DPF1")/party/reserved field, a depth outside [1, kMaxDpfDepth], or
  /// non-bit values where bits belong.
  static StatusOr<DpfKey> Parse(const uint8_t* data, size_t len);
};

struct DpfKeyPair {
  DpfKey key0;
  DpfKey key1;
};

/// Generates a key pair for the point function at `alpha` on the domain
/// {0, ..., 2^depth - 1}. Seeds are drawn from the system RNG.
/// InvalidArgument when depth is outside [1, kMaxDpfDepth] or alpha is
/// outside the domain.
StatusOr<DpfKeyPair> DpfGen(uint64_t alpha, uint8_t depth);

/// Evaluates `key` over the WHOLE domain, returning the packed leaf bits:
/// bit x of the result (word x >> 6, bit x & 63, little-endian — the
/// kernels.h convention) is this party's share of f_alpha(x). The result
/// has (2^depth + 63) / 64 words; bits at positions >= 2^depth are zero.
/// Streaming: expands the GGM tree level-by-level under a bounded working
/// set (at most ~4096 node seeds live at once regardless of depth).
std::vector<uint64_t> DpfEvalFull(const DpfKey& key);

/// Evaluates `key` at the single point `x` (log-depth walk; test oracle
/// and spot checks). Requires x < 2^depth.
uint8_t DpfEvalPoint(const DpfKey& key, uint64_t x);

}  // namespace crypto
}  // namespace dpstore

#endif  // DPSTORE_CRYPTO_DPF_H_
