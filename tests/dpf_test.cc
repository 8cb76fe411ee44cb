// Tests for the early-termination GGM-tree DPF (crypto/dpf.h): the two
// parties' full-domain evaluations must XOR to exactly the point function
// at every depth (on both sides of the kDpfLeafLevels boundary), the
// serialized DPF2 key format must round-trip and evaluate to pinned known
// answers, and — keys being untrusted wire input — truncated or corrupt
// encodings must be rejected, never crash.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/dpf.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace dpstore {
namespace crypto {
namespace {

uint64_t PopCount(const std::vector<uint64_t>& words) {
  uint64_t ones = 0;
  for (uint64_t w : words) ones += __builtin_popcountll(w);
  return ones;
}

uint8_t BitAt(const std::vector<uint64_t>& words, uint64_t x) {
  return static_cast<uint8_t>((words[x >> 6] >> (x & 63)) & 1);
}

TEST(DpfTest, EvalPairXorsToPointFunctionAtEveryDepth) {
  Rng rng(101);
  // Every tree depth the scheme layer can request, up to n = 2^22: random
  // alphas, whole-domain check that eval0 XOR eval1 is the indicator of
  // alpha. The packed-word XOR makes the full-domain comparison cheap
  // even at the top depth.
  for (uint8_t depth = 1; depth <= 22; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    const uint64_t alpha = rng.Uniform(n);
    auto keys = DpfGen(alpha, depth);
    ASSERT_TRUE(keys.ok()) << keys.status();
    EXPECT_EQ(keys->key0.party, 0);
    EXPECT_EQ(keys->key1.party, 1);
    const std::vector<uint64_t> eval0 = DpfEvalFull(keys->key0);
    const std::vector<uint64_t> eval1 = DpfEvalFull(keys->key1);
    ASSERT_EQ(eval0.size(), (n + 63) / 64);
    ASSERT_EQ(eval1.size(), eval0.size());
    std::vector<uint64_t> combined(eval0.size());
    for (size_t w = 0; w < combined.size(); ++w) {
      combined[w] = eval0[w] ^ eval1[w];
    }
    // Exactly one bit set, at alpha — popcount + the bit itself together
    // pin the whole domain.
    EXPECT_EQ(PopCount(combined), 1u) << "depth=" << unsigned{depth};
    EXPECT_EQ(BitAt(combined, alpha), 1) << "depth=" << unsigned{depth};
  }
}

TEST(DpfTest, ExhaustiveAlphasAcrossTheLeafBoundary) {
  // Every alpha at depths 1..12, straddling kDpfLeafLevels = 9: below it
  // the whole domain is one leaf block, above it alpha's high bits walk
  // the tree and its low 9 bits pick the bit inside the leaf. Popcount 1
  // plus the bit at alpha pins the whole domain of the combined vector.
  for (uint8_t depth = 1; depth <= 12; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    for (uint64_t alpha = 0; alpha < n; ++alpha) {
      auto keys = DpfGen(alpha, depth);
      ASSERT_TRUE(keys.ok());
      const std::vector<uint64_t> eval0 = DpfEvalFull(keys->key0);
      const std::vector<uint64_t> eval1 = DpfEvalFull(keys->key1);
      ASSERT_EQ(eval0.size(), (n + 63) / 64);
      ASSERT_EQ(eval1.size(), eval0.size());
      uint64_t ones = 0;
      for (size_t w = 0; w < eval0.size(); ++w) {
        ones += __builtin_popcountll(eval0[w] ^ eval1[w]);
      }
      ASSERT_EQ(ones, 1u) << "depth=" << unsigned{depth}
                          << " alpha=" << alpha;
      ASSERT_EQ(BitAt(eval0, alpha) ^ BitAt(eval1, alpha), 1)
          << "depth=" << unsigned{depth} << " alpha=" << alpha;
    }
  }
}

TEST(DpfTest, BitsBeyondTheDomainAreZero) {
  // Below 64 points the leaf block is wider than the one output word;
  // each party's share must still leave the bits >= 2^depth clear.
  Rng rng(104);
  for (uint8_t depth = 1; depth < 6; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    for (int trial = 0; trial < 16; ++trial) {
      auto keys = DpfGen(rng.Uniform(n), depth);
      ASSERT_TRUE(keys.ok());
      for (const DpfKey* key : {&keys->key0, &keys->key1}) {
        const std::vector<uint64_t> full = DpfEvalFull(*key);
        ASSERT_EQ(full.size(), 1u);
        EXPECT_EQ(full[0] >> n, 0u) << "depth=" << unsigned{depth};
      }
    }
  }
}

TEST(DpfTest, EvalPointAgreesWithEvalFull) {
  Rng rng(102);
  for (uint8_t depth : {uint8_t{1}, uint8_t{5}, uint8_t{8}, uint8_t{9},
                        uint8_t{10}, uint8_t{13}, uint8_t{18}, uint8_t{20}}) {
    const uint64_t n = uint64_t{1} << depth;
    const uint64_t alpha = rng.Uniform(n);
    auto keys = DpfGen(alpha, depth);
    ASSERT_TRUE(keys.ok());
    for (const DpfKey* key : {&keys->key0, &keys->key1}) {
      const std::vector<uint64_t> full = DpfEvalFull(*key);
      // Random points, alpha itself, and both ends of the domain.
      std::vector<uint64_t> points = {alpha, 0, n - 1};
      for (int trial = 0; trial < 64; ++trial) points.push_back(rng.Uniform(n));
      for (uint64_t x : points) {
        EXPECT_EQ(DpfEvalPoint(*key, x), BitAt(full, x))
            << "depth=" << unsigned{depth} << " x=" << x;
      }
    }
  }
}

TEST(DpfTest, EvalFullEqualsEvalPointAtEveryPointDepths9To14) {
  // EvalFull expands each tree level and converts the leaves in lane
  // groups of 8 nodes; at these depths the early levels hold fewer than 8
  // nodes (the scalar remainder) and the late ones several full groups.
  // Every point must agree with the one-block-at-a-time point walk.
  Rng rng(109);
  for (uint8_t depth = 9; depth <= 14; ++depth) {
    const uint64_t n = uint64_t{1} << depth;
    auto keys = DpfGen(rng.Uniform(n), depth);
    ASSERT_TRUE(keys.ok());
    for (const DpfKey* key : {&keys->key0, &keys->key1}) {
      const std::vector<uint64_t> full = DpfEvalFull(*key);
      uint64_t mismatches = 0;
      for (uint64_t x = 0; x < n; ++x) {
        mismatches += DpfEvalPoint(*key, x) != BitAt(full, x);
      }
      EXPECT_EQ(mismatches, 0u) << "depth=" << unsigned{depth}
                                << " party=" << unsigned{key->party};
    }
  }
}

TEST(DpfTest, EachPartyEvaluationLooksBalanced) {
  // A single key's bit vector is pseudorandom (each party's share alone
  // carries no information about alpha): at depth 16 the popcount should
  // be near n/2, not degenerate. A 6-sigma band keeps this deterministic
  // in practice without being vacuous.
  auto keys = DpfGen(12345, 16);
  ASSERT_TRUE(keys.ok());
  for (const DpfKey* key : {&keys->key0, &keys->key1}) {
    const uint64_t ones = PopCount(DpfEvalFull(*key));
    EXPECT_GT(ones, 32768u - 6 * 128) << "party " << unsigned{key->party};
    EXPECT_LT(ones, 32768u + 6 * 128) << "party " << unsigned{key->party};
  }
}

TEST(DpfTest, SerializationRoundTrips) {
  Rng rng(103);
  for (uint8_t depth : {uint8_t{1}, uint8_t{7}, uint8_t{9}, uint8_t{10},
                        uint8_t{20}, kMaxDpfDepth}) {
    auto keys = DpfGen(rng.Uniform(uint64_t{1} << depth), depth);
    ASSERT_TRUE(keys.ok());
    for (const DpfKey* key : {&keys->key0, &keys->key1}) {
      const std::vector<uint8_t> bytes = key->Serialize();
      EXPECT_EQ(bytes.size(), DpfKeyBytes(depth));
      auto parsed = DpfKey::Parse(bytes.data(), bytes.size());
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_EQ(parsed->party, key->party);
      EXPECT_EQ(parsed->depth, key->depth);
      EXPECT_EQ(parsed->root_seed, key->root_seed);
      EXPECT_EQ(parsed->root_t, key->root_t);
      ASSERT_EQ(parsed->cw.size(), key->cw.size());
      for (size_t level = 0; level < key->cw.size(); ++level) {
        EXPECT_EQ(parsed->cw[level].seed, key->cw[level].seed);
        EXPECT_EQ(parsed->cw[level].t_left, key->cw[level].t_left);
        EXPECT_EQ(parsed->cw[level].t_right, key->cw[level].t_right);
      }
      EXPECT_EQ(parsed->output_cw, key->output_cw);
      // Re-serialization is byte-identical (canonical encoding).
      EXPECT_EQ(parsed->Serialize(), bytes);
    }
  }
}

TEST(DpfTest, KeyBytesFollowTheDpf2Layout) {
  // 25 header bytes, 17 per tree level, 64 for the output correction word;
  // depths at or below kDpfLeafLevels have no tree levels at all.
  EXPECT_EQ(DpfKeyBytes(1), 89u);
  EXPECT_EQ(DpfKeyBytes(kDpfLeafLevels), 89u);
  EXPECT_EQ(DpfKeyBytes(kDpfLeafLevels + 1), 106u);
  EXPECT_EQ(DpfKeyBytes(20), 276u);
  EXPECT_EQ(DpfKeyBytes(kMaxDpfDepth), 378u);
}

TEST(DpfTest, ParseRejectsTruncatedAndCorruptKeys) {
  // Depth 12: three tree levels, so per-level rows exist and the depth
  // byte can be changed to one whose key length differs.
  constexpr uint8_t kDepth = 12;
  auto keys = DpfGen(1234, kDepth);
  ASSERT_TRUE(keys.ok());
  const std::vector<uint8_t> good = keys->key0.Serialize();
  ASSERT_EQ(good.size(), DpfKeyBytes(kDepth));
  ASSERT_TRUE(DpfKey::Parse(good.data(), good.size()).ok());

  auto rejected = [](const std::vector<uint8_t>& bytes) {
    return DpfKey::Parse(bytes.data(), bytes.size()).status().code() ==
           StatusCode::kInvalidArgument;
  };
  // Truncation at every prefix length must fail cleanly.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_EQ(DpfKey::Parse(good.data(), len).status().code(),
              StatusCode::kInvalidArgument)
        << "len=" << len;
  }
  // Trailing garbage.
  std::vector<uint8_t> longer = good;
  longer.push_back(0);
  EXPECT_TRUE(rejected(longer));
  // Null input.
  EXPECT_EQ(DpfKey::Parse(nullptr, 0).status().code(),
            StatusCode::kInvalidArgument);

  auto corrupt = [&](size_t at, uint8_t value) {
    std::vector<uint8_t> bad = good;
    bad[at] = value;
    return rejected(bad);
  };
  // Bad magic, and the retired DPF1 format — both its magic on a DPF2
  // body and a complete key in its layout (25 + 17 * depth bytes).
  EXPECT_TRUE(corrupt(0, 'X'));
  EXPECT_TRUE(corrupt(3, '1'));
  EXPECT_TRUE(corrupt(3, '3'));
  std::vector<uint8_t> dpf1 = {'D', 'P', 'F', '1', 0, kDepth, 0, 0};
  dpf1.resize(25 + size_t{17} * kDepth, 0);
  EXPECT_TRUE(rejected(dpf1));
  // Party byte outside {0, 1}.
  EXPECT_TRUE(corrupt(4, 2));
  // Depth 0, and depths that disagree with the actual length (one tree
  // level fewer, one more, and a depth with no tree levels).
  EXPECT_TRUE(corrupt(5, 0));
  EXPECT_TRUE(corrupt(5, kDepth - 1));
  EXPECT_TRUE(corrupt(5, kDepth + 1));
  EXPECT_TRUE(corrupt(5, kDpfLeafLevels));
  // Depth beyond the cap: a hostile key must not size a 2^depth eval.
  EXPECT_TRUE(corrupt(5, kMaxDpfDepth + 1));
  // Reserved bytes must be zero.
  EXPECT_TRUE(corrupt(6, 1));
  EXPECT_TRUE(corrupt(7, 1));
  // Root control byte and per-level control-bit bytes must be bit-valued.
  EXPECT_TRUE(corrupt(24, 2));
  for (size_t level = 0; level < DpfTreeLevels(kDepth); ++level) {
    EXPECT_TRUE(corrupt(25 + 17 * level + kDpfSeedSize, 4))
        << "level=" << level;
  }
  // The output correction word is arbitrary bytes: flipping its last byte
  // still parses (the key length is the only thing guarding it).
  EXPECT_FALSE(corrupt(good.size() - 1, good.back() ^ 0xff));
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(DpfTest, PinnedDepth12KeyEvaluatesToKnownAnswer) {
  // A fixed DPF2 key (party 0, depth 12, three tree levels). Its
  // full-domain evaluation is pinned by CRC32C over the little-endian
  // bytes of the output words plus its popcount, so a change in bit
  // order, word packing or PRG domain separation (Expand at counter 0,
  // Convert at counter 1) between a client and a server build fails here.
  const std::vector<uint8_t> bytes = FromHex(
      "44504632"                          // "DPF2"
      "000c0000"                          // party 0, depth 12, reserved
      "00112233445566778899aabbccddeeff"  // root seed
      "01"                                // root control bit
      "0f1e2d3c4b5a69788796a5b4c3d2e1f0" "01"  // level 0: seed, t_left
      "0123456789abcdeffedcba9876543210" "02"  // level 1: seed, t_right
      "deadbeefcafebabe0badf00dfeedface" "03"  // level 2: seed, both
      "a55a0ff0c33c9669e11e2dd2b44b7887"  // output correction word
      "13579bdf02468ace1133557799bbddff"
      "fedcba98765432100123456789abcdef"
      "5aa5f00f3cc36996e11e2dd278874bb4");
  ASSERT_EQ(bytes.size(), DpfKeyBytes(12));
  auto key = DpfKey::Parse(bytes.data(), bytes.size());
  ASSERT_TRUE(key.ok()) << key.status();
  EXPECT_EQ(key->Serialize(), bytes);

  const std::vector<uint64_t> full = DpfEvalFull(*key);
  ASSERT_EQ(full.size(), 64u);
  std::vector<uint8_t> le;
  for (uint64_t w : full) {
    for (int i = 0; i < 8; ++i) le.push_back(static_cast<uint8_t>(w >> (8 * i)));
  }
  // Values reproduced by an independent reimplementation of the layout
  // documented in crypto/dpf.h (RFC 8439 ChaCha20, bitwise CRC32C).
  EXPECT_EQ(crc32c::Crc32c(le.data(), le.size()), 384869650u);
  EXPECT_EQ(PopCount(full), 2033u);
}

TEST(DpfTest, GenRejectsBadDomains) {
  EXPECT_FALSE(DpfGen(0, 0).ok());
  EXPECT_FALSE(DpfGen(0, kMaxDpfDepth + 1).ok());
  // Alpha outside the domain.
  EXPECT_FALSE(DpfGen(2, 1).ok());
  EXPECT_FALSE(DpfGen(uint64_t{1} << 20, 20).ok());
  // Boundary alphas are fine.
  EXPECT_TRUE(DpfGen(0, 1).ok());
  EXPECT_TRUE(DpfGen(1, 1).ok());
  EXPECT_TRUE(DpfGen((uint64_t{1} << 20) - 1, 20).ok());
}

TEST(DpfTest, EvalFullOfMalformedKeyIsEmpty) {
  // DpfEvalFull is documented to return {} rather than crash on a key
  // whose invariants are broken (depth 0 or cw size mismatch) — the
  // defensive floor beneath the Parse layer.
  DpfKey bad;
  bad.depth = 0;
  EXPECT_TRUE(DpfEvalFull(bad).empty());
  bad.depth = 4;
  bad.cw.resize(2);  // should be 4
  EXPECT_TRUE(DpfEvalFull(bad).empty());
}

}  // namespace
}  // namespace crypto
}  // namespace dpstore
