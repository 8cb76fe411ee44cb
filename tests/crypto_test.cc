#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "crypto/prf.h"
#include "crypto/prg.h"
#include "storage/block_buffer.h"
#include "storage/kernels.h"
#include "util/random.h"

namespace dpstore {
namespace crypto {
namespace {

// --- ChaCha20 (RFC 8439 test vectors) ---------------------------------------

ChaChaKey Rfc8439Key() {
  ChaChaKey key;
  for (size_t i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  return key;
}

// RFC 8439 Section 2.3.2: key 00..1f, nonce 000000090000004a00000000,
// counter 1.
constexpr uint8_t kRfc8439Sec232Block[kChaChaBlockSize] = {
    0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
    0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
    0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
    0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
    0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
    0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};

TEST(ChaCha20Test, Rfc8439BlockVector) {
  // RFC 8439 Section 2.3.2.
  ChaChaKey key = Rfc8439Key();
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  uint8_t out[kChaChaBlockSize];
  ChaCha20Block(key, nonce, 1, out);
  const uint8_t* expected = kRfc8439Sec232Block;
  EXPECT_EQ(0, std::memcmp(out, expected, kChaChaBlockSize));
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  // RFC 8439 Section 2.4.2: "Ladies and Gentlemen..." plaintext.
  ChaChaKey key = Rfc8439Key();
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<uint8_t> data(plaintext.begin(), plaintext.end());
  ChaCha20Xor(key, nonce, 1, data.data(), data.size());
  const uint8_t expected_prefix[16] = {0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68,
                                       0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
                                       0xdd, 0x0d, 0x69, 0x81};
  EXPECT_EQ(0, std::memcmp(data.data(), expected_prefix, 16));
  // Round trip restores the plaintext.
  ChaCha20Xor(key, nonce, 1, data.data(), data.size());
  EXPECT_EQ(std::string(data.begin(), data.end()), plaintext);
}

TEST(ChaCha20Test, XorHandlesNonBlockMultiples) {
  ChaChaKey key = Rfc8439Key();
  ChaChaNonce nonce{};
  for (size_t len : {0u, 1u, 63u, 64u, 65u, 127u, 200u}) {
    std::vector<uint8_t> data(len, 0xAB);
    std::vector<uint8_t> orig = data;
    ChaCha20Xor(key, nonce, 0, data.data(), data.size());
    if (len > 0) {
      EXPECT_NE(data, orig) << "len=" << len;
    }
    ChaCha20Xor(key, nonce, 0, data.data(), data.size());
    EXPECT_EQ(data, orig) << "len=" << len;
  }
}

TEST(ChaCha20Test, CounterContinuity) {
  // XOR with counter c over two blocks == block c then block c+1.
  ChaChaKey key = Rfc8439Key();
  ChaChaNonce nonce{};
  std::vector<uint8_t> both(128, 0);
  ChaCha20Xor(key, nonce, 5, both.data(), both.size());
  uint8_t b5[64];
  uint8_t b6[64];
  ChaCha20Block(key, nonce, 5, b5);
  ChaCha20Block(key, nonce, 6, b6);
  EXPECT_EQ(0, std::memcmp(both.data(), b5, 64));
  EXPECT_EQ(0, std::memcmp(both.data() + 64, b6, 64));
}

// --- Lane-parallel keystream (every kernel tier) ----------------------------

// An independent ChaCha20 block written straight from RFC 8439 Section
// 2.3: the reference every lane of every kernel tier is held to.
void ReferenceBlock(const uint8_t* key, const uint8_t* nonce,
                    uint32_t counter, uint8_t out[kChaChaBlockSize]) {
  auto load = [](const uint8_t* p) {
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
           uint32_t{p[3]} << 24;
  };
  uint32_t s[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) s[4 + i] = load(key + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = load(nonce + 4 * i);
  uint32_t x[16];
  std::copy(s, s + 16, x);
  auto qr = [&x](int a, int b, int c, int d) {
    auto rotl = [](uint32_t v, int k) { return (v << k) | (v >> (32 - k)); };
    x[a] += x[b]; x[d] = rotl(x[d] ^ x[a], 16);
    x[c] += x[d]; x[b] = rotl(x[b] ^ x[c], 12);
    x[a] += x[b]; x[d] = rotl(x[d] ^ x[a], 8);
    x[c] += x[d]; x[b] = rotl(x[b] ^ x[c], 7);
  };
  for (int round = 0; round < 10; ++round) {
    qr(0, 4, 8, 12); qr(1, 5, 9, 13); qr(2, 6, 10, 14); qr(3, 7, 11, 15);
    qr(0, 5, 10, 15); qr(1, 6, 11, 12); qr(2, 7, 8, 13); qr(3, 4, 9, 14);
  }
  for (int i = 0; i < 16; ++i) {
    const uint32_t v = x[i] + s[i];
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
}

std::vector<kernels::Variant> SupportedVariants() {
  std::vector<kernels::Variant> variants;
  for (kernels::Variant v : {kernels::Variant::kScalar, kernels::Variant::kSse2,
                             kernels::Variant::kAvx2}) {
    if (kernels::VariantSupported(v)) variants.push_back(v);
  }
  return variants;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->Uniform(256));
  return bytes;
}

TEST(ChaCha20LanesTest, Rfc8439VectorsOnEveryVariant) {
  const ChaChaKey key = Rfc8439Key();
  const ChaChaNonce block_nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const ChaChaNonce text_nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                  0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  // RFC 8439 Section 2.4.2: the sunscreen plaintext under counters 1, 2.
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const uint8_t ciphertext[114] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
      0xdd, 0x0d, 0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2,
      0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5,
      0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57,
      0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
      0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61,
      0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
      0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36,
      0x5a, 0xf9, 0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed,
      0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d};
  ASSERT_EQ(plaintext.size(), sizeof(ciphertext));
  for (kernels::Variant v : SupportedVariants()) {
    const char* name = kernels::VariantName(v);
    // Section 2.3.2 in every lane of a full 8-lane group plus one
    // remainder lane.
    const ChaChaLane rfc_lane{key.data(), block_nonce.data(), 1};
    std::vector<ChaChaLane> lanes(kChaChaLanes + 1, rfc_lane);
    std::vector<uint8_t> out(lanes.size() * kChaChaBlockSize);
    ChaCha20BlocksVariant(v, lanes.data(), lanes.size(), out.data());
    for (size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(out.data() + i * kChaChaBlockSize,
                               kRfc8439Sec232Block, kChaChaBlockSize))
          << name << " lane " << i;
    }
    // Section 2.4.2: five copies of the two-block keystream, so copies
    // land in the 8-lane body and in the remainder.
    lanes.clear();
    for (uint32_t i = 0; i < 10; ++i) {
      lanes.push_back({key.data(), text_nonce.data(), 1 + i % 2});
    }
    out.assign(lanes.size() * kChaChaBlockSize, 0);
    ChaCha20BlocksVariant(v, lanes.data(), lanes.size(), out.data());
    for (size_t copy = 0; copy < 5; ++copy) {
      std::vector<uint8_t> data(plaintext.begin(), plaintext.end());
      const uint8_t* keystream = out.data() + copy * 2 * kChaChaBlockSize;
      for (size_t i = 0; i < data.size(); ++i) data[i] ^= keystream[i];
      EXPECT_EQ(0, std::memcmp(data.data(), ciphertext, data.size()))
          << name << " copy " << copy;
    }
  }
}

TEST(ChaCha20LanesTest, EveryVariantMatchesTheReferencePerLane) {
  // Independent random key, nonce and counter per lane, at every lane
  // count up to 17 (no full group, one, two, with and without a
  // remainder) and at 136 (one Path ORAM path of 81 B slots).
  Rng rng(8439);
  std::vector<size_t> counts;
  for (size_t n = 1; n <= 17; ++n) counts.push_back(n);
  counts.push_back(136);
  for (kernels::Variant v : SupportedVariants()) {
    for (size_t n : counts) {
      const std::vector<uint8_t> keys = RandomBytes(&rng, n * kChaChaKeySize);
      const std::vector<uint8_t> nonces =
          RandomBytes(&rng, n * kChaChaNonceSize);
      std::vector<ChaChaLane> lanes(n);
      for (size_t i = 0; i < n; ++i) {
        lanes[i] = {keys.data() + i * kChaChaKeySize,
                    nonces.data() + i * kChaChaNonceSize,
                    static_cast<uint32_t>(rng.NextUint64())};
      }
      if (n >= 2) {
        // A keystream crossing the counter wrap: 0xFFFFFFFF, then 0 under
        // the same key and nonce, as the scalar ++state[12] wraps.
        lanes[n - 2].counter = 0xFFFFFFFFu;
        lanes[n - 1] = lanes[n - 2];
        ++lanes[n - 1].counter;
        ASSERT_EQ(lanes[n - 1].counter, 0u);
      }
      std::vector<uint8_t> out(n * kChaChaBlockSize);
      ChaCha20BlocksVariant(v, lanes.data(), n, out.data());
      for (size_t i = 0; i < n; ++i) {
        uint8_t want[kChaChaBlockSize];
        ReferenceBlock(lanes[i].key, lanes[i].nonce, lanes[i].counter, want);
        EXPECT_EQ(0, std::memcmp(out.data() + i * kChaChaBlockSize, want,
                                 kChaChaBlockSize))
            << kernels::VariantName(v) << " n=" << n << " lane " << i;
      }
    }
  }
}

TEST(ChaCha20LanesTest, XorCounterWrapsLikeTheScalarWord) {
  // 16 blocks plus a tail starting 4 below the wrap: the counter passes
  // 0xFFFFFFFF -> 0 inside the first 8-lane group.
  Rng rng(7539);
  ChaChaKey key;
  ChaChaNonce nonce;
  for (uint8_t& b : key) b = static_cast<uint8_t>(rng.Uniform(256));
  for (uint8_t& b : nonce) b = static_cast<uint8_t>(rng.Uniform(256));
  const uint32_t start = 0xFFFFFFFFu - 3;
  const size_t len = 16 * kChaChaBlockSize + 5;
  std::vector<uint8_t> data(len, 0);
  ChaCha20Xor(key, nonce, start, data.data(), len);
  for (size_t b = 0; b * kChaChaBlockSize < len; ++b) {
    uint8_t want[kChaChaBlockSize];
    ReferenceBlock(key.data(), nonce.data(),
                   static_cast<uint32_t>(start + b), want);
    const size_t chunk = std::min(kChaChaBlockSize, len - b * kChaChaBlockSize);
    EXPECT_EQ(0, std::memcmp(data.data() + b * kChaChaBlockSize, want, chunk))
        << "block " << b;
  }
}

// --- SipHash -----------------------------------------------------------------

TEST(SiphashTest, ReferenceVector) {
  // Reference test vector from the SipHash paper / reference implementation:
  // key = 000102...0f, input = 000102...0e (15 bytes).
  PrfKey key;
  for (size_t i = 0; i < 16; ++i) key[i] = static_cast<uint8_t>(i);
  uint8_t input[15];
  for (size_t i = 0; i < 15; ++i) input[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Siphash24(key, input, 15), 0xa129ca6149be45e5ULL);
}

TEST(SiphashTest, EmptyInputVector) {
  PrfKey key;
  for (size_t i = 0; i < 16; ++i) key[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Siphash24(key, nullptr, 0), 0x726fdb47dd0e0e31ULL);
}

TEST(PrfTest, DeterministicAndKeyed) {
  PrfKey k1{};
  PrfKey k2{};
  k2[0] = 1;
  EXPECT_EQ(Prf(k1, uint64_t{42}), Prf(k1, uint64_t{42}));
  EXPECT_NE(Prf(k1, uint64_t{42}), Prf(k2, uint64_t{42}));
  EXPECT_NE(Prf(k1, uint64_t{42}), Prf(k1, uint64_t{43}));
}

TEST(PrfTest, StringAndIntegerInputsDiffer) {
  PrfKey key{};
  // No cheap relation between encodings should hold.
  EXPECT_NE(Prf(key, "42"), Prf(key, uint64_t{42}));
}

TEST(PrfTest, PrfModInRange) {
  PrfKey key{};
  key[3] = 7;
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_LT(PrfMod(key, i, 37), 37u);
  }
}

TEST(PrfTest, PrfModSpreadsAcrossRange) {
  PrfKey key{};
  key[5] = 9;
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 200; ++i) seen.insert(PrfMod(key, i, 16));
  EXPECT_EQ(seen.size(), 16u);
}

// --- Prg ---------------------------------------------------------------------

TEST(PrgTest, DeterministicUnderKey) {
  ChaChaKey key{};
  key[0] = 0x55;
  Prg a(key);
  Prg b(key);
  EXPECT_EQ(a.Bytes(100), b.Bytes(100));
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(PrgTest, StreamsAreContinuous) {
  ChaChaKey key{};
  Prg a(key);
  Prg b(key);
  auto first = a.Bytes(10);
  auto second = a.Bytes(10);
  auto both = b.Bytes(20);
  EXPECT_TRUE(std::equal(first.begin(), first.end(), both.begin()));
  EXPECT_TRUE(std::equal(second.begin(), second.end(), both.begin() + 10));
}

TEST(PrgTest, DifferentKeysDiverge) {
  ChaChaKey k1{};
  ChaChaKey k2{};
  k2[31] = 1;
  Prg a(k1);
  Prg b(k2);
  EXPECT_NE(a.Bytes(32), b.Bytes(32));
}

TEST(SystemRandomTest, ProducesDistinctKeys) {
  ChaChaKey a = RandomChaChaKey();
  ChaChaKey b = RandomChaChaKey();
  EXPECT_NE(a, b);
}

// --- Cipher ------------------------------------------------------------------

TEST(CipherTest, EncryptDecryptRoundTrip) {
  Cipher cipher = Cipher::WithRandomKey();
  std::vector<uint8_t> plaintext = {1, 2, 3, 4, 5, 255, 0, 17};
  auto ciphertext = cipher.EncryptCopy(plaintext);
  EXPECT_EQ(ciphertext.size(), Cipher::CiphertextSize(plaintext.size()));
  auto decrypted = cipher.Decrypt(ciphertext);
  ASSERT_TRUE(decrypted.ok());
  EXPECT_EQ(*decrypted, plaintext);
}

TEST(CipherTest, EmptyPlaintext) {
  Cipher cipher = Cipher::WithRandomKey();
  std::vector<uint8_t> empty;
  auto ct = cipher.EncryptCopy(empty);
  auto pt = cipher.Decrypt(ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_TRUE(pt->empty());
}

TEST(CipherTest, EncryptionIsRandomized) {
  // IND-CPA sanity: same plaintext twice -> different ciphertexts. This is
  // the re-randomization property Algorithm 3's overwrite phase needs.
  Cipher cipher = Cipher::WithRandomKey();
  std::vector<uint8_t> plaintext(64, 0x42);
  auto c1 = cipher.EncryptCopy(plaintext);
  auto c2 = cipher.EncryptCopy(plaintext);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(*cipher.Decrypt(c1), *cipher.Decrypt(c2));
}

TEST(CipherTest, TamperDetection) {
  Cipher cipher = Cipher::WithRandomKey();
  std::vector<uint8_t> plaintext(32, 7);
  auto ct = cipher.EncryptCopy(plaintext);
  for (size_t pos : {size_t{0}, ct.size() / 2, ct.size() - 1}) {
    auto tampered = ct;
    tampered[pos] ^= 0x01;
    EXPECT_EQ(cipher.Decrypt(tampered).status().code(), StatusCode::kDataLoss)
        << "tamper at " << pos;
  }
}

TEST(CipherTest, TruncationDetected) {
  Cipher cipher = Cipher::WithRandomKey();
  auto ct = cipher.EncryptCopy(std::vector<uint8_t>(16, 1));
  ct.resize(10);
  EXPECT_EQ(cipher.Decrypt(ct).status().code(), StatusCode::kDataLoss);
}

TEST(CipherTest, WrongKeyFailsAuthentication) {
  Cipher a = Cipher::WithRandomKey();
  Cipher b = Cipher::WithRandomKey();
  auto ct = a.EncryptCopy(std::vector<uint8_t>(16, 9));
  EXPECT_FALSE(b.Decrypt(ct).ok());
}

TEST(CipherTest, DerivedFromMasterKeyIsDeterministic) {
  ChaChaKey master{};
  master[7] = 0x33;
  Cipher a(master);
  Cipher b(master);
  auto ct = a.EncryptCopy(std::vector<uint8_t>(8, 4));
  auto pt = b.Decrypt(ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ((*pt)[0], 4);
}

TEST(CipherTest, InPlaceRoundTripInsideFlatBuffer) {
  // The hot-loop contract: stage plaintext at PlaintextOffset() inside a
  // ciphertext-sized slot of a flat buffer, encrypt in place, decrypt in
  // place, and read the plaintext back through the returned view.
  Cipher cipher = Cipher::WithRandomKey();
  const size_t plain_size = 40;
  dpstore::BlockBuffer buffer = dpstore::BlockBuffer::Zeroed(
      3, Cipher::CiphertextSize(plain_size));
  for (size_t k = 0; k < buffer.size(); ++k) {
    dpstore::MutableBlockView slot = buffer.Mutable(k);
    for (size_t i = 0; i < plain_size; ++i) {
      slot[Cipher::PlaintextOffset() + i] = static_cast<uint8_t>(k * 7 + i);
    }
    cipher.EncryptInPlace(slot);
  }
  for (size_t k = 0; k < buffer.size(); ++k) {
    auto plain = cipher.DecryptInPlace(buffer.Mutable(k));
    ASSERT_TRUE(plain.ok()) << k;
    ASSERT_EQ(plain->size(), plain_size);
    for (size_t i = 0; i < plain_size; ++i) {
      EXPECT_EQ((*plain)[i], static_cast<uint8_t>(k * 7 + i));
    }
  }
}

TEST(CipherTest, InPlaceAndCopyingFormsInteroperate) {
  Cipher cipher = Cipher::WithRandomKey();
  std::vector<uint8_t> plaintext = {9, 8, 7, 6, 5};
  // EncryptCopy -> DecryptInPlace.
  auto ct = cipher.EncryptCopy(plaintext);
  auto in_place = cipher.DecryptInPlace(ct);
  ASSERT_TRUE(in_place.ok());
  EXPECT_TRUE(std::equal(in_place->begin(), in_place->end(),
                         plaintext.begin(), plaintext.end()));
  // EncryptInPlace -> Decrypt (copying).
  std::vector<uint8_t> slot(Cipher::CiphertextSize(plaintext.size()), 0);
  std::copy(plaintext.begin(), plaintext.end(),
            slot.begin() + Cipher::PlaintextOffset());
  cipher.EncryptInPlace(slot);
  auto copied = cipher.Decrypt(slot);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, plaintext);
}

TEST(CipherTest, InPlaceDecryptRejectsTamperWithoutModifyingSlot) {
  Cipher cipher = Cipher::WithRandomKey();
  auto ct = cipher.EncryptCopy(std::vector<uint8_t>(16, 3));
  ct[kChaChaNonceSize] ^= 0x01;  // corrupt the body
  auto before = ct;
  EXPECT_EQ(cipher.DecryptInPlace(ct).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(ct, before) << "failed decrypt must leave the slot untouched";
}

TEST(ChaChaTest, MultiBlockXorMatchesBlockAtATime) {
  // ChaCha20Xor's hoisted-state multi-block path must produce exactly the
  // keystream of per-block ChaCha20Block calls at successive counters.
  ChaChaKey key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  ChaChaNonce nonce{};
  nonce[0] = 0x5A;
  const size_t len = 3 * kChaChaBlockSize + 17;  // full blocks + a tail
  std::vector<uint8_t> data(len);
  for (size_t i = 0; i < len; ++i) data[i] = static_cast<uint8_t>(i * 31);
  std::vector<uint8_t> expected = data;
  ChaCha20Xor(key, nonce, /*counter=*/5, data.data(), len);
  uint8_t block[kChaChaBlockSize];
  for (size_t offset = 0, counter = 5; offset < len;
       offset += kChaChaBlockSize, ++counter) {
    ChaCha20Block(key, nonce, static_cast<uint32_t>(counter), block);
    for (size_t i = 0; i < kChaChaBlockSize && offset + i < len; ++i) {
      expected[offset + i] ^= block[i];
    }
  }
  EXPECT_EQ(data, expected);
}

// --- Cipher batches ----------------------------------------------------------

// `count` ciphertext-sized slots whose bodies hold a per-slot pattern.
dpstore::BlockBuffer StagedSlots(size_t count, size_t body) {
  dpstore::BlockBuffer slots =
      dpstore::BlockBuffer::Zeroed(count, Cipher::CiphertextSize(body));
  for (size_t k = 0; k < count; ++k) {
    dpstore::MutableBlockView plain = Cipher::Body(slots.Mutable(k));
    for (size_t i = 0; i < body; ++i) {
      plain[i] = static_cast<uint8_t>(k * 31 + i * 7 + 1);
    }
  }
  return slots;
}

bool SameBytes(dpstore::BlockView a, dpstore::BlockView b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(CipherBatchTest, BatchAndSingleSlotCiphertextsDecryptEachOther) {
  // Bodies from empty through one, two and 79 keystream blocks; batches
  // of one slot through more than the stack nonce buffer holds.
  Cipher cipher = Cipher::WithRandomKey();
  for (size_t body : {0u, 1u, 63u, 64u, 81u, 129u, 5000u}) {
    for (size_t count : {1u, 7u, 68u, 200u}) {
      const dpstore::BlockBuffer plain = StagedSlots(count, body);
      // Batch encrypt -> single-slot decrypt.
      dpstore::BlockBuffer slots = StagedSlots(count, body);
      cipher.EncryptBatch(slots);
      for (size_t k = 0; k < count; ++k) {
        auto got = cipher.DecryptInPlace(slots.Mutable(k));
        ASSERT_TRUE(got.ok()) << "body=" << body << " slot " << k;
        EXPECT_TRUE(SameBytes(*got, Cipher::Body(plain[k])))
            << "body=" << body << " count=" << count << " slot " << k;
      }
      // Single-slot encrypt -> batch decrypt.
      slots = StagedSlots(count, body);
      for (size_t k = 0; k < count; ++k) {
        cipher.EncryptInPlace(slots.Mutable(k));
      }
      ASSERT_TRUE(cipher.DecryptBatch(slots).ok()) << "body=" << body;
      for (size_t k = 0; k < count; ++k) {
        EXPECT_TRUE(SameBytes(Cipher::Body(slots[k]), Cipher::Body(plain[k])))
            << "body=" << body << " count=" << count << " slot " << k;
      }
    }
  }
}

TEST(CipherBatchTest, TamperedSlotFailsTheBatchAndModifiesNoSlot) {
  // One Path ORAM path: 68 slots of 81 B. Every tag is verified before
  // any keystream is XORed, so one bad slot leaves all 68 as they came.
  Cipher cipher = Cipher::WithRandomKey();
  dpstore::BlockBuffer slots = StagedSlots(68, 81);
  cipher.EncryptBatch(slots);
  slots.Mutable(41)[kChaChaNonceSize + 5] ^= 0x01;
  const dpstore::BlockBuffer before = slots;
  const Status status = cipher.DecryptBatch(slots);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("slot 41"), std::string::npos)
      << status.message();
  for (size_t k = 0; k < slots.size(); ++k) {
    EXPECT_TRUE(SameBytes(slots[k], before[k])) << "slot " << k << " modified";
  }
}

TEST(CipherBatchTest, RangeDecryptTouchesOnlyItsRange) {
  Cipher cipher = Cipher::WithRandomKey();
  const dpstore::BlockBuffer plain = StagedSlots(20, 81);
  dpstore::BlockBuffer slots = StagedSlots(20, 81);
  cipher.EncryptBatch(slots);
  const dpstore::BlockBuffer before = slots;
  ASSERT_TRUE(cipher.DecryptBatch(slots, 5, 10).ok());
  for (size_t k = 0; k < slots.size(); ++k) {
    if (k >= 5 && k < 15) {
      EXPECT_TRUE(SameBytes(Cipher::Body(slots[k]), Cipher::Body(plain[k])))
          << "slot " << k;
    } else {
      EXPECT_TRUE(SameBytes(slots[k], before[k])) << "slot " << k;
    }
  }
}

TEST(CipherBatchTest, BatchNoncesAreDistinct) {
  // One entropy read serves the whole batch; each slot still gets its own
  // nonce, so equal plaintexts encrypt to unrelated ciphertexts.
  Cipher cipher = Cipher::WithRandomKey();
  dpstore::BlockBuffer slots = dpstore::BlockBuffer::Zeroed(
      300, Cipher::CiphertextSize(81));
  cipher.EncryptBatch(slots);
  std::set<ChaChaNonce> nonces;
  for (size_t k = 0; k < slots.size(); ++k) {
    ChaChaNonce nonce;
    std::memcpy(nonce.data(), slots[k].data(), nonce.size());
    nonces.insert(nonce);
  }
  EXPECT_EQ(nonces.size(), slots.size());
}

TEST(CipherTest, CiphertextHidesPlaintextBytes) {
  Cipher cipher = Cipher::WithRandomKey();
  std::vector<uint8_t> plaintext(128, 0x00);
  auto ct = cipher.EncryptCopy(plaintext);
  // The body (between nonce and tag) should not be all zeros.
  size_t zeros = 0;
  for (size_t i = kChaChaNonceSize; i < ct.size() - Cipher::kTagSize; ++i) {
    if (ct[i] == 0) ++zeros;
  }
  EXPECT_LT(zeros, 16u);
}

}  // namespace
}  // namespace crypto
}  // namespace dpstore
