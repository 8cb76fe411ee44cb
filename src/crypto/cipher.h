#ifndef DPSTORE_CRYPTO_CIPHER_H_
#define DPSTORE_CRYPTO_CIPHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/prf.h"
#include "storage/block_buffer.h"
#include "util/statusor.h"

namespace dpstore {
namespace crypto {

/// IND-CPA symmetric encryption, the (Enc, Dec) pair assumed by the paper's
/// DP-RAM construction (Section 6). Each Encrypt draws a fresh random
/// 96-bit nonce, so encrypting the same plaintext twice yields independent
/// ciphertexts - exactly the re-randomization property the overwrite phase
/// of Algorithm 3 relies on ("decrypted and then re-encrypted with fresh
/// randomness").
///
/// Layout: nonce (12B) || body (ChaCha20 keystream XOR plaintext) || tag (8B,
/// SipHash-2-4 over nonce||body). The tag is not needed for IND-CPA but lets
/// the storage layer detect tampering/corruption in failure-injection tests
/// (DataLoss instead of silently returning garbage).
///
/// The primary API is IN-PLACE over views into flat buffers: the scheme hot
/// loops stage plaintext at PlaintextOffset() inside the ciphertext-sized
/// slot they are about to upload and encrypt it there, never touching a
/// temporary vector. EncryptCopy/Decrypt remain as convenience wrappers for
/// setup code and tests.
///
/// Batches: EncryptBatch / DecryptBatch work in place over a BlockBuffer of
/// same-size slots (a whole Path ORAM path per call). All of a batch's
/// keystream blocks go through ChaCha20Blocks together, so full groups of
/// 8 run the 8-lane AVX2 body. EncryptBatch draws every nonce with ONE
/// SystemRandomBytes call. DecryptBatch verifies every tag before it XORs
/// any keystream: on a bad tag it returns DataLoss naming the first bad
/// slot and leaves every slot of the batch unmodified. The single-slot
/// EncryptInPlace / DecryptInPlace are the N = 1 case of the same code.
class Cipher {
 public:
  /// Derives the encryption and MAC subkeys from one master key.
  explicit Cipher(const ChaChaKey& master_key);

  /// Fresh random key from system entropy.
  static Cipher WithRandomKey();

  /// Ciphertext size for a given plaintext size (adds nonce + tag).
  static size_t CiphertextSize(size_t plaintext_size) {
    return plaintext_size + kChaChaNonceSize + kTagSize;
  }
  /// Plaintext size recovered from a ciphertext slot size.
  static size_t PlaintextSize(size_t ciphertext_size) {
    return ciphertext_size - kChaChaNonceSize - kTagSize;
  }
  /// Byte offset within a ciphertext slot where the plaintext body lives;
  /// callers of EncryptInPlace stage their plaintext here.
  static constexpr size_t PlaintextOffset() { return kChaChaNonceSize; }
  static constexpr size_t kTagSize = 8;

  /// The plaintext body of a ciphertext slot: bytes [PlaintextOffset(),
  /// size - kTagSize). Requires slot.size() >= nonce + tag.
  static MutableBlockView Body(MutableBlockView slot) {
    return slot.subspan(kChaChaNonceSize, PlaintextSize(slot.size()));
  }
  static BlockView Body(BlockView slot) {
    return slot.subspan(kChaChaNonceSize, PlaintextSize(slot.size()));
  }

  /// Encrypts in place: `ciphertext` is a CiphertextSize(p)-byte slot whose
  /// bytes [PlaintextOffset(), PlaintextOffset() + p) already hold the
  /// plaintext. Writes a fresh random nonce at the front, XORs the body
  /// with the keystream, and appends the tag — zero allocations, zero
  /// copies. Requires ciphertext.size() >= nonce + tag.
  void EncryptInPlace(MutableBlockView ciphertext) const;

  /// Verifies the tag and decrypts the body in place, returning the view of
  /// the recovered plaintext inside `ciphertext` (Body(ciphertext)).
  /// DataLoss if the slot was truncated or its tag does not verify (the
  /// slot is left unmodified in that case).
  StatusOr<MutableBlockView> DecryptInPlace(MutableBlockView ciphertext) const;

  /// EncryptInPlace over every slot of `slots` (each staged at
  /// PlaintextOffset()), with one entropy read for all the nonces.
  /// Requires slots.block_size() >= nonce + tag.
  void EncryptBatch(BlockBuffer& slots) const;

  /// Verifies the tags of slots [first, first + count), then decrypts them
  /// in place; slot k's plaintext is then Body(slots.Mutable(k)). DataLoss
  /// naming the first bad slot (counted from `first`), or a truncated slot
  /// size, leaves every slot unmodified. Requires first + count <=
  /// slots.size().
  Status DecryptBatch(BlockBuffer& slots, size_t first, size_t count) const;
  Status DecryptBatch(BlockBuffer& slots) const {
    return DecryptBatch(slots, 0, slots.size());
  }

  /// Setup helper: `count` ciphertext slots of CiphertextSize(plain_size)
  /// bytes, as the owned blocks StorageBackend::SetArray takes. stage(i,
  /// body) writes slot i's plaintext into its plain_size-byte body; the
  /// slots are then encrypted in batches of a few thousand.
  std::vector<Block> EncryptArray(
      size_t count, size_t plain_size,
      const std::function<void(size_t, MutableBlockView)>& stage) const;

  /// Copying convenience for setup paths and tests: allocates the
  /// ciphertext block, stages `plaintext`, and calls EncryptInPlace. Hot
  /// loops must stage into their upload buffer and encrypt in place
  /// instead.
  Block EncryptCopy(BlockView plaintext) const;

  /// Copying convenience: verifies and returns the plaintext as an owned
  /// Block. DataLoss as in DecryptInPlace.
  StatusOr<Block> Decrypt(BlockView ciphertext) const;

 private:
  // The one implementation behind every call above: `count` contiguous
  // slots of `slot_size` bytes starting at `slots`.
  void EncryptSlots(uint8_t* slots, size_t count, size_t slot_size) const;
  Status DecryptSlots(uint8_t* slots, size_t count, size_t slot_size) const;
  // XORs slot k's keystream (its nonce, counters 1, 2, ...) into its body.
  void XorBodies(uint8_t* slots, size_t count, size_t slot_size) const;

  ChaChaKey enc_key_;
  PrfKey mac_key_;
};

}  // namespace crypto
}  // namespace dpstore

#endif  // DPSTORE_CRYPTO_CIPHER_H_
