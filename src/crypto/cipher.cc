#include "crypto/cipher.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "crypto/prg.h"
#include "storage/kernels.h"
#include "util/check.h"

namespace dpstore {
namespace crypto {

namespace {

// Keystream blocks generated per ChaCha20Blocks call (4 KiB on the stack).
constexpr size_t kChunkLanes = 8 * kChaChaLanes;
// Batches up to this many slots draw their nonces into a stack buffer.
constexpr size_t kStackNonces = 128;
// Slots per EncryptBatch in EncryptArray: bounds the staging buffer.
constexpr size_t kArrayBatch = 4096;

}  // namespace

Cipher::Cipher(const ChaChaKey& master_key) {
  // Domain-separated subkey derivation: expand the master key through the
  // ChaCha keystream and split.
  Prg kdf(master_key);
  kdf.Fill(enc_key_.data(), enc_key_.size());
  kdf.Fill(mac_key_.data(), mac_key_.size());
}

Cipher Cipher::WithRandomKey() { return Cipher(RandomChaChaKey()); }

void Cipher::XorBodies(uint8_t* slots, size_t count,
                       size_t slot_size) const {
  const size_t body_len = PlaintextSize(slot_size);
  if (body_len == 0) return;
  const size_t blocks_per_slot =
      (body_len + kChaChaBlockSize - 1) / kChaChaBlockSize;
  if (blocks_per_slot > kChunkLanes) {
    // Large bodies fill whole lane groups on their own.
    for (size_t k = 0; k < count; ++k) {
      uint8_t* slot = slots + k * slot_size;
      ChaChaNonce nonce;
      std::memcpy(nonce.data(), slot, nonce.size());
      ChaCha20Xor(enc_key_, nonce, /*counter=*/1, slot + kChaChaNonceSize,
                  body_len);
    }
    return;
  }
  // Whole slots per chunk, so each slot's keystream is contiguous and its
  // body takes one XOR.
  const size_t slots_per_chunk = kChunkLanes / blocks_per_slot;
  ChaChaLane lanes[kChunkLanes];
  uint8_t keystream[kChunkLanes * kChaChaBlockSize];
  for (size_t first = 0; first < count; first += slots_per_chunk) {
    const size_t chunk = std::min(slots_per_chunk, count - first);
    size_t lane = 0;
    for (size_t k = first; k < first + chunk; ++k) {
      const uint8_t* nonce = slots + k * slot_size;
      for (size_t b = 0; b < blocks_per_slot; ++b) {
        lanes[lane++] = {enc_key_.data(), nonce,
                         static_cast<uint32_t>(1 + b)};
      }
    }
    ChaCha20Blocks(lanes, lane, keystream);
    for (size_t j = 0; j < chunk; ++j) {
      kernels::XorAccumulate(
          slots + (first + j) * slot_size + kChaChaNonceSize,
          keystream + j * blocks_per_slot * kChaChaBlockSize, body_len);
    }
  }
}

void Cipher::EncryptSlots(uint8_t* slots, size_t count,
                          size_t slot_size) const {
  DPSTORE_CHECK_GE(slot_size, kChaChaNonceSize + kTagSize);
  if (count == 0) return;
  const size_t body_len = PlaintextSize(slot_size);
  // One entropy read for the whole batch.
  uint8_t stack_nonces[kStackNonces * kChaChaNonceSize];
  std::vector<uint8_t> heap_nonces;
  uint8_t* nonces = stack_nonces;
  if (count > kStackNonces) {
    heap_nonces.resize(count * kChaChaNonceSize);
    nonces = heap_nonces.data();
  }
  SystemRandomBytes(nonces, count * kChaChaNonceSize);
  for (size_t k = 0; k < count; ++k) {
    std::memcpy(slots + k * slot_size, nonces + k * kChaChaNonceSize,
                kChaChaNonceSize);
  }
  XorBodies(slots, count, slot_size);
  for (size_t k = 0; k < count; ++k) {
    uint8_t* slot = slots + k * slot_size;
    const uint64_t tag =
        Siphash24(mac_key_, slot, kChaChaNonceSize + body_len);
    std::memcpy(slot + kChaChaNonceSize + body_len, &tag, kTagSize);
  }
}

Status Cipher::DecryptSlots(uint8_t* slots, size_t count,
                            size_t slot_size) const {
  if (slot_size < kChaChaNonceSize + kTagSize) {
    return DataLossError("ciphertext shorter than nonce+tag");
  }
  const size_t body_len = PlaintextSize(slot_size);
  // Every tag is checked before any body is touched, so a bad slot leaves
  // the whole batch as it arrived.
  for (size_t k = 0; k < count; ++k) {
    const uint8_t* slot = slots + k * slot_size;
    const uint64_t expected =
        Siphash24(mac_key_, slot, kChaChaNonceSize + body_len);
    uint64_t got;
    std::memcpy(&got, slot + kChaChaNonceSize + body_len, kTagSize);
    if (expected != got) {
      std::string message = "ciphertext authentication tag mismatch in slot ";
      message.append(std::to_string(k));
      return DataLossError(message);
    }
  }
  XorBodies(slots, count, slot_size);
  return OkStatus();
}

void Cipher::EncryptInPlace(MutableBlockView ciphertext) const {
  EncryptSlots(ciphertext.data(), 1, ciphertext.size());
}

StatusOr<MutableBlockView> Cipher::DecryptInPlace(
    MutableBlockView ciphertext) const {
  DPSTORE_RETURN_IF_ERROR(
      DecryptSlots(ciphertext.data(), 1, ciphertext.size()));
  return Body(ciphertext);
}

void Cipher::EncryptBatch(BlockBuffer& slots) const {
  if (slots.empty()) return;
  EncryptSlots(slots.Mutable(0).data(), slots.size(), slots.block_size());
}

Status Cipher::DecryptBatch(BlockBuffer& slots, size_t first,
                            size_t count) const {
  DPSTORE_CHECK_LE(first + count, slots.size());
  if (count == 0) return OkStatus();
  return DecryptSlots(slots.Mutable(first).data(), count, slots.block_size());
}

std::vector<Block> Cipher::EncryptArray(
    size_t count, size_t plain_size,
    const std::function<void(size_t, MutableBlockView)>& stage) const {
  std::vector<Block> array(count);
  BlockBuffer staged(CiphertextSize(plain_size));
  staged.Reserve(std::min(kArrayBatch, count));
  for (size_t first = 0; first < count; first += kArrayBatch) {
    const size_t batch = std::min(kArrayBatch, count - first);
    staged.Clear();
    for (size_t k = 0; k < batch; ++k) {
      stage(first + k, Body(staged.AppendUninitialized()));
    }
    EncryptBatch(staged);
    for (size_t k = 0; k < batch; ++k) array[first + k] = ToBlock(staged[k]);
  }
  return array;
}

Block Cipher::EncryptCopy(BlockView plaintext) const {
  Block out(CiphertextSize(plaintext.size()));
  CopyBytes(out.data() + PlaintextOffset(), plaintext.data(),
            plaintext.size());
  EncryptInPlace(out);
  return out;
}

StatusOr<Block> Cipher::Decrypt(BlockView ciphertext) const {
  Block scratch(ciphertext.begin(), ciphertext.end());
  DPSTORE_ASSIGN_OR_RETURN(MutableBlockView plain,
                           DecryptInPlace(scratch));
  return Block(plain.begin(), plain.end());
}

}  // namespace crypto
}  // namespace dpstore
