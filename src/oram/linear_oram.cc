#include "oram/linear_oram.h"

#include <numeric>

#include "crypto/prg.h"

namespace dpstore {

LinearOram::LinearOram(std::vector<Block> database, uint64_t seed,
                       const BackendFactory& backend_factory)
    : n_(database.size()), cipher_(crypto::RandomChaChaKey()) {
  (void)seed;  // scheme is deterministic given the database
  DPSTORE_CHECK_GT(n_, 0u);
  record_size_ = database[0].size();
  for (const Block& record : database) {
    DPSTORE_CHECK_EQ(record.size(), record_size_);
  }
  std::vector<Block> array = cipher_.EncryptArray(
      n_, record_size_, [&](size_t i, MutableBlockView plain) {
        CopyBytes(plain.data(), database[i].data(), record_size_);
      });
  server_ = MakeBackend(backend_factory, n_,
                        crypto::Cipher::CiphertextSize(record_size_));
  DPSTORE_CHECK_OK(server_->SetArray(std::move(array)));
}

StatusOr<Block> LinearOram::Access(BlockId id, const Block* new_value) {
  if (id >= n_) return OutOfRangeError("LinearOram::Access out of range");
  server_->BeginQuery();
  std::vector<BlockId> all(n_);
  std::iota(all.begin(), all.end(), 0);
  // Full scan as one batched exchange: a single roundtrip for 2n blocks.
  // The downloaded ciphertexts are decrypted in place in the flat reply
  // buffer, and the fresh ciphertexts are staged in the flat upload
  // payload and encrypted there — each side is one batch, and the 2n-block
  // scan allocates two buffers, not 4n vectors.
  DPSTORE_ASSIGN_OR_RETURN(
      StorageReply reply,
      server_->Exchange(StorageRequest::DownloadOf(all)));
  DPSTORE_RETURN_IF_ERROR(cipher_.DecryptBatch(reply.blocks));
  const BlockView target = crypto::Cipher::Body(reply.blocks[id]);
  Block result(target.begin(), target.end());
  BlockBuffer fresh = BlockBuffer::Uninitialized(
      n_, crypto::Cipher::CiphertextSize(record_size_));
  for (uint64_t i = 0; i < n_; ++i) {
    const BlockView plain = crypto::Cipher::Body(reply.blocks[i]);
    CopyBytes(crypto::Cipher::Body(fresh.Mutable(i)).data(), plain.data(),
              plain.size());
  }
  if (new_value != nullptr) {
    CopyBytes(crypto::Cipher::Body(fresh.Mutable(id)).data(),
              new_value->data(), new_value->size());
  }
  cipher_.EncryptBatch(fresh);
  DPSTORE_RETURN_IF_ERROR(
      server_
          ->Exchange(
              StorageRequest::UploadOf(std::move(all), std::move(fresh)))
          .status());
  return result;
}

StatusOr<Block> LinearOram::Read(BlockId id) { return Access(id, nullptr); }

Status LinearOram::Write(BlockId id, Block value) {
  if (value.size() != record_size_) {
    return InvalidArgumentError("LinearOram::Write size mismatch");
  }
  DPSTORE_ASSIGN_OR_RETURN(Block unused, Access(id, &value));
  (void)unused;
  return OkStatus();
}

StatusOr<std::optional<Block>> LinearOram::QueryRead(BlockId id) {
  DPSTORE_ASSIGN_OR_RETURN(Block value, Read(id));
  return std::optional<Block>(std::move(value));
}

}  // namespace dpstore
