#include "core/dp_ram.h"

#include <cmath>

#include "core/dp_params.h"
#include "crypto/prg.h"

namespace dpstore {

double DefaultStashProbability(uint64_t n) {
  DPSTORE_CHECK_GT(n, 0u);
  double log_n = std::log2(static_cast<double>(n) + 1.0);
  double phi = std::ceil(std::pow(log_n, 1.5));
  double p = phi / static_cast<double>(n);
  return p < 1.0 ? p : 1.0;
}

DpRam::DpRam(std::vector<Block> database, DpRamOptions options)
    : n_(database.size()), options_(options), rng_(options.seed) {
  DPSTORE_CHECK_GT(n_, 0u);
  record_size_ = database[0].size();
  for (const Block& b : database) {
    DPSTORE_CHECK_EQ(b.size(), record_size_) << "ragged database";
  }
  if (options_.stash_probability <= 0.0) {
    options_.stash_probability = DefaultStashProbability(n_);
  }
  DPSTORE_CHECK_LE(options_.stash_probability, 1.0);

  size_t server_block_size =
      options_.encrypted ? crypto::Cipher::CiphertextSize(record_size_)
                         : record_size_;
  server_ = MakeBackend(options_.backend_factory, n_, server_block_size);
  if (options_.encrypted) {
    cipher_ = std::make_unique<crypto::Cipher>(crypto::RandomChaChaKey());
  }

  // Algorithm 2 (Setup): A[i] <- Enc(K, B_i); stash each record w.p. p.
  std::vector<Block> array;
  if (options_.encrypted) {
    array = cipher_->EncryptArray(
        n_, record_size_, [&](size_t i, MutableBlockView plain) {
          CopyBytes(plain.data(), database[i].data(), record_size_);
        });
  } else {
    array = database;
  }
  for (uint64_t i = 0; i < n_; ++i) {
    if (rng_.Bernoulli(options_.stash_probability)) {
      stash_.Put(i, database[i]);
    }
  }
  DPSTORE_CHECK_OK(server_->SetArray(std::move(array)));
}

double DpRam::epsilon_upper_bound() const {
  return DpRamEpsilonUpperBound(n_, options_.stash_probability);
}

double DpRam::BlocksPerQueryExpected() const {
  if (options_.encrypted) return 3.0;  // 2 downloads + 1 upload, always
  return 1.0;  // retrieval-only: download phase only
}

Status DpRam::UploadRecord(BlockId index, BlockView record) {
  if (!options_.encrypted) return server_->Upload(index, ToBlock(record));
  // Stage the plaintext inside the upload payload slot and encrypt in
  // place: the record is encrypted exactly once, directly in the exchange
  // buffer, with no intermediate ciphertext vector.
  BlockBuffer payload =
      BlockBuffer::Uninitialized(1, crypto::Cipher::CiphertextSize(
                                        record.size()));
  MutableBlockView slot = payload.Mutable(0);
  CopyBytes(slot.data() + crypto::Cipher::PlaintextOffset(), record.data(),
            record.size());
  cipher_->EncryptInPlace(slot);
  return server_
      ->Exchange(StorageRequest::UploadOf({index}, std::move(payload)))
      .status();
}

StatusOr<Block> DpRam::Read(BlockId index) {
  return Query(index, Op::kRead, nullptr);
}

StatusOr<std::optional<Block>> DpRam::QueryRead(BlockId index) {
  DPSTORE_ASSIGN_OR_RETURN(Block value, Read(index));
  return std::optional<Block>(std::move(value));
}

Status DpRam::Write(BlockId index, Block value) {
  if (!options_.encrypted) {
    return FailedPreconditionError(
        "DpRam configured retrieval-only (encrypted=false)");
  }
  if (value.size() != record_size_) {
    return InvalidArgumentError("Write: record size mismatch");
  }
  DPSTORE_ASSIGN_OR_RETURN(Block unused, Query(index, Op::kWrite, &value));
  (void)unused;
  return OkStatus();
}

StatusOr<Block> DpRam::Query(BlockId index, Op op, const Block* new_value) {
  if (index >= n_) return OutOfRangeError("DpRam::Query index out of range");
  server_->BeginQuery();

  // Client-state mutations (stash insert/remove) are deferred until every
  // server operation has succeeded, so a mid-query server fault rolls back
  // cleanly instead of dropping the only up-to-date copy of a record.

  // Both phases' download addresses depend only on client coins, so the
  // query is one batched download exchange (a single roundtrip) followed by
  // one fire-and-forget upload.

  // --- Download phase address (Algorithm 3) ---
  // If the record is stashed, download a uniformly random slot as a dummy so
  // the access pattern is index-independent in this branch.
  const bool was_stashed = stash_.Contains(index);
  const BlockId download_addr = was_stashed ? rng_.Uniform(n_) : index;

  // Retrieval-only mode skips the overwrite phase entirely (Section 6
  // discussion): no upload, no stash re-insertion, no encryption needed.
  // The stash entry (if any) is consumed, matching Algorithm 3's download
  // phase with the overwrite phase deleted.
  if (!options_.encrypted) {
    DPSTORE_ASSIGN_OR_RETURN(Block raw, server_->Download(download_addr));
    Block current = was_stashed ? *stash_.Get(index) : std::move(raw);
    if (op == Op::kWrite) current = *new_value;
    if (was_stashed) stash_.Take(index);
    return current;
  }

  // --- Overwrite phase address (Algorithm 3) ---
  // Stash branch: re-randomize a uniformly random slot o (which may equal
  // `index`; the stale server copy stays stale, which is fine because the
  // stash copy is authoritative while `index` is stashed). Write-back
  // branch: download-and-discard the record's own slot so the transcript
  // shape is identical across branches.
  const bool stash_coin = rng_.Bernoulli(options_.stash_probability);
  const BlockId overwrite_addr = stash_coin ? rng_.Uniform(n_) : index;

  // One batched exchange; both ciphertexts live in the flat reply buffer
  // and are decrypted IN PLACE there — no per-block vectors anywhere.
  DPSTORE_ASSIGN_OR_RETURN(
      StorageReply reply,
      server_->Exchange(
          StorageRequest::DownloadOf({download_addr, overwrite_addr})));
  Block current;
  if (was_stashed) {
    current = *stash_.Get(index);
  } else {
    DPSTORE_ASSIGN_OR_RETURN(MutableBlockView plain,
                             cipher_->DecryptInPlace(reply.blocks.Mutable(0)));
    current = ToBlock(plain);
  }
  if (op == Op::kWrite) current = *new_value;

  if (stash_coin) {
    // Re-encrypt slot o's server copy with fresh randomness.
    DPSTORE_ASSIGN_OR_RETURN(MutableBlockView plain,
                             cipher_->DecryptInPlace(reply.blocks.Mutable(1)));
    DPSTORE_RETURN_IF_ERROR(UploadRecord(overwrite_addr, plain));
    stash_.Put(index, current);  // commit
  } else {
    // Write the current version back to its own slot (slot 1 discarded).
    DPSTORE_RETURN_IF_ERROR(UploadRecord(overwrite_addr, current));
    if (was_stashed) stash_.Take(index);  // commit removal
  }
  return current;
}

}  // namespace dpstore
