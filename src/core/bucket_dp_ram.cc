#include "core/bucket_dp_ram.h"

#include <algorithm>

#include "core/dp_ram.h"
#include "crypto/prg.h"

namespace dpstore {

BucketDpRam::BucketDpRam(std::vector<std::vector<NodeId>> buckets,
                         uint64_t num_nodes, size_t node_size,
                         BucketDpRamOptions options)
    : buckets_(std::move(buckets)),
      num_nodes_(num_nodes),
      node_size_(node_size),
      options_(options),
      cipher_(crypto::RandomChaChaKey()),
      rng_(options.seed) {
  DPSTORE_CHECK(!buckets_.empty());
  DPSTORE_CHECK_GT(num_nodes_, 0u);
  // Privacy requires a homogeneous repertoire: every bucket moves the same
  // number of nodes, so bucket identity cannot leak through transcript size.
  const size_t arity = buckets_[0].size();
  for (const auto& bucket : buckets_) {
    DPSTORE_CHECK_EQ(bucket.size(), arity) << "buckets must have equal size";
    for (NodeId node : bucket) DPSTORE_CHECK_LT(node, num_nodes_);
  }
  if (options_.stash_probability <= 0.0) {
    options_.stash_probability = DefaultStashProbability(buckets_.size());
  }
  DPSTORE_CHECK_LE(options_.stash_probability, 1.0);
  server_ = MakeBackend(options_.backend_factory, num_nodes_,
                        crypto::Cipher::CiphertextSize(node_size_));
}

Status BucketDpRam::Setup(const std::vector<Block>& node_plaintexts) {
  if (node_plaintexts.size() != num_nodes_) {
    return InvalidArgumentError("Setup: wrong node count");
  }
  for (const Block& node : node_plaintexts) {
    if (node.size() != node_size_) {
      return InvalidArgumentError("Setup: node size mismatch");
    }
  }
  return server_->SetArray(cipher_.EncryptArray(
      num_nodes_, node_size_, [&](size_t i, MutableBlockView plain) {
        CopyBytes(plain.data(), node_plaintexts[i].data(), node_size_);
      }));
}

Status BucketDpRam::SetupZero() {
  return Setup(std::vector<Block>(num_nodes_, ZeroBlock(node_size_)));
}

StatusOr<std::vector<Block>> BucketDpRam::ReadBucket(uint64_t bucket) {
  return Query(bucket, nullptr);
}

Status BucketDpRam::WriteBucket(uint64_t bucket, const MutateFn& mutate) {
  DPSTORE_ASSIGN_OR_RETURN(std::vector<Block> unused, Query(bucket, &mutate));
  (void)unused;
  return OkStatus();
}

void BucketDpRam::StashBucket(uint64_t bucket,
                              const std::vector<Block>& content) {
  stashed_buckets_.insert(bucket);
  peak_stashed_ = std::max(peak_stashed_, stashed_buckets_.size());
  const auto& nodes = buckets_[bucket];
  for (size_t k = 0; k < nodes.size(); ++k) {
    overlay_[nodes[k]] = content[k];
    ++overlay_refcount_[nodes[k]];
  }
}

std::vector<Block> BucketDpRam::UnstashBucket(uint64_t bucket) {
  const auto& nodes = buckets_[bucket];
  std::vector<Block> content(nodes.size());
  for (size_t k = 0; k < nodes.size(); ++k) {
    auto it = overlay_.find(nodes[k]);
    DPSTORE_CHECK(it != overlay_.end())
        << "stashed bucket " << bucket << " missing overlay node "
        << nodes[k];
    content[k] = it->second;
    auto rc = overlay_refcount_.find(nodes[k]);
    DPSTORE_CHECK(rc != overlay_refcount_.end());
    if (--rc->second == 0) {
      overlay_refcount_.erase(rc);
      overlay_.erase(it);
    }
  }
  stashed_buckets_.erase(bucket);
  return content;
}

StatusOr<Block> BucketDpRam::PeekNode(NodeId node) const {
  DPSTORE_CHECK_LT(node, num_nodes_);
  auto it = overlay_.find(node);
  if (it != overlay_.end()) return it->second;
  return cipher_.Decrypt(server_->PeekBlock(node));
}

StatusOr<std::vector<Block>> BucketDpRam::Query(uint64_t bucket,
                                                const MutateFn* mutate) {
  if (bucket >= buckets_.size()) {
    return OutOfRangeError("BucketDpRam::Query bucket out of range");
  }
  server_->BeginQuery();
  const auto& nodes = buckets_[bucket];
  const size_t arity = nodes.size();

  // Client-state mutations (stash/overlay) are deferred until all server
  // operations succeed so that a mid-query fault rolls back cleanly (same
  // discipline as DpRam::Query).

  // Both phases' bucket choices depend only on client coins, so the 2s
  // downloads ride one batched exchange (a single roundtrip) and the s
  // uploads one batched write-back.

  // Download phase: the bucket itself, or a uniformly random dummy bucket
  // when the queried bucket is stashed (it is then served from the overlay).
  const bool was_stashed = stashed_buckets_.contains(bucket);
  const uint64_t download_bucket =
      was_stashed ? rng_.Uniform(buckets_.size()) : bucket;
  // Overwrite phase: re-randomize a uniformly random bucket (stash branch)
  // or download-and-discard the bucket's own nodes before the write-back
  // (keeping the transcript shape identical across branches).
  const bool stash_coin = rng_.Bernoulli(options_.stash_probability);
  const uint64_t overwrite_bucket =
      stash_coin ? rng_.Uniform(buckets_.size()) : bucket;

  std::vector<BlockId> download_addrs;
  download_addrs.reserve(2 * arity);
  for (NodeId node : buckets_[download_bucket]) download_addrs.push_back(node);
  for (NodeId node : buckets_[overwrite_bucket])
    download_addrs.push_back(node);
  // Both phases' 2s ciphertexts arrive in one flat reply buffer. The
  // halves this query reads (the queried bucket unless it is stashed, the
  // overwrite bucket when it is re-randomized) are decrypted in place
  // there in one batch; only the bucket's logical content (and the
  // overlay copies) are ever materialized as owned blocks.
  DPSTORE_ASSIGN_OR_RETURN(
      StorageReply reply,
      server_->Exchange(StorageRequest::DownloadOf(download_addrs)));
  const size_t first_read = was_stashed ? arity : 0;
  const size_t end_read = stash_coin ? 2 * arity : arity;
  if (first_read < end_read) {
    DPSTORE_RETURN_IF_ERROR(
        cipher_.DecryptBatch(reply.blocks, first_read, end_read - first_read));
  }

  std::vector<Block> content(arity);
  for (size_t k = 0; k < arity; ++k) {
    // Appendix E: a node shared with a stashed bucket is served from the
    // client copy, not the (stale) server copy. A stashed bucket's nodes
    // are all in the overlay.
    auto it = overlay_.find(nodes[k]);
    if (it != overlay_.end()) {
      content[k] = it->second;
    } else {
      DPSTORE_CHECK(!was_stashed)
          << "stashed bucket " << bucket << " missing overlay node "
          << nodes[k];
      content[k] = ToBlock(crypto::Cipher::Body(reply.blocks[k]));
    }
  }

  if (mutate != nullptr) {
    (*mutate)(&content);
    DPSTORE_CHECK_EQ(content.size(), arity) << "mutate changed bucket arity";
    for (const Block& b : content) DPSTORE_CHECK_EQ(b.size(), node_size_);
  }

  // --- Overwrite phase write-back ---
  // Fresh ciphertexts are staged inside the flat upload payload and
  // encrypted there in one batch: the s-node write-back costs one buffer,
  // not s vectors. The stash branch re-encrypts the overwrite bucket's
  // server copies verbatim (possibly stale; staleness is tracked by the
  // overlay, so that is correct).
  const auto& overwrite_nodes = buckets_[overwrite_bucket];
  BlockBuffer fresh = BlockBuffer::Uninitialized(
      arity, crypto::Cipher::CiphertextSize(node_size_));
  for (size_t k = 0; k < arity; ++k) {
    const BlockView plain =
        stash_coin ? crypto::Cipher::Body(reply.blocks[arity + k])
                   : BlockView(content[k]);
    CopyBytes(crypto::Cipher::Body(fresh.Mutable(k)).data(), plain.data(),
              plain.size());
  }
  cipher_.EncryptBatch(fresh);
  DPSTORE_RETURN_IF_ERROR(
      server_
          ->Exchange(StorageRequest::UploadOf(overwrite_nodes,
                                              std::move(fresh)))
          .status());

  // --- Commit client state ---
  if (stash_coin) {
    // (Re-)stash the bucket with its current content.
    if (was_stashed) {
      for (size_t k = 0; k < arity; ++k) overlay_[nodes[k]] = content[k];
    } else {
      StashBucket(bucket, content);
    }
  } else {
    // The write-back reached the server; update client copies of shared
    // nodes (Appendix E requires the write to reach stashed overlapping
    // buckets), then drop this bucket from the stash.
    for (size_t k = 0; k < arity; ++k) {
      auto it = overlay_.find(nodes[k]);
      if (it != overlay_.end()) it->second = content[k];
    }
    if (was_stashed) UnstashBucket(bucket);
  }
  return content;
}

}  // namespace dpstore
