#include "oram/path_oram.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "crypto/prg.h"

namespace dpstore {

namespace {

constexpr size_t kSlotHeader = 1 + 8 + 8;  // flag + id + leaf

uint64_t CeilLog2(uint64_t x) {
  uint64_t l = 0;
  while ((uint64_t{1} << l) < x) ++l;
  return l;
}

}  // namespace

PathOram::PathOram(std::vector<Block> database, PathOramOptions options)
    : n_(database.size()),
      options_(options),
      cipher_(crypto::RandomChaChaKey()),
      rng_(options.seed) {
  DPSTORE_CHECK_GT(n_, 0u);
  for (const Block& b : database) {
    DPSTORE_CHECK_EQ(b.size(), options_.block_size) << "record size mismatch";
  }
  uint64_t height = CeilLog2(std::max<uint64_t>(n_, 2));
  num_leaves_ = uint64_t{1} << height;
  levels_ = height + 1;
  num_buckets_ = (uint64_t{2} << height) - 1;

  size_t slot_plain = kSlotHeader + options_.block_size;
  server_ = MakeBackend(options_.backend_factory,
                        num_buckets_ * options_.bucket_capacity,
                        crypto::Cipher::CiphertextSize(slot_plain));

  // Initial uniformly random position for every block.
  position_.resize(n_);
  for (uint64_t i = 0; i < n_; ++i) position_[i] = rng_.Uniform(num_leaves_);

  // Place each block into the deepest non-full bucket on its path; the rest
  // start in the stash (rare for Z >= 4).
  std::vector<std::vector<std::tuple<BlockId, uint64_t, Block>>> buckets(
      num_buckets_);
  for (uint64_t i = 0; i < n_; ++i) {
    uint64_t leaf = position_[i];
    bool placed = false;
    for (uint64_t level = levels_; level-- > 0;) {
      uint64_t b = BucketIndex(leaf, level);
      if (buckets[b].size() < options_.bucket_capacity) {
        buckets[b].emplace_back(i, leaf, std::move(database[i]));
        placed = true;
        break;
      }
    }
    if (!placed) {
      stash_[i] = StashEntry{leaf, std::move(database[i])};
    }
  }
  stash_peak_ = stash_.size();

  const uint64_t z_cap = options_.bucket_capacity;
  const Block dummy_payload(options_.block_size, 0);
  std::vector<Block> array = cipher_.EncryptArray(
      num_buckets_ * z_cap, slot_plain,
      [&](size_t slot, MutableBlockView plain) {
        const auto& bucket = buckets[slot / z_cap];
        const size_t z = slot % z_cap;
        if (z < bucket.size()) {
          const auto& [id, leaf, value] = bucket[z];
          StageSlot(plain, true, id, leaf, value);
        } else {
          StageSlot(plain, false, 0, 0, dummy_payload);
        }
      });
  DPSTORE_CHECK_OK(server_->SetArray(std::move(array)));

  // Recursive position map: pack `posmap_pack_` leaves per child block and
  // push the map into a smaller Path ORAM, recursing until the cutoff.
  if (options_.recursive_position_map &&
      n_ > options_.recursion_cutoff &&
      options_.block_size >= 16) {
    posmap_pack_ = options_.block_size / 8;
    uint64_t child_n = (n_ + posmap_pack_ - 1) / posmap_pack_;
    std::vector<Block> child_db(child_n, Block(options_.block_size, 0));
    for (uint64_t i = 0; i < n_; ++i) {
      std::memcpy(child_db[i / posmap_pack_].data() + 8 * (i % posmap_pack_),
                  &position_[i], 8);
    }
    PathOramOptions child_options = options_;
    child_options.seed = rng_.NextUint64();
    posmap_oram_ =
        std::make_unique<PathOram>(std::move(child_db), child_options);
    position_.clear();
    position_.shrink_to_fit();
  }
}

uint64_t PathOram::BucketIndex(uint64_t leaf, uint64_t level) const {
  DPSTORE_CHECK_LT(level, levels_);
  uint64_t height = levels_ - 1;
  return ((uint64_t{1} << level) - 1) + (leaf >> (height - level));
}

void PathOram::StageSlot(MutableBlockView plain, bool occupied, BlockId id,
                         uint64_t leaf, BlockView value) const {
  DPSTORE_CHECK_EQ(value.size(), options_.block_size);
  plain[0] = occupied ? 1 : 0;
  std::memcpy(plain.data() + 1, &id, 8);
  std::memcpy(plain.data() + 9, &leaf, 8);
  CopyBytes(plain.data() + kSlotHeader, value.data(), value.size());
}

StatusOr<uint64_t> PathOram::PosMapGetAndSetDerived(
    BlockId id, const std::function<uint64_t(uint64_t)>& derive) {
  if (posmap_oram_ == nullptr) {
    uint64_t old = position_[id];
    position_[id] = derive(old);
    return old;
  }
  uint64_t offset = 8 * (id % posmap_pack_);
  std::function<Block(const Block&)> update =
      [offset, &derive](const Block& old_block) {
        Block updated = old_block;
        uint64_t old;
        std::memcpy(&old, old_block.data() + offset, 8);
        uint64_t new_leaf = derive(old);
        std::memcpy(updated.data() + offset, &new_leaf, 8);
        return updated;
      };
  DPSTORE_ASSIGN_OR_RETURN(Block old_block,
                           posmap_oram_->Access(id / posmap_pack_, &update));
  uint64_t old;
  std::memcpy(&old, old_block.data() + offset, 8);
  return old;
}

StatusOr<std::optional<PathOram::StashEntry>> PathOram::ReadPath(
    uint64_t leaf, BlockId id) {
  // The whole path travels in one batched exchange: Z(L+1) blocks, a single
  // roundtrip - the hot loop the storage seam exists to batch.
  std::vector<BlockId> slots;
  slots.reserve(levels_ * options_.bucket_capacity);
  for (uint64_t level = 0; level < levels_; ++level) {
    uint64_t bucket = BucketIndex(leaf, level);
    for (uint64_t z = 0; z < options_.bucket_capacity; ++z) {
      slots.push_back(bucket * options_.bucket_capacity + z);
    }
  }
  // The whole path lands in ONE flat reply buffer and is decrypted there
  // in one batch; only the occupied blocks are copied out into the stash
  // (which owns its entries).
  DPSTORE_ASSIGN_OR_RETURN(
      StorageReply reply,
      server_->Exchange(StorageRequest::DownloadOf(std::move(slots))));
  if (reply.blocks.block_size() !=
      crypto::Cipher::CiphertextSize(kSlotHeader + options_.block_size)) {
    return DataLossError("PathOram slot has wrong size");
  }
  DPSTORE_RETURN_IF_ERROR(cipher_.DecryptBatch(reply.blocks));
  std::optional<StashEntry> target;
  for (size_t k = 0; k < reply.blocks.size(); ++k) {
    const BlockView plain = crypto::Cipher::Body(reply.blocks[k]);
    if (plain[0] == 0) continue;  // dummy slot
    BlockId slot_id;
    uint64_t slot_leaf;
    std::memcpy(&slot_id, plain.data() + 1, 8);
    std::memcpy(&slot_leaf, plain.data() + 9, 8);
    StashEntry entry{slot_leaf, ToBlock(plain.subspan(kSlotHeader))};
    if (slot_id == id) {
      target = std::move(entry);
    } else {
      stash_[slot_id] = std::move(entry);
    }
  }
  stash_peak_ = std::max(stash_peak_, stash_.size());
  return target;
}

Status PathOram::WritePath(uint64_t leaf) {
  // Greedy eviction: deepest level first, take any stash blocks whose
  // assigned path shares this bucket. Every slot of the path is staged
  // inside one flat upload payload and the whole payload is encrypted in
  // place in one batch, then travels as one batched fire-and-forget
  // write-back — the Z(L+1) slot ciphertexts never exist as individual
  // vectors.
  const size_t path_slots = levels_ * options_.bucket_capacity;
  std::vector<BlockId> slots;
  slots.reserve(path_slots);
  BlockBuffer encoded = BlockBuffer::Uninitialized(
      path_slots,
      crypto::Cipher::CiphertextSize(kSlotHeader + options_.block_size));
  Block dummy_payload(options_.block_size, 0);
  size_t cursor = 0;
  for (uint64_t level = levels_; level-- > 0;) {
    uint64_t bucket = BucketIndex(leaf, level);
    std::vector<std::pair<BlockId, StashEntry>> chosen;
    for (auto it = stash_.begin();
         it != stash_.end() && chosen.size() < options_.bucket_capacity;) {
      if (BucketIndex(it->second.leaf, level) == bucket) {
        chosen.emplace_back(it->first, std::move(it->second));
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
    for (uint64_t z = 0; z < options_.bucket_capacity; ++z) {
      slots.push_back(bucket * options_.bucket_capacity + z);
      MutableBlockView plain = crypto::Cipher::Body(encoded.Mutable(cursor++));
      if (z < chosen.size()) {
        StageSlot(plain, true, chosen[z].first, chosen[z].second.leaf,
                  chosen[z].second.value);
      } else {
        StageSlot(plain, false, 0, 0, dummy_payload);
      }
    }
  }
  cipher_.EncryptBatch(encoded);
  return server_
      ->Exchange(
          StorageRequest::UploadOf(std::move(slots), std::move(encoded)))
      .status();
}

StatusOr<Block> PathOram::Access(
    BlockId id, const std::function<Block(const Block&)>* update) {
  if (id >= n_) return OutOfRangeError("PathOram::Access id out of range");
  uint64_t height = levels_ - 1;
  uint64_t h = std::min(options_.remap_subtree_height, height);
  // Constrained remap (tunable DP-ORAM): keep the top (height - h) bits of
  // the current leaf and redraw the low h bits, escaping to a fully
  // uniform leaf with remap_escape_probability so the distribution has
  // full support. h = height is the classic uniform remap.
  const bool escape =
      h < height && rng_.Bernoulli(options_.remap_escape_probability);
  uint64_t uniform_leaf = rng_.Uniform(num_leaves_);
  uint64_t low_bits = uniform_leaf & ((uint64_t{1} << h) - 1);
  uint64_t mask = (uint64_t{1} << h) - 1;
  auto derive = [&](uint64_t old) {
    if (escape || h >= height) return uniform_leaf;
    return (old & ~mask) | low_bits;
  };
  DPSTORE_ASSIGN_OR_RETURN(uint64_t old_leaf,
                           PosMapGetAndSetDerived(id, derive));
  uint64_t new_leaf = derive(old_leaf);

  server_->BeginQuery();
  DPSTORE_ASSIGN_OR_RETURN(auto path_hit, ReadPath(old_leaf, id));

  // The block is on the path we just read or already in the stash.
  Block old_value;
  if (path_hit.has_value()) {
    old_value = std::move(path_hit->value);
  } else {
    auto it = stash_.find(id);
    DPSTORE_CHECK(it != stash_.end())
        << "PathOram invariant violated: block " << id
        << " neither on its path nor in the stash";
    old_value = std::move(it->second.value);
    stash_.erase(it);
  }

  Block new_value = update != nullptr ? (*update)(old_value) : old_value;
  DPSTORE_CHECK_EQ(new_value.size(), options_.block_size);
  stash_[id] = StashEntry{new_leaf, std::move(new_value)};
  stash_peak_ = std::max(stash_peak_, stash_.size());

  DPSTORE_RETURN_IF_ERROR(WritePath(old_leaf));
  return old_value;
}

StatusOr<Block> PathOram::Read(BlockId id) { return Access(id, nullptr); }

StatusOr<std::optional<Block>> PathOram::QueryRead(BlockId id) {
  DPSTORE_ASSIGN_OR_RETURN(Block value, Read(id));
  return std::optional<Block>(std::move(value));
}

Status PathOram::Write(BlockId id, Block value) {
  if (value.size() != options_.block_size) {
    return InvalidArgumentError("PathOram::Write size mismatch");
  }
  std::function<Block(const Block&)> update = [&value](const Block&) {
    return value;
  };
  DPSTORE_ASSIGN_OR_RETURN(Block unused, Access(id, &update));
  (void)unused;
  return OkStatus();
}

uint64_t PathOram::BlocksPerAccess() const {
  uint64_t own = 2 * options_.bucket_capacity * levels_;
  return own + (posmap_oram_ != nullptr ? posmap_oram_->BlocksPerAccess() : 0);
}

uint64_t PathOram::RoundtripsPerAccess() const {
  return 1 + recursion_depth();
}

uint64_t PathOram::recursion_depth() const {
  return posmap_oram_ != nullptr ? 1 + posmap_oram_->recursion_depth() : 0;
}

size_t PathOram::TotalStashSize() const {
  size_t total = stash_.size();
  if (posmap_oram_ != nullptr) total += posmap_oram_->TotalStashSize();
  return total;
}

uint64_t PathOram::TotalBlocksMoved() const {
  uint64_t total = server_->transcript().TotalBlocksMoved();
  if (posmap_oram_ != nullptr) total += posmap_oram_->TotalBlocksMoved();
  return total;
}

TransportStats PathOram::TransportTotals() const {
  TransportStats totals = server_->Stats();
  if (posmap_oram_ != nullptr) totals += posmap_oram_->TransportTotals();
  return totals;
}

}  // namespace dpstore
