#ifndef DPSTORE_ORAM_PATH_ORAM_H_
#define DPSTORE_ORAM_PATH_ORAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/scheme.h"
#include "crypto/cipher.h"
#include "storage/backend.h"
#include "util/random.h"
#include "util/statusor.h"

namespace dpstore {

/// Options for PathOram.
struct PathOramOptions {
  /// Payload bytes per logical block.
  size_t block_size = 64;
  /// Blocks per tree bucket (the classic Z; 4 keeps the stash tiny).
  uint64_t bucket_capacity = 4;
  uint64_t seed = 31337;
  /// Store the position map recursively in smaller Path ORAMs (as the
  /// DP-RAM-from-Path-ORAM construction of Wagh et al. [50] must, and as
  /// the paper's related-work critique highlights: it costs Theta(log n)
  /// client-server roundtrips). When false the position map lives on the
  /// client (n words).
  bool recursive_position_map = false;
  /// Recursion stops when a level's entry count drops to this cutoff; the
  /// final map is kept client-side.
  uint64_t recursion_cutoff = 256;
  /// Remap locality knob for the Wagh et al. [50]-style *tunable* DP-ORAM
  /// (see TunableDpOram): on access the block's new leaf is drawn uniformly
  /// from the height-`remap_subtree_height` subtree containing its current
  /// leaf. The default (>= tree height) is the standard uniform remap =
  /// fully oblivious Path ORAM; 0 pins blocks to their leaves (no privacy).
  /// Bandwidth is unchanged - only privacy degrades - which is exactly the
  /// trade-off the paper contrasts DP-RAM against.
  uint64_t remap_subtree_height = ~uint64_t{0};
  /// With this probability a constrained remap escapes to a fully uniform
  /// leaf, giving the position distribution full support (finite epsilon),
  /// mirroring [50]'s non-uniform path distributions. Ignored when the
  /// remap is unconstrained.
  double remap_escape_probability = 0.125;
  /// Storage behind this ORAM (and its recursive position-map children);
  /// null means an in-memory StorageServer.
  BackendFactory backend_factory = nullptr;
};

/// Path ORAM (Stefanov et al., CCS 2013) - the fully oblivious baseline the
/// paper positions DP-RAM against (experiment E5). Standard binary-tree
/// layout with Z-block buckets, a client stash, and greedy path eviction.
/// Every access moves 2 Z (L+1) blocks (read path + write path) where
/// L = ceil(log2 n), i.e. Theta(log n) overhead vs DP-RAM's 3 blocks.
///
/// The path fetch is one batched download and the eviction one batched
/// write-back, so an access is exactly 1 roundtrip (plus one per recursive
/// position-map level) - the property the roundtrip accounting asserts.
class PathOram : public RamScheme {
 public:
  /// Builds the ORAM over `database` (equal-sized records).
  PathOram(std::vector<Block> database, PathOramOptions options);

  StatusOr<Block> Read(BlockId id);
  Status Write(BlockId id, Block value);

  // RamScheme interface.
  uint64_t n() const override { return n_; }
  size_t record_size() const override { return options_.block_size; }
  StatusOr<std::optional<Block>> QueryRead(BlockId id) override;
  Status QueryWrite(BlockId id, Block value) override {
    return Write(id, std::move(value));
  }
  bool SupportsWrite() const override { return true; }
  /// Sums this ORAM's backend with all recursive position-map children.
  TransportStats TransportTotals() const override;

  /// Tree levels = L + 1.
  uint64_t levels() const { return levels_; }
  uint64_t bucket_capacity() const { return options_.bucket_capacity; }
  /// Blocks moved per access: 2 Z (L+1), plus recursion if enabled.
  uint64_t BlocksPerAccess() const;
  /// Client-server roundtrips per access: 1 + recursion depth.
  uint64_t RoundtripsPerAccess() const;
  uint64_t recursion_depth() const;

  size_t stash_size() const { return stash_.size(); }
  size_t stash_peak_size() const { return stash_peak_; }
  /// Total stash blocks including recursive position-map ORAMs.
  size_t TotalStashSize() const;

  StorageBackend& server() { return *server_; }
  const StorageBackend& server() const { return *server_; }

  /// Total blocks moved across this ORAM and all recursive children.
  uint64_t TotalBlocksMoved() const;

 private:
  struct StashEntry {
    uint64_t leaf;
    Block value;
  };

  /// Read-modify-write: fetches the path for `id`, applies `update` to the
  /// current value (nullopt if the id was never written - cannot happen
  /// after setup), remaps the block, evicts. The workhorse for Read, Write
  /// and recursive position-map updates.
  StatusOr<Block> Access(BlockId id,
                         const std::function<Block(const Block&)>* update);

  /// Position-map read-modify-write: replaces id's leaf with
  /// `derive(old_leaf)` and returns the old leaf. One roundtrip per
  /// recursion level. The derived form (rather than get-then-set) keeps the
  /// recursive update a single child access even when the new leaf depends
  /// on the old one (constrained remap).
  StatusOr<uint64_t> PosMapGetAndSetDerived(
      BlockId id, const std::function<uint64_t(uint64_t)>& derive);

  uint64_t BucketIndex(uint64_t leaf, uint64_t level) const;
  StatusOr<std::optional<StashEntry>> ReadPath(uint64_t leaf, BlockId id);
  Status WritePath(uint64_t leaf);

  /// Writes the plaintext slot layout (flag | id | leaf | value) into
  /// `plain`, the body of a ciphertext-sized slot (Cipher::Body) inside
  /// the payload that is then encrypted in one batch. Slots carry their
  /// block's current leaf so eviction works without position-map lookups
  /// (required once the position map is recursive).
  void StageSlot(MutableBlockView plain, bool occupied, BlockId id,
                 uint64_t leaf, BlockView value) const;

  uint64_t n_;
  PathOramOptions options_;
  uint64_t num_leaves_;
  uint64_t levels_;        // L + 1
  uint64_t num_buckets_;
  std::unique_ptr<StorageBackend> server_;
  crypto::Cipher cipher_;
  Rng rng_;

  // Client position map (empty when recursive), or recursive child.
  std::vector<uint64_t> position_;
  std::unique_ptr<PathOram> posmap_oram_;
  uint64_t posmap_pack_ = 0;  // entries per child block

  std::unordered_map<BlockId, StashEntry> stash_;
  size_t stash_peak_ = 0;
};

}  // namespace dpstore

#endif  // DPSTORE_ORAM_PATH_ORAM_H_
