#include "crypto/dpf.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/prg.h"

namespace dpstore {
namespace crypto {
namespace {

using Seed = std::array<uint8_t, kDpfSeedSize>;

/// One GGM node: a seed and its control bit.
struct Node {
  Seed s{};
  uint8_t t = 0;
};

/// Both children of one expanded node.
struct Children {
  Seed left{};
  Seed right{};
  uint8_t t_left = 0;
  uint8_t t_right = 0;
};

/// Nodes handed to ChaCha20Blocks per call by the level-wide expansion:
/// eight full 8-lane groups.
constexpr size_t kGroupNodes = 8 * kChaChaLanes;

ChaChaKey CipherKey(const Seed& seed) {
  ChaChaKey key{};
  std::memcpy(key.data(), seed.data(), kDpfSeedSize);
  return key;
}

/// The length-doubling PRG's output split into child seeds and bits.
Children ChildrenOf(const uint8_t block[kChaChaBlockSize]) {
  Children c;
  std::memcpy(c.left.data(), block, kDpfSeedSize);
  std::memcpy(c.right.data(), block + kDpfSeedSize, kDpfSeedSize);
  c.t_left = block[2 * kDpfSeedSize] & 1;
  c.t_right = block[2 * kDpfSeedSize + 1] & 1;
  return c;
}

/// The length-doubling PRG: one ChaCha20 block keyed by the node seed
/// (zero-padded to the 32-byte cipher key), zero nonce, counter 0.
Children Expand(const Seed& seed) {
  const ChaChaNonce nonce{};  // all-zero: the seed is fresh per node
  uint8_t block[kChaChaBlockSize];
  ChaCha20Block(CipherKey(seed), nonce, 0, block);
  return ChildrenOf(block);
}

/// The leaf conversion: the same key and nonce at counter 1, so the output
/// bits never reuse keystream that Expand turned into seeds or bits.
void Convert(const Seed& seed, uint8_t out[kDpfLeafBytes]) {
  static_assert(kDpfLeafBytes == kChaChaBlockSize);
  const ChaChaNonce nonce{};
  ChaCha20Block(CipherKey(seed), nonce, 1, out);
}

/// Expand (counter 0) or Convert (counter 1) for nodes[0, count), count <=
/// kGroupNodes, in one ChaCha20Blocks call: one lane per node, each keyed
/// by its own seed. Block j lands at out[64 j, 64 j + 64).
void NodeBlocks(const Node* nodes, size_t count, uint32_t counter,
                uint8_t* out) {
  static constexpr ChaChaNonce kZeroNonce{};
  ChaChaKey keys[kGroupNodes];
  ChaChaLane lanes[kGroupNodes];
  for (size_t j = 0; j < count; ++j) {
    keys[j] = CipherKey(nodes[j].s);
    lanes[j] = {keys[j].data(), kZeroNonce.data(), counter};
  }
  ChaCha20Blocks(lanes, count, out);
}

/// Applies the output correction word to a converted leaf block when the
/// leaf's control bit is set.
void CorrectLeaf(const DpfKey& key, uint8_t t, uint8_t block[kDpfLeafBytes]) {
  if (!t) return;
  for (size_t i = 0; i < kDpfLeafBytes; ++i) {
    block[i] = static_cast<uint8_t>(block[i] ^ key.output_cw[i]);
  }
}

/// One party's output block at a leaf: Convert(s), corrected when t = 1.
void LeafBlock(const DpfKey& key, const Node& leaf,
               uint8_t out[kDpfLeafBytes]) {
  Convert(leaf.s, out);
  CorrectLeaf(key, leaf.t, out);
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void XorSeed(Seed& dst, const Seed& src) {
  for (size_t i = 0; i < kDpfSeedSize; ++i) {
    dst[i] = static_cast<uint8_t>(dst[i] ^ src[i]);
  }
}

/// Corrects the children `c` of a node with control bit `t` by `cw`,
/// returning (left child, right child) as full Nodes.
inline void Correct(Children c, uint8_t t, const DpfKey::CorrectionWord& cw,
                    Node* left, Node* right) {
  if (t) {
    XorSeed(c.left, cw.seed);
    XorSeed(c.right, cw.seed);
    c.t_left = static_cast<uint8_t>(c.t_left ^ cw.t_left);
    c.t_right = static_cast<uint8_t>(c.t_right ^ cw.t_right);
  }
  left->s = c.left;
  left->t = c.t_left;
  right->s = c.right;
  right->t = c.t_right;
}

/// Expands `node` one level down with correction word `cw`.
inline void Step(const Node& node, const DpfKey::CorrectionWord& cw,
                 Node* left, Node* right) {
  Correct(Expand(node.s), node.t, cw, left, right);
}

/// Step over a whole level: cur[0, count) into next[0, 2 count), the PRG
/// blocks kGroupNodes nodes at a time.
void ExpandLevel(const Node* cur, size_t count,
                 const DpfKey::CorrectionWord& cw, Node* next) {
  uint8_t blocks[kGroupNodes * kChaChaBlockSize];
  for (size_t first = 0; first < count; first += kGroupNodes) {
    const size_t m = std::min(kGroupNodes, count - first);
    NodeBlocks(cur + first, m, /*counter=*/0, blocks);
    for (size_t j = 0; j < m; ++j) {
      const size_t k = first + j;
      Correct(ChildrenOf(blocks + j * kChaChaBlockSize), cur[k].t, cw,
              &next[2 * k], &next[2 * k + 1]);
    }
  }
}

Seed RandomSeed() {
  Seed s;
  SystemRandomBytes(s.data(), s.size());
  return s;
}

Status CheckKey(const DpfKey& key) {
  if (key.depth < 1 || key.depth > kMaxDpfDepth) {
    return InvalidArgumentError("dpf: depth out of range");
  }
  if (key.cw.size() != DpfTreeLevels(key.depth)) {
    return InvalidArgumentError("dpf: correction word count != tree levels");
  }
  return OkStatus();
}

}  // namespace

std::vector<uint8_t> DpfKey::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(DpfKeyBytes(depth));
  out.push_back('D');
  out.push_back('P');
  out.push_back('F');
  out.push_back('2');
  out.push_back(party);
  out.push_back(depth);
  out.push_back(0);
  out.push_back(0);
  out.insert(out.end(), root_seed.begin(), root_seed.end());
  out.push_back(static_cast<uint8_t>(root_t & 1));
  for (const CorrectionWord& c : cw) {
    out.insert(out.end(), c.seed.begin(), c.seed.end());
    out.push_back(static_cast<uint8_t>((c.t_left & 1) | ((c.t_right & 1) << 1)));
  }
  out.insert(out.end(), output_cw.begin(), output_cw.end());
  return out;
}

StatusOr<DpfKey> DpfKey::Parse(const uint8_t* data, size_t len) {
  if (data == nullptr || len < 8) {
    return InvalidArgumentError("dpf: key truncated");
  }
  if (data[0] != 'D' || data[1] != 'P' || data[2] != 'F') {
    return InvalidArgumentError("dpf: bad key magic");
  }
  if (data[3] == '1') {
    return InvalidArgumentError("dpf: DPF1 keys are no longer accepted");
  }
  if (data[3] != '2') return InvalidArgumentError("dpf: bad key magic");
  DpfKey key;
  key.party = data[4];
  key.depth = data[5];
  if (key.party > 1) return InvalidArgumentError("dpf: bad party");
  if (key.depth < 1 || key.depth > kMaxDpfDepth) {
    return InvalidArgumentError("dpf: depth out of range");
  }
  if (data[6] != 0 || data[7] != 0) {
    return InvalidArgumentError("dpf: bad reserved bytes");
  }
  if (len != DpfKeyBytes(key.depth)) {
    return InvalidArgumentError("dpf: key length does not match depth");
  }
  std::memcpy(key.root_seed.data(), data + 8, kDpfSeedSize);
  const uint8_t root_t = data[24];
  if (root_t > 1) return InvalidArgumentError("dpf: bad control bit");
  key.root_t = root_t;
  key.cw.resize(DpfTreeLevels(key.depth));
  const uint8_t* p = data + 25;
  for (size_t i = 0; i < key.cw.size(); ++i) {
    std::memcpy(key.cw[i].seed.data(), p, kDpfSeedSize);
    const uint8_t bits = p[kDpfSeedSize];
    if (bits > 3) return InvalidArgumentError("dpf: bad control bits");
    key.cw[i].t_left = bits & 1;
    key.cw[i].t_right = (bits >> 1) & 1;
    p += kDpfSeedSize + 1;
  }
  std::memcpy(key.output_cw.data(), p, kDpfLeafBytes);
  return key;
}

StatusOr<DpfKeyPair> DpfGen(uint64_t alpha, uint8_t depth) {
  if (depth < 1 || depth > kMaxDpfDepth) {
    return InvalidArgumentError("dpf: depth out of range");
  }
  if (depth < 64 && alpha >= (uint64_t{1} << depth)) {
    return InvalidArgumentError("dpf: alpha outside the domain");
  }
  DpfKeyPair pair;
  pair.key0.party = 0;
  pair.key1.party = 1;
  pair.key0.depth = depth;
  pair.key1.depth = depth;
  pair.key0.root_seed = RandomSeed();
  pair.key1.root_seed = RandomSeed();
  pair.key0.root_t = 0;
  pair.key1.root_t = 1;
  const uint8_t levels = DpfTreeLevels(depth);
  pair.key0.cw.resize(levels);

  Seed s0 = pair.key0.root_seed;
  Seed s1 = pair.key1.root_seed;
  uint8_t t0 = 0;
  uint8_t t1 = 1;
  for (uint8_t i = 0; i < levels; ++i) {
    const Children c0 = Expand(s0);
    const Children c1 = Expand(s1);
    // MSB-first walk: level i consumes bit (depth - 1 - i) of alpha.
    const uint8_t a = static_cast<uint8_t>((alpha >> (depth - 1 - i)) & 1);
    const Seed& lose0 = a ? c0.left : c0.right;
    const Seed& lose1 = a ? c1.left : c1.right;
    DpfKey::CorrectionWord cw;
    cw.seed = lose0;
    XorSeed(cw.seed, lose1);
    // The control-bit corrections force the parties' bits to differ on
    // the special path and agree off it.
    cw.t_left = static_cast<uint8_t>(c0.t_left ^ c1.t_left ^ a ^ 1);
    cw.t_right = static_cast<uint8_t>(c0.t_right ^ c1.t_right ^ a);
    pair.key0.cw[i] = cw;

    const Seed& keep0 = a ? c0.right : c0.left;
    const Seed& keep1 = a ? c1.right : c1.left;
    const uint8_t tk0 = a ? c0.t_right : c0.t_left;
    const uint8_t tk1 = a ? c1.t_right : c1.t_left;
    const uint8_t tcw_keep = a ? cw.t_right : cw.t_left;

    Seed next0 = keep0;
    if (t0) XorSeed(next0, cw.seed);
    const uint8_t nt0 = static_cast<uint8_t>(tk0 ^ (t0 ? tcw_keep : 0));
    Seed next1 = keep1;
    if (t1) XorSeed(next1, cw.seed);
    const uint8_t nt1 = static_cast<uint8_t>(tk1 ^ (t1 ? tcw_keep : 0));
    s0 = next0;
    t0 = nt0;
    s1 = next1;
    t1 = nt1;
  }
  // t0 ^ t1 = 1 at alpha's leaf, so exactly one party applies output_cw
  // there and the blocks XOR to the unit vector at alpha's in-leaf offset.
  uint8_t c0[kDpfLeafBytes];
  uint8_t c1[kDpfLeafBytes];
  Convert(s0, c0);
  Convert(s1, c1);
  for (size_t i = 0; i < kDpfLeafBytes; ++i) {
    pair.key0.output_cw[i] = static_cast<uint8_t>(c0[i] ^ c1[i]);
  }
  const uint64_t pos = alpha & (kDpfLeafBytes * 8 - 1);
  pair.key0.output_cw[pos >> 3] ^= static_cast<uint8_t>(1u << (pos & 7));
  // Correction words are shared.
  pair.key1.cw = pair.key0.cw;
  pair.key1.output_cw = pair.key0.output_cw;
  return pair;
}

std::vector<uint64_t> DpfEvalFull(const DpfKey& key) {
  const Status check = CheckKey(key);
  if (!check.ok()) return {};
  const uint8_t levels = DpfTreeLevels(key.depth);
  const uint64_t n = uint64_t{1} << key.depth;
  std::vector<uint64_t> out((n + 63) / 64, 0);

  // Below kDpfLeafLevels the single leaf block covers the whole domain:
  // keep its first n bits and leave the rest of the word vector zero.
  const uint64_t leaf_bits = std::min<uint64_t>(n, kDpfLeafBytes * 8);
  const size_t leaf_words = static_cast<size_t>((leaf_bits + 63) / 64);
  const uint64_t last_mask =
      leaf_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << leaf_bits) - 1;
  // Converts leaves[0, count), numbered from first_leaf, kGroupNodes at a
  // time, and packs them into the word vector.
  auto emit = [&](const Node* leaves, size_t count, uint64_t first_leaf) {
    uint8_t blocks[kGroupNodes * kDpfLeafBytes];
    for (size_t first = 0; first < count; first += kGroupNodes) {
      const size_t m = std::min(kGroupNodes, count - first);
      NodeBlocks(leaves + first, m, /*counter=*/1, blocks);
      for (size_t j = 0; j < m; ++j) {
        uint8_t* block = blocks + j * kDpfLeafBytes;
        CorrectLeaf(key, leaves[first + j].t, block);
        uint64_t* dst =
            out.data() + (first_leaf + first + j) * (kDpfLeafBytes / 8);
        for (size_t w = 0; w < leaf_words; ++w) {
          dst[w] = LoadLe64(block + 8 * w);
        }
        dst[leaf_words - 1] &= last_mask;
      }
    }
  };

  // Split the tree into a top section expanded breadth-first once and a
  // set of bottom subtrees expanded one at a time, so the live node set
  // is bounded (~2^kSubDepth seeds) however deep the tree is.
  constexpr uint8_t kSubDepth = 12;
  const uint8_t split = levels > kSubDepth ? levels - kSubDepth : 0;

  std::vector<Node> top(1);
  top[0].s = key.root_seed;
  top[0].t = key.root_t;
  std::vector<Node> next;
  for (uint8_t level = 0; level < split; ++level) {
    next.resize(top.size() * 2);
    ExpandLevel(top.data(), top.size(), key.cw[level], next.data());
    top.swap(next);
  }

  // Each top node roots a subtree of sub_leaves leaves, numbered
  // left-to-right after the subtrees before it.
  const uint64_t sub_leaves = uint64_t{1} << (levels - split);
  std::vector<Node> cur;
  for (size_t j = 0; j < top.size(); ++j) {
    cur.assign(1, top[j]);
    for (uint8_t level = split; level < levels; ++level) {
      next.resize(cur.size() * 2);
      ExpandLevel(cur.data(), cur.size(), key.cw[level], next.data());
      cur.swap(next);
    }
    emit(cur.data(), cur.size(), j * sub_leaves);
  }
  return out;
}

uint8_t DpfEvalPoint(const DpfKey& key, uint64_t x) {
  if (!CheckKey(key).ok()) return 0;
  const uint8_t levels = DpfTreeLevels(key.depth);
  Node node;
  node.s = key.root_seed;
  node.t = key.root_t;
  Node left, right;
  for (uint8_t i = 0; i < levels; ++i) {
    Step(node, key.cw[i], &left, &right);
    const uint8_t bit = static_cast<uint8_t>((x >> (key.depth - 1 - i)) & 1);
    node = bit ? right : left;
  }
  uint8_t block[kDpfLeafBytes];
  LeafBlock(key, node, block);
  const uint64_t pos = x & (kDpfLeafBytes * 8 - 1);
  return static_cast<uint8_t>((block[pos >> 3] >> (pos & 7)) & 1);
}

}  // namespace crypto
}  // namespace dpstore
