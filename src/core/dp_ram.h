#ifndef DPSTORE_CORE_DP_RAM_H_
#define DPSTORE_CORE_DP_RAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scheme.h"
#include "crypto/cipher.h"
#include "storage/backend.h"
#include "storage/stash.h"
#include "util/random.h"
#include "util/statusor.h"

namespace dpstore {

/// Options for the Section 6 DP-RAM (Algorithms 2-3).
struct DpRamOptions {
  /// Independent probability p that a record enters the client stash per
  /// setup / per overwrite phase. The paper requires p <= Phi(n)/n for
  /// Phi(n) = omega(log n); DefaultStashProbability() below computes that.
  /// Larger p means a bigger stash and (by Lemmas 6.4/6.5, bounds ~ n/p)
  /// a smaller privacy budget.
  double stash_probability = 0.0;
  /// Seed for the scheme's coins (stash draws, dummy indices).
  uint64_t seed = 1234;
  /// When false, the scheme runs the paper's retrieval-only mode: the
  /// database is stored in plaintext, Write() is rejected, and the
  /// overwrite phase is skipped entirely. This variant needs no
  /// computational assumptions (Section 6, "Discussion about encryption").
  bool encrypted = true;
  /// Storage behind the scheme; null means an in-memory StorageServer.
  BackendFactory backend_factory = nullptr;
};

/// Returns the paper's default p = Phi(n)/n with Phi(n) = ceil(log2(n)^1.5)
/// (any omega(log n) function works; this one keeps the stash tiny while
/// satisfying Lemma D.1's negligible-overflow requirement).
double DefaultStashProbability(uint64_t n);

/// Differentially private RAM (Section 6, Algorithms 2-3).
///
/// Server state: array A of n ciphertexts (or plaintexts in retrieval-only
/// mode). Client state: decryption key + a stash holding each record
/// independently with probability p.
///
/// Each query makes exactly 2 downloads and 1 upload (3 block operations,
/// 1 roundtrip), independent of n - the O(1) overhead of Theorem 6.1 - and
/// achieves eps = O(log n) (see DpRamEpsilonUpperBound):
///
///  * download phase - if the record is stashed, download a uniformly random
///    array slot as a dummy and serve from the stash; otherwise download the
///    record's slot.
///  * overwrite phase - with probability p put the (possibly updated) record
///    into the stash and re-randomize a uniformly random slot (download,
///    re-encrypt, upload); otherwise write the record back to its own slot
///    (download-and-discard, then upload a fresh ciphertext).
///
/// Both downloads of a query are issued as one batched exchange, so the
/// whole query is a single roundtrip plus a fire-and-forget write-back.
class DpRam : public RamScheme {
 public:
  /// Builds the client and an internally owned server for `database`
  /// (record sizes must all match). This is the paper's Setup: uploads
  /// Enc(K, B_i) for all i and populates the stash.
  DpRam(std::vector<Block> database, DpRamOptions options);

  /// Retrieves the current version of record `index`.
  StatusOr<Block> Read(BlockId index);

  /// Overwrites record `index` with `value` (same size as setup records).
  /// Rejected (FailedPrecondition) in retrieval-only mode.
  Status Write(BlockId index, Block value);

  uint64_t n() const override { return n_; }
  size_t record_size() const override { return record_size_; }

  // RamScheme interface. Through the unified surface, retrieval-only mode
  // reports the standard "no write repertoire" (Unimplemented) like every
  // other read-only scheme; the direct Write() keeps its sharper
  // FailedPrecondition diagnosis.
  StatusOr<std::optional<Block>> QueryRead(BlockId id) override;
  Status QueryWrite(BlockId id, Block value) override {
    if (!options_.encrypted) {
      return UnimplementedError(
          "retrieval-only DP-RAM has no write repertoire");
    }
    return Write(id, std::move(value));
  }
  bool SupportsWrite() const override { return options_.encrypted; }
  TransportStats TransportTotals() const override { return server_->Stats(); }

  double stash_probability() const { return options_.stash_probability; }
  size_t stash_size() const { return stash_.size(); }
  size_t stash_peak_size() const { return stash_.peak_size(); }
  /// eps upper bound for this configuration (Theorem 6.1 wrap-up).
  double epsilon_upper_bound() const;
  /// Exactly 3 in read-write mode; 1 or 2 in retrieval-only mode.
  double BlocksPerQueryExpected() const;

  /// The untrusted storage backend, exposing the adversarial transcript
  /// and supporting fault injection in tests.
  StorageBackend& server() { return *server_; }
  const StorageBackend& server() const { return *server_; }

 private:
  enum class Op { kRead, kWrite };

  StatusOr<Block> Query(BlockId index, Op op, const Block* new_value);

  Status UploadRecord(BlockId index, BlockView record);

  uint64_t n_;
  size_t record_size_;
  DpRamOptions options_;
  std::unique_ptr<StorageBackend> server_;
  std::unique_ptr<crypto::Cipher> cipher_;  // null in retrieval-only mode
  Stash stash_;
  Rng rng_;
};

}  // namespace dpstore

#endif  // DPSTORE_CORE_DP_RAM_H_
