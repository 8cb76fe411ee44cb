// Data-plane kernel microbench: scalar vs SIMD bytes/sec for the three
// storage hot-loop primitives (storage/kernels.h), plus the lane-parallel
// ChaCha20 keystream (crypto/chacha20.h) in ns per 64 B block and a
// Path-ORAM-shaped cipher batch (68 slots of 81 B: encrypt + decrypt, the
// crypto one path read and one path write cost). Every variant the host
// CPU supports is measured on the same buffers, so the BENCH cells record
// both the absolute scan bandwidth and the SIMD speedup the dispatch layer
// buys over the portable baseline (the acceptance bar: SelectXorScan SIMD
// >= 2x scalar, with the scalar fallback bit-identical — the identity is
// tests/kernels_test.cc's job, the throughput is measured here).
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"

#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "storage/block_buffer.h"
#include "storage/kernels.h"
#include "util/random.h"
#include "util/table.h"

namespace dpstore {
namespace {

using kernels::Variant;

// L2-resident working set (512 KiB per buffer): the speedup criterion
// compares instruction throughput, so the pass must not be bound by DRAM
// bandwidth — at multi-MiB sizes every variant converges on the memory
// wall and the ratio collapses toward 1. The arena-scale (DRAM-bound)
// number lives in bench_dpf_pir's scan study instead.
constexpr size_t kBytes = size_t{512} << 10;
constexpr size_t kBlockSize = 1024;
constexpr size_t kBlockCount = kBytes / kBlockSize;

std::vector<uint8_t> RandomBytes(Rng* rng, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<uint8_t>(rng->Uniform(256));
  }
  return bytes;
}

/// Best-of-trials seconds per call of `fn`. Repetitions are calibrated so
/// a trial runs ~50 ms.
template <typename Fn>
double BestSecondsPerPass(const Fn& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm caches and the dispatch
  int reps = 1;
  double best_sec_per_pass = 0.0;
  for (;;) {
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double sec =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (sec >= 0.05 || reps >= (1 << 16)) {
      best_sec_per_pass = sec / reps;
      break;
    }
    reps *= 2;
  }
  for (int trial = 0; trial < 2; ++trial) {
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double sec =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (sec / reps < best_sec_per_pass) best_sec_per_pass = sec / reps;
  }
  return best_sec_per_pass;
}

/// Best-of-trials throughput of `fn` (one pass = `bytes_per_pass` bytes),
/// in GiB/s.
template <typename Fn>
double MeasureGiBs(size_t bytes_per_pass, const Fn& fn) {
  return static_cast<double>(bytes_per_pass) / BestSecondsPerPass(fn) /
         static_cast<double>(size_t{1} << 30);
}

std::vector<Variant> SupportedVariants() {
  std::vector<Variant> variants;
  for (Variant v : {Variant::kScalar, Variant::kSse2, Variant::kAvx2}) {
    if (kernels::VariantSupported(v)) variants.push_back(v);
  }
  return variants;
}

void Run() {
  Rng rng(2026);
  std::vector<uint8_t> src = RandomBytes(&rng, kBytes);
  std::vector<uint8_t> dst = RandomBytes(&rng, kBytes);
  std::vector<uint64_t> bits(kBlockCount / 64);
  for (uint64_t& word : bits) {
    word = (rng.Uniform(uint64_t{1} << 32) << 32) ^
           rng.Uniform(uint64_t{1} << 32);
  }
  std::vector<kernels::CopyRun> runs(kBytes / 256);
  for (size_t k = 0; k < runs.size(); ++k) {
    runs[k] = {dst.data() + k * 256, src.data() + k * 256, 256};
  }

  PrintBanner(std::cout,
              "Data-plane kernels: bytes/sec per variant (512 KiB "
              "L2-resident passes, 1 KiB blocks)");
  TablePrinter table({"kernel", "variant", "GiB/s", "vs scalar"});

  bench::BenchJson xa("kernels_xor_accumulate");
  bench::BenchJson sxs("kernels_select_xor_scan");
  bench::BenchJson cr("kernels_copy_runs");
  for (bench::BenchJson* cell : {&xa, &sxs, &cr}) {
    cell->Metric("bytes_per_pass", kBytes);
    cell->Metric("active_variant",
                 std::string(kernels::VariantName(kernels::ActiveVariant())));
  }
  sxs.Metric("block_size", kBlockSize);

  double scalar_xa = 0, scalar_sxs = 0, scalar_cr = 0;
  double best_simd_sxs = 0;
  for (Variant v : SupportedVariants()) {
    const std::string name = kernels::VariantName(v);
    const double gibs_xa = MeasureGiBs(kBytes, [&] {
      kernels::XorAccumulateVariant(v, dst.data(), src.data(), kBytes);
    });
    std::vector<uint8_t> answer(kBlockSize, 0);
    const double gibs_sxs = MeasureGiBs(kBytes, [&] {
      kernels::SelectXorScanVariant(v, answer.data(), src.data(),
                                    kBlockCount, kBlockSize, bits.data(),
                                    /*bit_offset=*/0);
    });
    const double gibs_cr = MeasureGiBs(kBytes, [&] {
      kernels::CopyRunsVariant(v, runs.data(), runs.size());
    });
    if (v == Variant::kScalar) {
      scalar_xa = gibs_xa;
      scalar_sxs = gibs_sxs;
      scalar_cr = gibs_cr;
    } else if (gibs_sxs > best_simd_sxs) {
      best_simd_sxs = gibs_sxs;
    }
    xa.Metric(name + "_gib_s", gibs_xa);
    sxs.Metric(name + "_gib_s", gibs_sxs);
    cr.Metric(name + "_gib_s", gibs_cr);
    table.AddRow()
        .AddCell("xor_accumulate")
        .AddCell(name)
        .AddDouble(gibs_xa, 2)
        .AddDouble(scalar_xa > 0 ? gibs_xa / scalar_xa : 1.0, 2);
    table.AddRow()
        .AddCell("select_xor_scan")
        .AddCell(name)
        .AddDouble(gibs_sxs, 2)
        .AddDouble(scalar_sxs > 0 ? gibs_sxs / scalar_sxs : 1.0, 2);
    table.AddRow()
        .AddCell("copy_runs")
        .AddCell(name)
        .AddDouble(gibs_cr, 2)
        .AddDouble(scalar_cr > 0 ? gibs_cr / scalar_cr : 1.0, 2);
  }
  if (best_simd_sxs > 0 && scalar_sxs > 0) {
    sxs.Metric("simd_over_scalar", best_simd_sxs / scalar_sxs);
  }
  table.Print(std::cout);
  std::cout << "\nThe dispatched scan (variant "
            << kernels::VariantName(kernels::ActiveVariant())
            << ") is what every kDpfEval and xor_pir answer runs through;\n"
               "DPSTORE_KERNEL=scalar forces the portable row everywhere.\n";
  xa.Emit();
  sxs.Emit();
  cr.Emit();
}

// Keystream lanes per pass: distinct random keys, nonces and counters, as
// a DPF level or a cipher batch feeds them.
constexpr size_t kLanes = 1024;
// The Path ORAM path at n = 2^16, Z = 4: 17 levels x 4 slots of
// flag | id | leaf | 64 B value.
constexpr size_t kPathSlots = 68;
constexpr size_t kPathBody = 81;

void RunChaCha() {
  Rng rng(2027);
  const std::vector<uint8_t> keys =
      RandomBytes(&rng, kLanes * crypto::kChaChaKeySize);
  const std::vector<uint8_t> nonces =
      RandomBytes(&rng, kLanes * crypto::kChaChaNonceSize);
  std::vector<crypto::ChaChaLane> lanes(kLanes);
  for (size_t i = 0; i < kLanes; ++i) {
    lanes[i] = {keys.data() + i * crypto::kChaChaKeySize,
                nonces.data() + i * crypto::kChaChaNonceSize,
                static_cast<uint32_t>(rng.Uniform(uint64_t{1} << 32))};
  }
  std::vector<uint8_t> out(kLanes * crypto::kChaChaBlockSize);

  PrintBanner(std::cout,
              "ChaCha20 keystream: ns per 64 B block (1024 independent "
              "lanes per pass)");
  TablePrinter table({"variant", "ns/block", "vs scalar"});
  bench::BenchJson ks("kernels_chacha20_keystream");
  ks.Metric("lanes", kLanes);
  ks.Metric("active_variant",
            std::string(kernels::VariantName(kernels::ActiveVariant())));
  double scalar_ns = 0;
  for (Variant v : SupportedVariants()) {
    const double ns = 1e9 / kLanes * BestSecondsPerPass([&] {
      crypto::ChaCha20BlocksVariant(v, lanes.data(), kLanes, out.data());
    });
    if (v == Variant::kScalar) scalar_ns = ns;
    ks.Metric(std::string(kernels::VariantName(v)) + "_ns_per_block", ns);
    table.AddRow()
        .AddCell(kernels::VariantName(v))
        .AddDouble(ns, 1)
        .AddDouble(ns > 0 ? scalar_ns / ns : 1.0, 2);
  }
  table.Print(std::cout);

  // The cipher batch one Path ORAM access runs (ReadPath decrypts the
  // path, WritePath encrypts it), against the same slots one call each.
  bench::BenchJson cp("kernels_cipher_path");
  cp.Metric("slots", kPathSlots);
  cp.Metric("body_bytes", kPathBody);
  cp.Metric("active_variant",
            std::string(kernels::VariantName(kernels::ActiveVariant())));
  const crypto::Cipher cipher = crypto::Cipher::WithRandomKey();
  BlockBuffer path = BlockBuffer::Zeroed(
      kPathSlots, crypto::Cipher::CiphertextSize(kPathBody));
  bool ok = true;
  const double batch_us = 1e6 * BestSecondsPerPass([&] {
    cipher.EncryptBatch(path);
    ok = ok && cipher.DecryptBatch(path).ok();
  });
  const double per_slot_us = 1e6 * BestSecondsPerPass([&] {
    for (size_t k = 0; k < kPathSlots; ++k) {
      cipher.EncryptInPlace(path.Mutable(k));
    }
    for (size_t k = 0; k < kPathSlots; ++k) {
      ok = ok && cipher.DecryptInPlace(path.Mutable(k)).ok();
    }
  });
  if (!ok) {
    std::cerr << "cipher_path: a batch failed to decrypt\n";
    std::exit(1);
  }
  cp.Metric("cipher_path_us", batch_us);
  cp.Metric("per_slot_calls_us", per_slot_us);
  std::cout << "\ncipher_path (" << kPathSlots << " slots x " << kPathBody
            << " B, encrypt + decrypt): batch " << batch_us
            << " us, one call per slot " << per_slot_us << " us\n";
  ks.Emit();
  cp.Emit();
}

}  // namespace
}  // namespace dpstore

int main() {
  dpstore::bench::BenchJson json("kernels");
  dpstore::Run();
  dpstore::RunChaCha();
  json.Emit();
  return 0;
}
