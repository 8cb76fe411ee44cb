#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample summaries for the deployment benchmark.
//
// Rank rule (nearest rank): the q-quantile of N samples sorted ascending is
// the sample at 1-based rank ceil(q * N). q is given in basis points
// (9900 = p99) so the rank is exact integer arithmetic, never a rounded
// double. The samples "beyond" a quantile are the N - rank samples ranked
// above it. A tail quantile is only emitted when at least kMinBeyond
// samples lie beyond it; otherwise the sample that would be reported is
// essentially the maximum, which says nothing about the tail.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie above a quantile's rank before it is reported.
inline constexpr uint64_t kMinBeyond = 10;

/// 1-based nearest rank of quantile `bp` (basis points, 1..10000) among
/// `n` samples: ceil(bp * n / 10000). 0 when n is 0.
uint64_t NearestRank(uint64_t n, uint32_t bp);

/// Samples ranked above quantile `bp`: n - NearestRank(n, bp).
uint64_t SamplesBeyond(uint64_t n, uint32_t bp);

/// Median of a few values (midpoint of the two middle ones for an even
/// count). A central statistic, so the kMinBeyond rule does not apply;
/// callers report the count beside it. 0 for an empty input.
double Median(std::vector<double> values);

/// A sorted sample set with the nearest-rank quantiles above.
class Summary {
 public:
  explicit Summary(std::vector<double> samples);

  uint64_t count() const { return sorted_.size(); }
  double mean() const;

  /// Quantile `bp` by the nearest-rank rule, or nullopt when fewer than
  /// kMinBeyond samples lie beyond it (or there are no samples).
  std::optional<double> Quantile(uint32_t bp) const;

  /// "p99=0.153 (n=12345, beyond=124)", or "p99=refused (n=.., beyond=..)"
  /// when Quantile(bp) is nullopt. `scale` multiplies the value.
  std::string Describe(uint32_t bp, double scale = 1.0) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
