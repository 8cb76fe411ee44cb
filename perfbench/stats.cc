#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace perfbench {

uint64_t NearestRank(uint64_t n, uint32_t bp) {
  if (n == 0) return 0;
  const uint64_t rank = (uint64_t{bp} * n + 9999) / 10000;
  return std::clamp<uint64_t>(rank, 1, n);
}

uint64_t SamplesBeyond(uint64_t n, uint32_t bp) {
  return n - NearestRank(n, bp);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

Summary::Summary(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Summary::mean() const {
  if (sorted_.empty()) return 0.0;
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

std::optional<double> Summary::Quantile(uint32_t bp) const {
  if (sorted_.empty() || SamplesBeyond(count(), bp) < kMinBeyond) {
    return std::nullopt;
  }
  return sorted_[NearestRank(count(), bp) - 1];
}

std::string Summary::Describe(uint32_t bp, double scale) const {
  char label[16];
  if (bp % 100 == 0) {
    std::snprintf(label, sizeof(label), "p%u", bp / 100);
  } else {
    std::snprintf(label, sizeof(label), "p%u", bp / 10);  // p999
  }
  const std::optional<double> q = Quantile(bp);
  char value[48];
  if (q.has_value()) {
    std::snprintf(value, sizeof(value), "%.6g", *q * scale);
  } else {
    std::snprintf(value, sizeof(value), "refused");
  }
  char out[128];
  std::snprintf(out, sizeof(out), "%s=%s (n=%llu, beyond=%llu)", label, value,
                static_cast<unsigned long long>(count()),
                static_cast<unsigned long long>(SamplesBeyond(count(), bp)));
  return out;
}

}  // namespace perfbench
