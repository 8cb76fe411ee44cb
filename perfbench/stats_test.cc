// Standalone test of the benchmark's percentile routine (stats.h). Exits 1
// on the first failed expectation; run.py runs it after every build.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "stats_test:%d: expectation failed: %s\n", line,
                 what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  // Descending, so the Summary has to sort.
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void TestNearestRank() {
  EXPECT(perfbench::NearestRank(0, 5000) == 0);
  EXPECT(perfbench::NearestRank(1, 5000) == 1);
  EXPECT(perfbench::NearestRank(100, 9900) == 99);   // exact, no rounding up
  EXPECT(perfbench::NearestRank(101, 9900) == 100);  // ceil(99.99)
  EXPECT(perfbench::NearestRank(1000, 9990) == 999);
  EXPECT(perfbench::NearestRank(10, 1) == 1);  // never rank 0
  EXPECT(perfbench::NearestRank(10, 10000) == 10);
  EXPECT(perfbench::SamplesBeyond(1000, 9900) == 10);
  EXPECT(perfbench::SamplesBeyond(1000, 9990) == 1);
}

void TestQuantiles() {
  const perfbench::Summary s(OneTo(1000));
  EXPECT(s.count() == 1000);
  EXPECT(s.mean() == 500.5);
  EXPECT(s.Quantile(5000) == std::optional<double>(500.0));
  EXPECT(s.Quantile(9000) == std::optional<double>(900.0));
  // p99 of 1000 samples: rank 990, exactly 10 beyond -> emitted.
  EXPECT(s.Quantile(9900) == std::optional<double>(990.0));
  // p999 of 1000 samples would be rank 999, one sample beyond: the
  // maximum in disguise, so it is refused.
  EXPECT(!s.Quantile(9990).has_value());

  // 100 samples: p90 rank 90, 10 beyond -> emitted. 99 samples: rank
  // ceil(89.1) = 90, 9 beyond -> refused.
  EXPECT(perfbench::Summary(OneTo(100)).Quantile(9000) ==
         std::optional<double>(90.0));
  EXPECT(!perfbench::Summary(OneTo(99)).Quantile(9000).has_value());

  EXPECT(!perfbench::Summary({}).Quantile(5000).has_value());
  EXPECT(perfbench::Summary({}).mean() == 0.0);
}

void TestDescribe() {
  const perfbench::Summary s(OneTo(1000));
  EXPECT(s.Describe(9900) == "p99=990 (n=1000, beyond=10)");
  EXPECT(s.Describe(9990) == "p999=refused (n=1000, beyond=1)");
  EXPECT(s.Describe(5000, 0.001) == "p50=0.5 (n=1000, beyond=500)");
}

void TestMedian() {
  EXPECT(perfbench::Median({}) == 0.0);
  EXPECT(perfbench::Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

}  // namespace

int main() {
  TestNearestRank();
  TestQuantiles();
  TestDescribe();
  TestMedian();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("stats_test: ok\n");
  return 0;
}
