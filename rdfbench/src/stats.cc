#include "stats.h"

#include <algorithm>
#include <cmath>

namespace rdfbench {

namespace {

/// 0-based index of the nearest-rank p-th percentile among n samples.
size_t RankIndex(size_t n, double p) {
  // The epsilon keeps p * n / 100 from rounding up past an exact rank
  // (99.9 * 10000 / 100 is not exactly 9990 in binary floating point).
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t index = RankIndex(values.size(), p);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

bool Supports(size_t n, double p) { return SamplesBeyond(n, p) >= kMinTailSamples; }

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (Supports(n, p)) return p;
  }
  return 0.0;
}

}  // namespace rdfbench
