// Sample statistics for the benchmark's reports.
//
// Timings are reported as a median plus the highest percentile that has
// at least ten samples beyond it (kMinTailSamples). The metric names in
// BENCHMARK.json fix which percentile a workload publishes; Supports()
// is the check that a run actually collected enough samples for it.
#ifndef RDFBENCH_STATS_H_
#define RDFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace rdfbench {

/// Samples that must lie beyond a reported percentile.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (p in [0, 100]) of `values`, which need not
/// be sorted. Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Median (nearest-rank p50) of `values`.
double Median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// True when n samples leave at least kMinTailSamples beyond the p-th
/// percentile.
bool Supports(size_t n, double p);

/// The highest of 99.9, 99, 90 and 50 that n samples support, or 0 when
/// none is.
double HighestSupportedPercentile(size_t n);

}  // namespace rdfbench

#endif  // RDFBENCH_STATS_H_
