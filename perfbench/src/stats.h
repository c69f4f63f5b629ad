#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it (q in (0, 1]). Sorts a copy; 0 for an empty sample.
/// Unlike common/stats.h's interpolating Percentile, the result is always
/// a measured sample, which the ten-beyond rule counts from, and a failed
/// request's +infinity never blends into a finite tail.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples:
/// n - ceil(q*n).
size_t SamplesBeyond(size_t n, double q);

/// Smallest sample count whose q-percentile has at least `beyond`
/// samples past it (the "ten samples beyond" rule: q = 0.99 needs 1000,
/// q = 0.9 needs 100).
size_t SamplesNeeded(double q, size_t beyond);

/// True when the q-percentile of n samples has at least ten beyond it —
/// the rule every reported tail percentile of this benchmark meets.
bool TailSupported(size_t n, double q);

double Mean(const std::vector<double>& samples);

/// The q-percentile as the median over consecutive chunks of `chunk`
/// samples (in their order) of each chunk's q-percentile; a trailing
/// partial chunk is dropped unless it is the only one. A burst of slow
/// samples moves one chunk's tail, not the result.
double ChunkedPercentile(const std::vector<double>& samples, size_t chunk,
                         double q);

/// Median of a small set of repeated measurements (setup times).
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
