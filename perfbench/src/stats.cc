#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace perfbench {

namespace {

// ceil(q * n) without letting binary rounding of q push an exact product
// (0.9 * 100 = 90.00000000000001) to the next integer.
size_t RankOf(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const double rounded = std::round(exact);
  if (std::fabs(exact - rounded) < 1e-9) return static_cast<size_t>(rounded);
  return static_cast<size_t>(std::ceil(exact));
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = RankOf(samples.size(), q);
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = RankOf(n, q);
  return rank >= n ? 0 : n - rank;
}

size_t SamplesNeeded(double q, size_t beyond) {
  // SamplesBeyond is monotone in n; the answer is near beyond / (1 - q).
  size_t n = static_cast<size_t>(static_cast<double>(beyond) / (1.0 - q));
  while (n > 0 && SamplesBeyond(n - 1, q) >= beyond) --n;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

bool TailSupported(size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double ChunkedPercentile(const std::vector<double>& samples, size_t chunk,
                         double q) {
  if (chunk == 0 || samples.size() < 2 * chunk) return Percentile(samples, q);
  std::vector<double> tails;
  for (size_t begin = 0; begin + chunk <= samples.size(); begin += chunk) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(begin);
    tails.push_back(Percentile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(chunk)),
        q));
  }
  return Median(tails);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
