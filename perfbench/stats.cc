#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailPercentile(std::vector<double> samples, int64_t min_beyond) {
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  std::sort(samples.begin(), samples.end());
  const int64_t n = tail.samples;
  // The rank only grows with p, so the first hit from the top is the
  // highest qualifying percentile.
  for (int p = 99; p >= 1; --p) {
    const int64_t rank = (p * n + 99) / 100;  // ceil(p * n / 100), 1-based
    if (rank >= 1 && n - rank >= min_beyond) {
      tail.percentile = p;
      tail.value = samples[static_cast<size_t>(rank - 1)];
      tail.beyond = n - rank;
      return tail;
    }
  }
  return tail;
}

}  // namespace perfbench
