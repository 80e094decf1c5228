#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

size_t MinSamplesForTail(double p) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < 10) ++n;
  return n;
}

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopSummary s;
  s.attempted = samples.size();
  s.latency_ms.reserve(samples.size());
  s.lag_ms.reserve(samples.size());
  for (const auto& r : samples) {
    s.lag_ms.push_back((r.submit_s - r.due_s) * 1e3);
    if (std::isinf(r.done_s)) {
      ++s.missing;
      s.latency_ms.push_back(kMissing);
    } else {
      ++s.completed;
      s.latency_ms.push_back((r.done_s - r.due_s) * 1e3);
    }
  }
  return s;
}

}  // namespace perfbench
