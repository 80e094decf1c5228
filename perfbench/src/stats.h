// Latency statistics for the end-to-end benchmark: nearest-rank
// percentiles over samples where a missing result (refused or expired
// request) counts as +inf, the "≥10 samples beyond the tail" support rule,
// and open-loop lateness accounting (latency measured from each request's
// due time, generator lag from due time to the actual submit).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kMissing = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the smallest sample with at least p*n samples
/// at or below it (p in (0, 1]). +inf entries sort last, so a missing
/// request lands in the tail. Returns NaN for an empty input.
double Percentile(std::vector<double> samples, double p);

/// How many samples lie strictly beyond the nearest-rank p-th percentile
/// position (n - rank). A tail is reported only with at least 10 beyond.
size_t SamplesBeyond(size_t n, double p);

/// Minimum sample count for which SamplesBeyond(n, p) >= 10.
size_t MinSamplesForTail(double p);

/// One open-loop request as the generator saw it. Times are seconds on
/// one steady clock; `done_s` is kMissing when the request was refused at
/// admission or completed with an error (expired).
struct OpenLoopSample {
  double due_s = 0;
  double submit_s = 0;
  double done_s = kMissing;
};

struct OpenLoopSummary {
  size_t attempted = 0;
  size_t completed = 0;
  size_t missing = 0;
  std::vector<double> latency_ms;  ///< done - due, kMissing when missing
  std::vector<double> lag_ms;      ///< submit - due (generator lateness)
};

/// Latency from due time (so a stalled generator or service charges the
/// wait to every request behind the stall) and generator lag per request.
OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
