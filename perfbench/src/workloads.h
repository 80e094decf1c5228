// The four workloads of the end-to-end benchmark (see perfbench/README.md):
//
//   query  closed-loop DeepJoin::Search, then SearchBatch on a pool
//   serve  the same PLM+HNSW searcher behind serve::QueryService, open loop
//          at a fixed rate, then closed-loop saturation
//   churn  live durable mode (OpenLive): one writer adding/removing columns
//          beside one reader
//   scan   fastText + flat backend behind QueryService (shared-scan path)
//
// Each run generates its inputs from the seed, sets the system up several
// times (setup_s is the median), measures for the requested seconds, and
// checks every output outside the timed region.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    ///< scratch space for live-index directories
  std::string spans_path;  ///< the traced run writes its spans here
  unsigned nproc = 1;
};

struct MetricValue {
  double value = 0;
  std::string unit;
};

/// Operations of one phase: attempted = succeeded + refused + expired +
/// failed (any other error).
struct PhaseTally {
  std::string name;
  size_t attempted = 0;
  size_t succeeded = 0;
  size_t refused = 0;
  size_t expired = 0;
  size_t failed = 0;
};

struct RunReport {
  std::map<std::string, MetricValue> metrics;
  std::vector<PhaseTally> phases;
  std::map<std::string, double> info;  ///< sample counts, sizes, rates
  CheckLog checks;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload; false (with a message on stderr) when the system
/// could not be set up at all.
bool RunWorkload(const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
