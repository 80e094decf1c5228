// Span recording for the traced benchmark run. The benchmark's own code
// opens a span around each call into a layer's public API; a span holds
// its name, start, end, parent and request id. Spans stay in memory (one
// log per thread, reserved up front) and are written out when the run
// ends. A span's self time is its duration minus the part of it that its
// child spans cover.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int kNoParent = -1;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  ///< index into this log, or kNoParent
    uint32_t request;
  };

  /// A disabled log records nothing and Begin() returns kNoParent.
  SpanLog(bool enabled, Clock::time_point epoch, size_t reserve = 0);

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (the handle for End and for
  /// children's `parent`).
  int Begin(const char* name, int parent, uint32_t request) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  /// Records an already-finished span (times measured elsewhere, e.g. a
  /// completion callback on another thread).
  int Record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent, uint32_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span in ns (duration minus the union of its
  /// children's intervals), aligned with spans().
  std::vector<int64_t> SelfNs() const;

  /// Self and total durations grouped by span name.
  struct ByName {
    std::vector<double> total_us;
    std::vector<double> self_us;
  };
  std::map<std::string, ByName> GroupByName() const;

  /// Appends this log's spans as JSON objects (comma-separated, no
  /// brackets) tagged with `thread`.
  void AppendJson(const std::string& thread, std::string* out) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
