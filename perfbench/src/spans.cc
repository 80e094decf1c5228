#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(bool enabled, Clock::time_point epoch, size_t reserve)
    : enabled_(enabled), epoch_(epoch) {
  if (enabled_) spans_.reserve(reserve);
}

int SpanLog::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent, uint32_t request) {
  if (!enabled_) return kNoParent;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  spans_.push_back({name, ns(start), ns(end), parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> SpanLog::SelfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanLog::ByName> SpanLog::GroupByName() const {
  std::map<std::string, ByName> out;
  const auto self = SelfNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& g = out[spans_[i].name];
    g.total_us.push_back(
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3);
    g.self_us.push_back(static_cast<double>(self[i]) / 1e3);
  }
  return out;
}

void SpanLog::AppendJson(const std::string& thread, std::string* out) const {
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"thread\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                  "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                  "\"request\":%u}",
                  out->empty() ? "" : ",\n", thread.c_str(), i, s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent, s.request);
    out->append(buf);
  }
}

}  // namespace perfbench
