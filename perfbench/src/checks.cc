#include "checks.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

namespace {

bool WithinTolerance(double d, double bound) {
  return d <= bound + 1e-4 * std::max(1.0, std::fabs(bound));
}

}  // namespace

void EmbeddingTable::Add(u32 column_id, const float* vec) {
  row_[column_id] = ids_.size();
  ids_.push_back(column_id);
  rows_.insert(rows_.end(), vec, vec + dim_);
}

double EmbeddingTable::Distance(const float* q, u32 column_id) const {
  const auto it = row_.find(column_id);
  if (it == row_.end()) return std::numeric_limits<double>::infinity();
  const float* row = rows_.data() + it->second * static_cast<size_t>(dim_);
  double sum = 0;
  for (int j = 0; j < dim_; ++j) {
    const double d = static_cast<double>(q[j]) - static_cast<double>(row[j]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

std::vector<EmbeddingTable::Hit> EmbeddingTable::ExactTopK(const float* q,
                                                           size_t k) const {
  std::vector<Hit> all;
  all.reserve(ids_.size());
  for (u32 id : ids_) all.push_back({Distance(q, id), id});
  const size_t m = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(m), all.end(),
                    [](const Hit& a, const Hit& b) {
                      return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
                    });
  all.resize(m);
  return all;
}

std::string CheckIdList(const std::vector<u32>& ids, size_t k,
                        const std::function<bool(u32)>& valid) {
  if (ids.size() != k) {
    return "expected " + std::to_string(k) + " results, got " +
           std::to_string(ids.size());
  }
  std::unordered_set<u32> seen;
  for (u32 id : ids) {
    if (!valid(id)) return "id " + std::to_string(id) + " is not in range";
    if (!seen.insert(id).second) {
      return "id " + std::to_string(id) + " appears twice";
    }
  }
  return "";
}

double RecallByDistance(const EmbeddingTable& table, const float* q,
                        const std::vector<u32>& ids,
                        const std::vector<EmbeddingTable::Hit>& exact) {
  if (exact.empty()) return ids.empty() ? 1.0 : 0.0;
  const double kth = exact.back().dist;
  size_t hits = 0;
  for (u32 id : ids) {
    if (WithinTolerance(table.Distance(q, id), kth)) ++hits;
  }
  return static_cast<double>(std::min(hits, exact.size())) /
         static_cast<double>(exact.size());
}

std::string CheckEqualsExact(const EmbeddingTable& table, const float* q,
                             const std::vector<u32>& ids,
                             const std::vector<EmbeddingTable::Hit>& exact) {
  if (ids.size() != exact.size()) {
    return "expected " + std::to_string(exact.size()) + " results, got " +
           std::to_string(ids.size());
  }
  std::vector<double> got;
  got.reserve(ids.size());
  for (u32 id : ids) got.push_back(table.Distance(q, id));
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < got.size(); ++i) {
    if (!WithinTolerance(got[i], exact[i].dist)) {
      return "rank " + std::to_string(i) + ": distance " +
             std::to_string(got[i]) + " exceeds exact " +
             std::to_string(exact[i].dist);
    }
  }
  return "";
}

std::string CheckNoRemoved(const std::vector<u32>& ids,
                           const std::unordered_map<u32, size_t>& removed_at,
                           size_t watermark) {
  for (u32 id : ids) {
    const auto it = removed_at.find(id);
    if (it != removed_at.end() && it->second < watermark) {
      return "id " + std::to_string(id) +
             " was removed before the search started";
    }
  }
  return "";
}

double PrecisionAtK(const std::vector<u32>& ids,
                    const std::vector<deepjoin::Scored>& exact, size_t k,
                    const std::function<double(u32)>& jn) {
  if (k == 0) return 0.0;
  const double kth = exact.size() >= k ? exact[k - 1].score : 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < ids.size() && i < k; ++i) {
    const double s = jn(ids[i]);
    if (s > 0 && s >= kth - 1e-12) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

void CheckLog::Expect(bool ok, const std::string& what) {
  ++checked_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void CheckLog::ExpectEmpty(const std::string& problem,
                           const std::string& where) {
  Expect(problem.empty(), where + ": " + problem);
}

}  // namespace perfbench
