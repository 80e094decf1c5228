// Output checks for the end-to-end benchmark. Every check runs outside
// the timed region against references built in the same run: exact top-k
// by brute force over the embeddings the index stores, and exact
// equi-joinability (join::ExactEquiTopK). Results are compared by
// distance (or by joinability score), never by id order, so ties pass.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/common.h"
#include "util/top_k.h"

namespace perfbench {

using deepjoin::u32;

/// Embeddings of the columns an index holds, keyed by column id.
class EmbeddingTable {
 public:
  explicit EmbeddingTable(int dim) : dim_(dim) {}
  void Add(u32 column_id, const float* vec);
  bool Contains(u32 column_id) const { return row_.count(column_id) != 0; }
  /// Euclidean distance from `q` to the stored row of `column_id`.
  double Distance(const float* q, u32 column_id) const;

  struct Hit {
    double dist;
    u32 id;
  };
  /// Exact top-k by brute force, nearest first.
  std::vector<Hit> ExactTopK(const float* q, size_t k) const;

 private:
  int dim_;
  std::vector<float> rows_;
  std::vector<u32> ids_;
  std::unordered_map<u32, size_t> row_;
};

/// "" when `ids` holds exactly `k` distinct ids that all satisfy `valid`;
/// otherwise what is wrong.
std::string CheckIdList(const std::vector<u32>& ids, size_t k,
                        const std::function<bool(u32)>& valid);

/// Share of the k results whose true distance to `q` is within the k-th
/// exact distance (relative tolerance 1e-4), so a tie at the boundary
/// counts as a hit. Duplicates are caught by CheckIdList, not here.
double RecallByDistance(const EmbeddingTable& table, const float* q,
                        const std::vector<u32>& ids,
                        const std::vector<EmbeddingTable::Hit>& exact);

/// "" when the sorted true distances of `ids` equal the exact top-k
/// distances rank by rank (relative tolerance 1e-4): the result *is* an
/// exact top-k, whichever tied ids it picked.
std::string CheckEqualsExact(const EmbeddingTable& table, const float* q,
                             const std::vector<u32>& ids,
                             const std::vector<EmbeddingTable::Hit>& exact);

/// Tombstone check. `removed_at` maps each removed column id to its
/// position in the writer's acknowledged-removal log; a search that began
/// after `watermark` acknowledged removals must return none of the first
/// `watermark` removed ids.
std::string CheckNoRemoved(const std::vector<u32>& ids,
                           const std::unordered_map<u32, size_t>& removed_at,
                           size_t watermark);

/// Tie-aware P@k against exact equi-joinability: a result counts when its
/// joinability is positive and at least the k-th best exact joinability.
/// `exact` is join::ExactEquiTopK's list, best first; `jn` scores an id.
double PrecisionAtK(const std::vector<u32>& ids,
                    const std::vector<deepjoin::Scored>& exact, size_t k,
                    const std::function<double(u32)>& jn);

/// Tallies check outcomes; keeps the first few failure messages.
class CheckLog {
 public:
  void Expect(bool ok, const std::string& what);
  /// Records `problem` as a failure unless it is empty.
  void ExpectEmpty(const std::string& problem, const std::string& where);
  bool ok() const { return failed_ == 0; }
  size_t checked() const { return checked_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  size_t checked_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
