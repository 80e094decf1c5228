// Common interface for the vector indexes (flat / HNSW / IVFPQ) plus the
// exact flat index. Paper §3.3: column embeddings are indexed offline and
// searched under Euclidean distance; HNSW is the default, with IVFPQ for
// very large repositories.
#ifndef DEEPJOIN_ANN_VECTOR_INDEX_H_
#define DEEPJOIN_ANN_VECTOR_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "ann/vector_store.h"
#include "util/binary_io.h"
#include "util/common.h"
#include "util/status.h"
#include "util/top_k.h"

namespace deepjoin {
namespace ann {

class FlatIndex;

/// A search hit: squared L2 distance and the vector's insertion id.
struct Neighbor {
  float dist;
  u32 id;
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  friend bool operator>(const Neighbor& a, const Neighbor& b) { return b < a; }
};

/// Per-query search knobs. Zero means "use the index's configured
/// default". Overrides travel with the call instead of mutating index
/// state, so concurrent searches with different settings never race on a
/// shared config (the old set_ef_search/set_nprobe mutators are gone).
struct AnnSearchParams {
  int ef_search = 0;  ///< HNSW layer-0 beam width; ignored by other indexes
  int nprobe = 0;     ///< IVFPQ coarse cells scanned; ignored by others
  /// Refinement reranking for quantized (SQ8) indexes: 0 = off; r > 0
  /// over-fetches k*r candidates with quantized distances, then reranks
  /// them with exact float distances when the index carries a float
  /// refinement store (ignored otherwise). Per-call — no index mutation.
  int refine_factor = 0;
};

class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Adds one vector; ids are assigned sequentially from 0.
  virtual void Add(const float* vec) = 0;

  /// Tombstones `id`: it stops appearing in results but keeps its id (no
  /// renumbering; storage is reclaimed by a rebuild/compaction). Indexes
  /// without delete support return FailedPrecondition; ids never assigned
  /// return NotFound; deleting a tombstone is OK (idempotent).
  [[nodiscard]] virtual Status Remove(u32 id) {
    (void)id;
    return Status::FailedPrecondition(std::string(name()) +
                                      " does not support Remove");
  }
  virtual bool IsDeleted(u32 id) const {
    (void)id;
    return false;
  }
  /// Number of tombstoned ids (live size == size() - deleted_count()).
  virtual size_t deleted_count() const { return 0; }

  /// Bulk add of n row-major vectors. Virtual so quantizing backends can
  /// treat the batch as a unit (an SQ8 store trains its per-dim lo/scale
  /// on the first batch and encodes it in one block); the default loops
  /// Add per row.
  virtual void AddBatch(const float* data, size_t n) {
    for (size_t i = 0; i < n; ++i) Add(data + i * static_cast<size_t>(dim()));
  }

  /// Serializes this index into an already-Open()ed writer (the payload
  /// after the kDjIndexMagic header, which SaveIndexFile in index_io.h
  /// writes). options.storage can convert the representation at save time
  /// (float -> SQ8 trains quantization; SQ8 -> float requires a float
  /// refinement store). Backends without persistence keep the default.
  [[nodiscard]] virtual Status Save(BinaryWriter& writer,
                                    const SaveOptions& options) const {
    (void)writer;
    (void)options;
    return Status::FailedPrecondition(std::string(name()) +
                                      " does not support Save");
  }

  /// k nearest neighbours of `query` under (squared) L2, nearest first.
  virtual std::vector<Neighbor> Search(const float* query, size_t k,
                                       const AnnSearchParams& params)
      const = 0;

  /// Convenience overload: search with the index's configured defaults.
  std::vector<Neighbor> Search(const float* query, size_t k) const {
    return Search(query, k, AnnSearchParams{});
  }

  /// Writes the k nearest into `*out` (cleared first), nearest first. The
  /// hot query path (EmbeddingSearcher::SearchInto) calls this so indexes
  /// with an allocation-free fast path can reuse the caller's buffer
  /// (HnswIndex overrides this with a DJ_NOALLOC implementation); the
  /// default just forwards to Search.
  virtual void SearchInto(const float* query, size_t k,
                          const AnnSearchParams& params,
                          std::vector<Neighbor>* out) const {
    *out = Search(query, k, params);
  }

  /// Scores `nq` queries (row-major, nq x dim) in one call, writing each
  /// query's k nearest into outs[q] (cleared first), nearest first. The
  /// default loops SearchInto per query; FlatIndex overrides it with a
  /// blocked-SGEMM scorer that streams the corpus once per *batch* instead
  /// of once per query — the amortisation the serving layer's adaptive
  /// batcher exists to exploit (DESIGN.md §13).
  virtual void SearchBatchInto(const float* queries, size_t nq, size_t k,
                               const AnnSearchParams& params,
                               std::vector<Neighbor>* outs) const {
    for (size_t q = 0; q < nq; ++q) {
      SearchInto(queries + q * static_cast<size_t>(dim()), k, params,
                 &outs[q]);
    }
  }

  virtual size_t size() const = 0;
  virtual int dim() const = 0;

  /// Human-readable name for bench output.
  virtual const char* name() const = 0;

  /// Downcast hook for callers that need the flat index's stored rows or
  /// storage kind without RTTI (benchmarks and tests read rows back as an
  /// exact reference). No query path branches on it. nullptr for every
  /// other backend.
  virtual const FlatIndex* AsFlat() const { return nullptr; }
};

/// Exact brute-force index; ground truth for recall tests and the fallback
/// for tiny repositories.
class FlatIndex : public VectorIndex {
 public:
  /// Empty mutable index over an owned store of the given representation
  /// (kFloat by default; kSq8 builds a quantized index directly — the
  /// first AddBatch trains the quantizer).
  explicit FlatIndex(int dim, StorageKind storage = StorageKind::kFloat);

  /// Wraps already-loaded stores (the OpenIndex path). `refine` may be
  /// null; `tombstones` must be store->size() long.
  FlatIndex(std::unique_ptr<VectorStore> store,
            std::unique_ptr<VectorStore> refine, std::vector<u8> tombstones,
            size_t deleted);

  using VectorIndex::Search;

  void Add(const float* vec) override;
  void AddBatch(const float* data, size_t n) override;
  [[nodiscard]] Status Remove(u32 id) override {
    if (id >= tombstones_.size()) {
      return Status::NotFound("flat Remove: id " + std::to_string(id) +
                              " never assigned");
    }
    if (tombstones_[id] == 0) {
      tombstones_[id] = 1;
      ++deleted_;
    }
    return Status::OK();
  }
  bool IsDeleted(u32 id) const override {
    return id < tombstones_.size() && tombstones_[id] != 0;
  }
  size_t deleted_count() const override { return deleted_; }
  std::vector<Neighbor> Search(const float* query, size_t k,
                               const AnnSearchParams& params) const override;
  /// Batched exact scan: one blocked SGEMM per corpus tile computes every
  /// query·row dot product, distances recombine from cached row norms
  /// (||q-x||^2 = ||q||^2 - 2 q·x + ||x||^2). Turns the memory-bound
  /// per-query scan (one full corpus stream per query) into a
  /// compute-bound pass (one corpus stream per batch).
  void SearchBatchInto(const float* queries, size_t nq, size_t k,
                       const AnnSearchParams& params,
                       std::vector<Neighbor>* outs) const override;
  size_t size() const override { return store_->size(); }
  int dim() const override { return store_->dim(); }
  const char* name() const override { return "flat"; }
  const FlatIndex* AsFlat() const override { return this; }

  /// The row storage being searched (float or SQ8, owned or mapped).
  const VectorStore& store() const { return *store_; }
  /// Exact float rows for refine_factor reranking, or nullptr.
  const VectorStore* refine_store() const { return refine_.get(); }

  [[nodiscard]] Status Save(BinaryWriter& writer,
                            const SaveOptions& options) const override;
  /// Loads the payload that Save wrote, after index_io has consumed the
  /// DJIX magic/version/kind header.
  static Result<std::unique_ptr<FlatIndex>> LoadPayload(
      BinaryReader& reader, const OpenOptions& options);

  /// Raw float row access; only valid for float-representation stores
  /// (DJ_CHECKs that the store exposes raw floats).
  const float* vector(u32 id) const {
    const float* base = store_->float_base();
    DJ_CHECK(base != nullptr);
    return base + static_cast<size_t>(id) * static_cast<size_t>(dim());
  }

 private:
  std::unique_ptr<VectorStore> store_;   // searched representation
  std::unique_ptr<VectorStore> refine_;  // exact floats for reranking
  std::vector<u8> tombstones_;           // 1 = removed from results
  size_t deleted_ = 0;
};

/// Squared Euclidean distance (the common metric of all indexes).
float SquaredL2Distance(const float* a, const float* b, int dim);

/// Reranks the candidates in `*out` (quantized distances) with exact
/// distances from `exact`, keeping the k nearest. The refine_factor
/// post-pass shared by flat and HNSW search.
void RefineResults(const VectorStore& exact, const float* query, size_t k,
                   std::vector<Neighbor>* out);

}  // namespace ann
}  // namespace deepjoin

#endif  // DEEPJOIN_ANN_VECTOR_INDEX_H_
