#include "ann/vector_index.h"

#include <algorithm>

#include "util/kernels.h"
#include "util/top_k.h"
#include "util/trace.h"

namespace deepjoin {
namespace ann {

float SquaredL2Distance(const float* a, const float* b, int dim) {
  // Single-precision kernel accumulation (documented change: this used to
  // accumulate in double). Deterministic per kernel tier; see
  // util/kernels.h for the reduction order.
  return kern::SquaredL2(a, b, dim);
}

void RefineResults(const VectorStore& exact, const float* query, size_t k,
                   std::vector<Neighbor>* out) {
  for (Neighbor& nb : *out) {
    nb.dist = exact.Distance(query, nb.id);
  }
  std::sort(out->begin(), out->end());
  // Shrink via erase: shrinking never reallocates (resize would trip the
  // growth-call check for no reason).
  if (out->size() > k) {
    out->erase(out->begin() + static_cast<long>(k), out->end());
  }
}

FlatIndex::FlatIndex(int dim, StorageKind storage) {
  DJ_CHECK(dim > 0);
  if (storage == StorageKind::kSq8) {
    store_ = std::make_unique<Sq8Store>(dim);
  } else {
    store_ = std::make_unique<FloatStore>(dim);
  }
}

FlatIndex::FlatIndex(std::unique_ptr<VectorStore> store,
                     std::unique_ptr<VectorStore> refine,
                     std::vector<u8> tombstones, size_t deleted)
    : store_(std::move(store)),
      refine_(std::move(refine)),
      tombstones_(std::move(tombstones)),
      deleted_(deleted) {
  DJ_CHECK(store_ != nullptr);
  DJ_CHECK(tombstones_.size() == store_->size());
}

void FlatIndex::Add(const float* vec) {
  DJ_CHECK_MSG(store_->AppendRow(vec).ok(),
               "flat Add on a read-only (mapped) store");
  if (refine_ != nullptr) {
    DJ_CHECK_MSG(refine_->AppendRow(vec).ok(),
                 "flat Add on a read-only refinement store");
  }
  tombstones_.push_back(0);
}

void FlatIndex::AddBatch(const float* data, size_t n) {
  DJ_CHECK_MSG(store_->AppendRows(data, n).ok(),
               "flat AddBatch on a read-only (mapped) store");
  if (refine_ != nullptr) {
    DJ_CHECK_MSG(refine_->AppendRows(data, n).ok(),
                 "flat AddBatch on a read-only refinement store");
  }
  tombstones_.insert(tombstones_.end(), n, 0);
}

std::vector<Neighbor> FlatIndex::Search(const float* query, size_t k,
                                        const AnnSearchParams& params) const {
  DJ_TRACE_SPAN("flat.search");
  const size_t n = size();
  if (n == 0 || k == 0) return {};
  trace::Count("flat.dist_evals", n);
  const bool refine =
      params.refine_factor > 0 && refine_ != nullptr &&
      store_->kind() != StorageKind::kFloat;
  const size_t fetch =
      refine ? k * static_cast<size_t>(params.refine_factor) : k;
  TopK top(fetch);
  for (size_t i = 0; i < n; ++i) {
    if (IsDeleted(static_cast<u32>(i))) continue;  // tombstoned
    const float d = store_->Distance(query, static_cast<u32>(i));
    top.Push(-static_cast<double>(d), static_cast<u32>(i));
  }
  std::vector<Neighbor> out;
  for (const auto& s : top.Take()) {
    out.push_back(Neighbor{static_cast<float>(-s.score), s.id});
  }
  if (refine) RefineResults(*refine_, query, k, &out);
  return out;
}

namespace {

// Corpus rows per SGEMM tile. Small enough that one tile of scores
// (nq x kScoreTileRows floats) plus the tile's rows stay cache-resident,
// large enough that the kernel amortises its loop overhead; throughput is
// flat from ~512 to ~64k rows on the machines we measured, so the exact
// value is not load-bearing.
constexpr size_t kScoreTileRows = 2048;

// Below this many queries the batch takes the scalar per-query scan: the
// packed SGEMM's B-tile packing costs a corpus pass by itself, so at m=1-3
// it LOSES to nq plain passes — measured ~4x worse at m=1. The GEMM only
// pays off once its single corpus stream is amortised over enough queries.
constexpr size_t kBatchGemmMinQueries = 4;

}  // namespace

void FlatIndex::SearchBatchInto(const float* queries, size_t nq, size_t k,
                                const AnnSearchParams& params,
                                std::vector<Neighbor>* outs) const {
  for (size_t q = 0; q < nq; ++q) outs[q].clear();
  const size_t n = size();
  if (n == 0 || k == 0 || nq == 0) return;
  DJ_TRACE_SPAN("flat.search_batch");
  trace::Count("flat.dist_evals", n * nq);
  const size_t d = static_cast<size_t>(dim());
  const bool refine =
      params.refine_factor > 0 && refine_ != nullptr &&
      store_->kind() != StorageKind::kFloat;
  const size_t fetch =
      refine ? k * static_cast<size_t>(params.refine_factor) : k;
  // Lazily-validated (mapped) stores check every touched page once up
  // front; the per-row fast paths below then read raw pointers.
  store_->TouchRows(0, n);
  const float* base = store_->float_base();
  const float* norms = store_->norms_base();
  if (nq < kBatchGemmMinQueries || base == nullptr || norms == nullptr) {
    // Row-major order: each corpus row is loaded once and scored against
    // every query while it sits in L1, so a burst of 2-3 queries costs one
    // bandwidth-bound corpus pass, not nq serial passes — this is what
    // keeps the serving layer's low-rate tail near the single-query floor.
    // Non-float representations (SQ8) score through the store's fused
    // kernel; the codes row equally stays cache-resident across queries.
    std::vector<TopK> tops;
    tops.reserve(nq);
    for (size_t q = 0; q < nq; ++q) tops.emplace_back(fetch);
    for (size_t i = 0; i < n; ++i) {
      if (IsDeleted(static_cast<u32>(i))) continue;  // tombstoned
      const float* const row = base != nullptr ? base + i * d : nullptr;
      for (size_t q = 0; q < nq; ++q) {
        const float dist =
            row != nullptr
                ? kern::SquaredL2(queries + q * d, row, dim())
                : store_->Distance(queries + q * d, static_cast<u32>(i));
        tops[q].Push(-static_cast<double>(dist), static_cast<u32>(i));
      }
    }
    for (size_t q = 0; q < nq; ++q) {
      for (const auto& s : tops[q].Take()) {
        outs[q].push_back(Neighbor{static_cast<float>(-s.score), s.id});
      }
      if (refine) RefineResults(*refine_, queries + q * d, k, &outs[q]);
    }
    return;
  }

  // scores[q * tile_rows + j] = q_q · x_{c+j} for the current tile. The
  // buffer is reused across calls; it only grows when a caller raises the
  // batch size.
  thread_local std::vector<float> scores;
  if (scores.size() < nq * kScoreTileRows) {
    scores.resize(nq * kScoreTileRows);  // dj_alloc: allow(alloc)
  }
  thread_local std::vector<float> qnorms;
  if (qnorms.size() < nq) qnorms.resize(nq);  // dj_alloc: allow(alloc)
  for (size_t q = 0; q < nq; ++q) {
    qnorms[q] = kern::Dot(queries + q * d, queries + q * d,
                          static_cast<int>(d));
  }
  std::vector<TopK> tops;
  tops.reserve(nq);
  for (size_t q = 0; q < nq; ++q) tops.emplace_back(fetch);
  for (size_t c = 0; c < n; c += kScoreTileRows) {
    const size_t rows = std::min(kScoreTileRows, n - c);
    // SgemmNT accumulates (C += A @ B^T); the tile buffer is reused across
    // tiles and calls, so it must be zeroed first.
    std::fill(scores.begin(), scores.begin() + nq * kScoreTileRows, 0.0f);
    // C (nq x rows) = Q (nq x d) * X_tile^T (d x rows).
    kern::SgemmNT(static_cast<int>(nq), static_cast<int>(rows),
                  static_cast<int>(d), queries, static_cast<int>(d),
                  base + c * d, static_cast<int>(d), scores.data(),
                  static_cast<int>(kScoreTileRows));
    for (size_t q = 0; q < nq; ++q) {
      const float* row = scores.data() + q * kScoreTileRows;
      const float qnorm = qnorms[q];
      for (size_t j = 0; j < rows; ++j) {
        const u32 id = static_cast<u32>(c + j);
        if (IsDeleted(id)) continue;  // tombstoned
        const float dist = qnorm + norms[c + j] - 2.0f * row[j];
        tops[q].Push(-static_cast<double>(dist), id);
      }
    }
  }
  for (size_t q = 0; q < nq; ++q) {
    for (const auto& s : tops[q].Take()) {
      outs[q].push_back(Neighbor{static_cast<float>(-s.score), s.id});
    }
    if (refine) RefineResults(*refine_, queries + q * d, k, &outs[q]);
  }
}

// ---- Persistence (the payload behind index_io's DJIX header) ----
//
// flat payload := primary_kind:u32 has_refine:u32 deleted:u32[]
//                 store_payload [refine_store_payload]

Status FlatIndex::Save(BinaryWriter& writer,
                       const SaveOptions& options) const {
  const StorageKind want = options.storage == StorageKind::kAuto
                               ? store_->kind()
                               : options.storage;
  const VectorStore* primary = store_.get();
  bool convert_to_sq8 = false;
  const VectorStore* refine = nullptr;
  if (want == store_->kind()) {
    if (want == StorageKind::kSq8) refine = refine_.get();
  } else if (want == StorageKind::kSq8) {
    // float -> SQ8: train quantization over the full corpus at save time.
    convert_to_sq8 = true;
    if (options.keep_float_refine) refine = store_.get();
  } else {
    // SQ8 -> float is only lossless if the exact rows were kept.
    if (refine_ == nullptr || refine_->kind() != StorageKind::kFloat) {
      return Status::FailedPrecondition(
          "cannot save an SQ8 flat index as float without a float "
          "refinement store (save with keep_float_refine to retain one)");
    }
    primary = refine_.get();
  }
  writer.WriteU32(static_cast<u32>(want));
  writer.WriteU32(refine != nullptr ? 1 : 0);
  std::vector<u32> deleted_ids;
  for (size_t i = 0; i < tombstones_.size(); ++i) {
    if (tombstones_[i] != 0) deleted_ids.push_back(static_cast<u32>(i));
  }
  writer.WriteU32Array(deleted_ids.data(), deleted_ids.size());
  if (convert_to_sq8) {
    const float* base = store_->float_base();
    DJ_CHECK(base != nullptr);
    const size_t d = static_cast<size_t>(dim());
    DJ_RETURN_IF_ERROR(Sq8Store::SaveFromRows(
        writer, dim(), size(),
        [base, d](u64 i) { return base + i * d; }));
  } else {
    DJ_RETURN_IF_ERROR(primary->Save(writer));
  }
  if (refine != nullptr) DJ_RETURN_IF_ERROR(refine->Save(writer));
  return writer.status();
}

Result<std::unique_ptr<FlatIndex>> FlatIndex::LoadPayload(
    BinaryReader& reader, const OpenOptions& options) {
  u32 kind_raw = 0, has_refine = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&kind_raw));
  DJ_RETURN_IF_ERROR(reader.ReadU32(&has_refine));
  std::vector<u32> deleted_ids;
  DJ_RETURN_IF_ERROR(reader.ReadU32Array(&deleted_ids));
  if (kind_raw != static_cast<u32>(StorageKind::kFloat) &&
      kind_raw != static_cast<u32>(StorageKind::kSq8)) {
    return Status::DataLoss("flat index: unknown primary storage kind " +
                            std::to_string(kind_raw));
  }
  if (has_refine > 1) {
    return Status::DataLoss("flat index: corrupt has_refine flag");
  }
  const StorageKind primary_kind = static_cast<StorageKind>(kind_raw);
  const StorageKind want = options.storage == StorageKind::kAuto
                               ? primary_kind
                               : options.storage;
  std::unique_ptr<VectorStore> store, refine;
  if (want == primary_kind) {
    auto store_r = LoadVectorStore(reader, options);
    if (!store_r.ok()) return store_r.status();
    store = std::move(store_r).value();
    if (has_refine != 0) {
      if (primary_kind != StorageKind::kSq8) {
        return Status::DataLoss(
            "flat index: float primary with refinement payload");
      }
      auto refine_r = LoadVectorStore(reader, options);
      if (!refine_r.ok()) return refine_r.status();
      refine = std::move(refine_r).value();
    }
  } else if (want == StorageKind::kFloat) {
    // SQ8 file opened as float: only possible via the float refinement
    // payload (dequantizing codes would silently change every distance).
    if (has_refine == 0) {
      return Status::FailedPrecondition(
          "file holds SQ8 only; no float payload to open (saved without "
          "keep_float_refine)");
    }
    auto skipped = SkipVectorStore(reader);
    if (!skipped.ok()) return skipped.status();
    auto store_r = LoadVectorStore(reader, options);
    if (!store_r.ok()) return store_r.status();
    store = std::move(store_r).value();
  } else {
    return Status::FailedPrecondition(
        "file holds float rows; quantize at save time "
        "(SaveOptions.storage = kSq8), not at open");
  }
  if (refine != nullptr) {
    if (refine->kind() != StorageKind::kFloat ||
        refine->dim() != store->dim() || refine->size() != store->size()) {
      return Status::DataLoss(
          "flat index: refinement store does not match primary");
    }
  }
  std::vector<u8> tombstones(store->size(), 0);
  size_t deleted = 0;
  for (const u32 id : deleted_ids) {
    if (id >= tombstones.size()) {
      return Status::DataLoss("flat index: deleted id " + std::to_string(id) +
                              " out of range");
    }
    if (tombstones[id] == 0) {
      tombstones[id] = 1;
      ++deleted;
    }
  }
  if (options.map == MapMode::kOwned) {
    // Owned opens stay mutable (legacy load-then-add semantics): deep-copy
    // the section-backed stores into appendable ones.
    store = store->CloneOwned();
    if (refine != nullptr) refine = refine->CloneOwned();
  }
  return std::make_unique<FlatIndex>(std::move(store), std::move(refine),
                                     std::move(tombstones), deleted);
}

}  // namespace ann
}  // namespace deepjoin
