#include "ann/vector_index.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace deepjoin {
namespace ann {
namespace {

TEST(FlatIndexTest, FindsNearest) {
  FlatIndex index(2);
  const float vecs[] = {0, 0, 1, 1, 5, 5};
  index.AddBatch(vecs, 3);
  const float q[] = {0.9f, 0.9f};
  auto hits = index.Search(q, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 0u);
}

TEST(FlatIndexTest, DistancesAreSquaredL2) {
  FlatIndex index(2);
  const float v[] = {3, 4};
  index.Add(v);
  const float q[] = {0, 0};
  auto hits = index.Search(q, 1);
  EXPECT_FLOAT_EQ(hits[0].dist, 25.0f);
}

TEST(FlatIndexTest, KLargerThanIndexSize) {
  FlatIndex index(1);
  const float v[] = {1.0f};
  index.Add(v);
  auto hits = index.Search(v, 10);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(FlatIndexTest, EmptyIndex) {
  FlatIndex index(3);
  const float q[] = {0, 0, 0};
  EXPECT_TRUE(index.Search(q, 5).empty());
}

TEST(FlatIndexTest, TieBreaksByLowerId) {
  FlatIndex index(1);
  const float v[] = {2.0f};
  index.Add(v);
  index.Add(v);
  index.Add(v);
  const float q[] = {2.0f};
  auto hits = index.Search(q, 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_EQ(hits[2].id, 2u);
}

TEST(FlatIndexTest, SortedAscendingOnRandomData) {
  Rng rng(7);
  FlatIndex index(4);
  std::vector<float> data(4 * 200);
  for (auto& x : data) x = static_cast<float>(rng.Normal());
  index.AddBatch(data.data(), 200);
  const float q[] = {0, 0, 0, 0};
  auto hits = index.Search(q, 50);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].dist, hits[i].dist);
  }
}

// FlatIndex::SearchBatchInto, the scorer every served flat query runs
// through: a row-major scalar pass below kBatchGemmMinQueries (4) queries,
// tiled SGEMM with norm recombination at or above it. Both arms must agree
// with the per-query Search on float, SQ8 and SQ8+refine stores.
class FlatIndexBatchTest : public ::testing::Test {
 protected:
  static constexpr int kDim = 8;
  // More than two 2048-row score tiles, so the GEMM arm crosses tiles.
  static constexpr size_t kRows = 5000;
  static constexpr size_t kQueries = 16;

  void SetUp() override {
    Rng rng(42);
    rows_.resize(kRows * kDim);
    for (auto& x : rows_) x = static_cast<float>(rng.Normal());
    queries_.resize(kQueries * kDim);
    for (auto& x : queries_) x = static_cast<float>(rng.Normal());
  }

  const float* query(size_t i) const { return queries_.data() + i * kDim; }

  std::vector<std::vector<Neighbor>> Batch(const FlatIndex& index, size_t nq,
                                           size_t k,
                                           const AnnSearchParams& params) {
    // Pre-filled: SearchBatchInto must clear every output first.
    std::vector<std::vector<Neighbor>> outs(nq, {Neighbor{-1.0f, 9999u}});
    index.SearchBatchInto(queries_.data(), nq, k, params, outs.data());
    return outs;
  }

  /// Ids and distances identical to the per-query Search.
  void ExpectSameAsSearch(const FlatIndex& index, size_t nq, size_t k,
                          const AnnSearchParams& params) {
    const auto outs = Batch(index, nq, k, params);
    for (size_t q = 0; q < nq; ++q) {
      const auto want = index.Search(query(q), k, params);
      ASSERT_EQ(outs[q].size(), want.size()) << "nq " << nq << " q " << q;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(outs[q][i].id, want[i].id) << "nq " << nq << " q " << q;
        EXPECT_EQ(outs[q][i].dist, want[i].dist) << "nq " << nq << " q " << q;
      }
    }
  }

  std::vector<float> rows_;
  std::vector<float> queries_;
};

TEST_F(FlatIndexBatchTest, ScalarArmMatchesSearch) {
  FlatIndex index(kDim);
  index.AddBatch(rows_.data(), kRows);
  // The scalar arm runs Search's kernel per row: bit-identical.
  for (size_t nq = 1; nq <= 3; ++nq) ExpectSameAsSearch(index, nq, 10, {});
}

TEST_F(FlatIndexBatchTest, GemmArmMatchesSearch) {
  FlatIndex index(kDim);
  index.AddBatch(rows_.data(), kRows);
  for (const size_t nq : {size_t{4}, size_t{7}, kQueries}) {
    const auto outs = Batch(index, nq, 10, {});
    for (size_t q = 0; q < nq; ++q) {
      const auto want = index.Search(query(q), 10);
      ASSERT_EQ(outs[q].size(), want.size());
      // The norm recombination rounds differently from the direct
      // difference, so distances compare under a tolerance; each reported
      // distance must still be its row's true distance.
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_NEAR(outs[q][i].dist, want[i].dist, 1e-3f)
            << "nq " << nq << " q " << q << " rank " << i;
        EXPECT_NEAR(outs[q][i].dist,
                    SquaredL2Distance(query(q), index.vector(outs[q][i].id),
                                      kDim),
                    1e-3f);
      }
    }
  }
}

TEST_F(FlatIndexBatchTest, ExcludesTombstonedRows) {
  FlatIndex index(kDim);
  index.AddBatch(rows_.data(), kRows);
  ASSERT_TRUE(index.Remove(0).ok());
  ASSERT_TRUE(index.Remove(2500).ok());  // second score tile
  ASSERT_TRUE(index.Remove(4999).ok());  // last row
  for (const size_t nq : {size_t{1}, size_t{4}}) {  // both arms
    const auto outs = Batch(index, nq, kRows, {});
    for (size_t q = 0; q < nq; ++q) {
      EXPECT_EQ(outs[q].size(), kRows - 3) << "nq " << nq;
      for (const auto& h : outs[q]) {
        EXPECT_NE(h.id, 0u);
        EXPECT_NE(h.id, 2500u);
        EXPECT_NE(h.id, 4999u);
      }
    }
  }
}

TEST_F(FlatIndexBatchTest, Sq8StoreMatchesSearch) {
  // SQ8 rows expose no float base, so every batch size takes the scalar
  // arm through the store's fused quantized kernel.
  FlatIndex index(kDim, StorageKind::kSq8);
  index.AddBatch(rows_.data(), kRows);
  ASSERT_EQ(index.store().kind(), StorageKind::kSq8);
  for (const size_t nq : {size_t{1}, size_t{3}, kQueries}) {
    ExpectSameAsSearch(index, nq, 10, {});
  }
}

TEST_F(FlatIndexBatchTest, RefineFactorMatchesSearch) {
  FlatIndex index(std::make_unique<Sq8Store>(kDim),
                  std::make_unique<FloatStore>(kDim), {}, 0);
  index.AddBatch(rows_.data(), kRows);
  ASSERT_NE(index.refine_store(), nullptr);
  AnnSearchParams refine;
  refine.refine_factor = 4;
  for (const size_t nq : {size_t{2}, kQueries}) {
    ExpectSameAsSearch(index, nq, 10, refine);
  }
  // Refined distances are exact float distances, unlike the SQ8 ones, so
  // the option cannot have been dropped on the way down.
  const auto raw = Batch(index, 1, 10, {});
  const auto refined = Batch(index, 1, 10, refine);
  ASSERT_EQ(refined[0].size(), 10u);
  EXPECT_NE(raw[0][0].dist, refined[0][0].dist);
  EXPECT_EQ(refined[0][0].dist,
            SquaredL2Distance(query(0),
                              rows_.data() + refined[0][0].id * kDim, kDim));
}

TEST_F(FlatIndexBatchTest, EmptyIndexReturnsNothing) {
  FlatIndex empty(kDim);
  for (const auto& out : Batch(empty, 5, 10, {})) EXPECT_TRUE(out.empty());
}

TEST_F(FlatIndexBatchTest, KZeroReturnsNothing) {
  FlatIndex index(kDim);
  index.AddBatch(rows_.data(), kRows);
  for (const auto& out : Batch(index, 5, 0, {})) EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace ann
}  // namespace deepjoin
