// Deterministic retrieval-quality gate: a fixed Webtable lake, a fixed
// MPNetSim fine-tune, an HNSW index, and three of the paper's accuracy
// numbers (Table 3 at miniature scale) pinned to floors:
//   * HNSW recall@10 against an exact flat scan over the same embeddings —
//     catches an index that stops finding the true nearest vectors;
//   * DeepJoin P@10 and NDCG@10 against join::ExactEquiTopK — catch an
//     encoder change (kernels, training arithmetic) that quietly trades
//     retrieval quality for speed.
// Each floor is the value this exact configuration measured when the gate
// was introduced, minus the margin stated next to it. The margins absorb
// low-bit arithmetic drift (e.g. a vectorized exp/tanh instead of libm,
// which perturbs every fine-tuning step) but not a real regression; the
// end-to-end test's 0.2 / 0.3 floors are far too loose for that.
//
// One TEST on purpose: ctest runs every test case in its own process, so
// splitting the checks would repeat the fine-tune per check.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/deepjoin.h"
#include "eval/metrics.h"
#include "join/joinability.h"
#include "lake/generator.h"
#include "util/kernels.h"

namespace deepjoin {
namespace core {
namespace {

constexpr size_t kRepoColumns = 800;
constexpr size_t kQueries = 40;
constexpr size_t kK = 10;

// Measured when the gate was introduced (libm exp/tanh encoder; the same
// in the scalar and AVX2 tiers), as printed by the test below.
constexpr double kMeasuredHnswRecall = 1.0000;
constexpr double kMeasuredPrecision = 0.5725;
constexpr double kMeasuredNdcg = 0.8358;
// Margins: recall loses at most 8 of 400 neighbours; P@10 at most 20 of
// 400 exact-top-10 hits; NDCG@10 five points.
constexpr double kRecallMargin = 0.02;
constexpr double kPrecisionMargin = 0.05;
constexpr double kNdcgMargin = 0.05;

/// Fraction of `got` whose exact distance is within the k-th exact
/// distance (distance-based, so ties between equal embeddings never count
/// as misses).
double DistanceRecall(const std::vector<u32>& got,
                      const std::vector<float>& dist_to_query,
                      float kth_exact) {
  size_t hits = 0;
  for (u32 id : got) {
    if (dist_to_query[id] <= kth_exact) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(kK);
}

TEST(QualityGateTest, RetrievalQualityHoldsOnFixedLake) {
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(2024));
  const lake::Repository repo = gen.GenerateRepository(kRepoColumns);
  FastTextConfig fc;
  fc.dim = 24;
  FastTextEmbedder embedder(fc);
  embedder.TrainSynonyms(gen.SynonymLexicon(), 0.8, 2);
  const std::vector<lake::Column> sample = gen.GenerateQueries(200, 0x5A);
  const std::vector<lake::Column> queries =
      gen.GenerateQueries(kQueries, 0xD1);

  DeepJoinConfig cfg;
  cfg.plm.kind = PlmKind::kMPNetSim;
  cfg.plm.max_seq_len = 40;
  cfg.plm.transform.cell_budget = 16;
  cfg.training.join_type = JoinType::kEqui;
  cfg.training.max_pairs = 600;
  cfg.finetune.batch_size = 12;
  cfg.finetune.max_steps = 60;
  cfg.finetune.lr = 5e-4;
  auto dj = DeepJoin::Train(sample, embedder, cfg);
  ASSERT_TRUE(dj->BuildIndex(repo).ok());

  // The same embeddings the index holds (EncodeInto == Encode).
  std::vector<std::vector<float>> corpus;
  for (u32 i = 0; i < repo.size(); ++i) {
    corpus.push_back(dj->encoder().Encode(repo.column(i)));
  }

  const auto tok = join::TokenizedRepository::Build(repo);
  std::vector<double> recalls, precisions, ndcgs;
  for (const auto& q : queries) {
    const auto out = dj->Search(q, {.k = kK});
    ASSERT_EQ(out.ids.size(), kK);

    const std::vector<float> qe = dj->encoder().Encode(q);
    std::vector<float> dist(repo.size());
    for (u32 i = 0; i < repo.size(); ++i) {
      dist[i] = kern::SquaredL2(qe.data(), corpus[i].data(),
                                static_cast<int>(qe.size()));
    }
    std::vector<float> sorted = dist;
    std::nth_element(sorted.begin(), sorted.begin() + (kK - 1), sorted.end());
    recalls.push_back(DistanceRecall(out.ids, dist, sorted[kK - 1]));

    const auto qt = tok.EncodeQuery(q);
    std::vector<u32> exact_ids;
    for (const auto& s : join::ExactEquiTopK(tok, qt, kK)) {
      exact_ids.push_back(s.id);
    }
    precisions.push_back(eval::PrecisionAtK(out.ids, exact_ids));
    ndcgs.push_back(eval::NdcgAtK(out.ids, exact_ids, [&](u32 id) {
      return join::EquiJoinability(qt, tok.columns()[id]);
    }));
  }
  const double recall = eval::Mean(recalls);
  const double precision = eval::Mean(precisions);
  const double ndcg = eval::Mean(ndcgs);
  std::printf("quality gate [%s]: hnsw_recall@10=%.4f P@10=%.4f NDCG@10=%.4f\n",
              kern::TierName(kern::ActiveTier()), recall, precision, ndcg);

  EXPECT_GE(recall, kMeasuredHnswRecall - kRecallMargin);
  EXPECT_GE(precision, kMeasuredPrecision - kPrecisionMargin);
  EXPECT_GE(ndcg, kMeasuredNdcg - kNdcgMargin);
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
