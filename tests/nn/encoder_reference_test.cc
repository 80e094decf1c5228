// Independent reference check of the transformer encoder. A plain, naive
// float forward written here from the model's definition — triple-loop
// matrix products, libm std::exp / std::tanh, nothing from nn/row_ops.h or
// util/kernels.h — reads the encoder's own parameters by name and must
// agree with EncodeToVector within 1e-5 max-abs, in both position modes and
// both kernel tiers. KernelsTest.EncoderFastPathBitIdenticalToGraph proves
// the two production paths agree with each other; this proves they compute
// the right thing, whatever exp/tanh/GEMM kernels sit underneath.
//
// Parameters are redrawn at a larger scale than the N(0, 0.02)
// initialisation so the GELU inputs span both tanh branches and the
// attention softmax is far from uniform.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/transformer.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace deepjoin {
namespace nn {
namespace {

constexpr double kTolerance = 1e-5;

using Rows = std::vector<std::vector<float>>;

class Reference {
 public:
  Reference(const TransformerConfig& c, ParamStore& params) : c_(c) {
    for (size_t i = 0; i < params.params().size(); ++i) {
      by_name_[params.names()[i]] = &params.params()[i]->value();
    }
  }

  std::vector<float> Encode(std::vector<u32> ids) const {
    if (static_cast<int>(ids.size()) > c_.max_seq_len) {
      ids.resize(static_cast<size_t>(c_.max_seq_len));
    }
    const int L = static_cast<int>(ids.size());
    const int d = c_.d_model;
    Rows x(static_cast<size_t>(L));
    for (int i = 0; i < L; ++i) {
      x[i] = Row("token_emb", static_cast<int>(ids[i]));
      if (c_.position_mode == PositionMode::kAbsolute) {
        const std::vector<float> pos = Row("pos_emb", i);
        for (int j = 0; j < d; ++j) x[i][j] += pos[j];
      }
    }
    for (int l = 0; l < c_.num_layers; ++l) {
      const std::string p = "layer" + std::to_string(l) + ".";
      const Rows q = Affine(x, p + "wq", p + "bq");
      const Rows k = Affine(x, p + "wk", p + "bk");
      const Rows v = Affine(x, p + "wv", p + "bv");
      const Rows ctx = Attention(q, k, v, p);
      const Rows attn_out = Affine(ctx, p + "wo", p + "bo");
      x = LayerNorm(Sum(x, attn_out), p + "ln1_g", p + "ln1_b");
      Rows h1 = Affine(x, p + "ff1_w", p + "ff1_b");
      for (auto& row : h1) {
        for (float& u : row) {
          u = 0.5f * u *
              (1.0f + std::tanh(0.7978845608f * (u + 0.044715f * u * u * u)));
        }
      }
      x = LayerNorm(Sum(x, Affine(h1, p + "ff2_w", p + "ff2_b")),
                    p + "ln2_g", p + "ln2_b");
    }
    std::vector<float> out(static_cast<size_t>(d), 0.0f);
    for (const auto& row : x) {
      for (int j = 0; j < d; ++j) out[j] += row[j];
    }
    for (float& o : out) o /= static_cast<float>(L);
    return out;
  }

 private:
  const Matrix& Param(const std::string& name) const {
    const auto it = by_name_.find(name);
    DJ_CHECK_MSG(it != by_name_.end(), name.c_str());
    return *it->second;
  }

  std::vector<float> Row(const std::string& name, int r) const {
    const Matrix& m = Param(name);
    return std::vector<float>(m.row(r), m.row(r) + m.cols());
  }

  /// x @ W + b, one naive dot product per output.
  Rows Affine(const Rows& x, const std::string& w_name,
              const std::string& b_name) const {
    const Matrix& w = Param(w_name);
    const Matrix& b = Param(b_name);
    Rows out(x.size(), std::vector<float>(static_cast<size_t>(w.cols())));
    for (size_t i = 0; i < x.size(); ++i) {
      for (int j = 0; j < w.cols(); ++j) {
        float acc = 0.0f;
        for (int t = 0; t < w.rows(); ++t) acc += x[i][t] * w.at(t, j);
        out[i][j] = acc + b.at(0, j);
      }
    }
    return out;
  }

  Rows Attention(const Rows& q, const Rows& k, const Rows& v,
                 const std::string& p) const {
    const int L = static_cast<int>(q.size());
    const int dh = c_.d_model / c_.num_heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Rows ctx(q.size(), std::vector<float>(static_cast<size_t>(c_.d_model)));
    for (int h = 0; h < c_.num_heads; ++h) {
      for (int i = 0; i < L; ++i) {
        std::vector<float> s(static_cast<size_t>(L));
        for (int j = 0; j < L; ++j) {
          float acc = 0.0f;
          for (int t = 0; t < dh; ++t) {
            acc += q[i][h * dh + t] * k[j][h * dh + t];
          }
          s[j] = acc * scale;
          if (c_.position_mode == PositionMode::kRelativeBias) {
            const Matrix& bias = Param(p + "rel_bias" + std::to_string(h));
            const int r = (bias.cols() - 1) / 2;
            s[j] += bias.at(0, std::clamp(j - i + r, 0, bias.cols() - 1));
          }
        }
        const float mx = *std::max_element(s.begin(), s.end());
        float sum = 0.0f;
        for (float& e : s) {
          e = std::exp(e - mx);
          sum += e;
        }
        for (int t = 0; t < dh; ++t) {
          float acc = 0.0f;
          for (int j = 0; j < L; ++j) acc += s[j] / sum * v[j][h * dh + t];
          ctx[i][h * dh + t] = acc;
        }
      }
    }
    return ctx;
  }

  static Rows Sum(Rows a, const Rows& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      for (size_t j = 0; j < a[i].size(); ++j) a[i][j] += b[i][j];
    }
    return a;
  }

  Rows LayerNorm(Rows x, const std::string& g_name,
                 const std::string& b_name) const {
    const Matrix& g = Param(g_name);
    const Matrix& b = Param(b_name);
    for (auto& row : x) {
      const float n = static_cast<float>(row.size());
      float mean = 0.0f;
      for (float u : row) mean += u;
      mean /= n;
      float var = 0.0f;
      for (float u : row) var += (u - mean) * (u - mean);
      var /= n;
      const float inv = 1.0f / std::sqrt(var + 1e-5f);
      for (size_t j = 0; j < row.size(); ++j) {
        row[j] = g.at(0, static_cast<int>(j)) * (row[j] - mean) * inv +
                 b.at(0, static_cast<int>(j));
      }
    }
    return x;
  }

  TransformerConfig c_;
  std::map<std::string, const Matrix*> by_name_;
};

/// Redraws every parameter at a scale that exercises the nonlinearities:
/// weights N(0, 0.3), embeddings and relative biases N(0, 1), LayerNorm
/// gains 1 + N(0, 0.3).
void Rescale(ParamStore& params, u64 seed) {
  Rng rng(seed);
  for (size_t i = 0; i < params.params().size(); ++i) {
    const std::string& name = params.names()[i];
    Matrix& m = params.params()[i]->mutable_value();
    const bool unit = name.find("emb") != std::string::npos ||
                      name.find("rel_bias") != std::string::npos;
    m.RandomNormal(rng, unit ? 1.0 : 0.3);
    if (name.find("_g") != std::string::npos) {
      for (size_t j = 0; j < m.size(); ++j) m.data()[j] += 1.0f;
    }
  }
}

std::vector<std::vector<u32>> IdSequences(int vocab) {
  std::vector<std::vector<u32>> seqs;
  // Lengths cover a single token, odd and vector-width tails, the full
  // context, and an over-long sequence the encoder must truncate.
  for (int len : {1, 2, 7, 16, 37, 64, 90}) {
    std::vector<u32> ids;
    for (int i = 0; i < len; ++i) {
      ids.push_back(static_cast<u32>((i * 31 + len * 7) % vocab));
    }
    seqs.push_back(ids);
  }
  return seqs;
}

std::vector<kern::Tier> AvailableTiers() {
  std::vector<kern::Tier> tiers = {kern::Tier::kScalar};
  if (kern::DetectedTier() == kern::Tier::kAvx2) {
    tiers.push_back(kern::Tier::kAvx2);
  }
  return tiers;
}

TEST(EncoderReferenceTest, MatchesPlainLibmForward) {
  for (PositionMode mode :
       {PositionMode::kAbsolute, PositionMode::kRelativeBias}) {
    TransformerConfig tc;
    tc.vocab_size = 211;
    tc.position_mode = mode;
    TransformerEncoder enc(tc);
    Rescale(enc.params(), 77);
    const Reference ref(tc, enc.params());
    const char* mode_name =
        mode == PositionMode::kAbsolute ? "absolute" : "relative";
    for (kern::Tier tier : AvailableTiers()) {
      kern::ForceTierForTest(tier);
      double worst = 0.0;
      for (const auto& ids : IdSequences(tc.vocab_size)) {
        const std::vector<float> want = ref.Encode(ids);
        const std::vector<float> got = enc.EncodeToVector(ids);
        ASSERT_EQ(want.size(), got.size());
        for (size_t j = 0; j < got.size(); ++j) {
          const double diff = std::fabs(static_cast<double>(got[j]) - want[j]);
          worst = std::max(worst, diff);
          EXPECT_LE(diff, kTolerance)
              << mode_name << " " << kern::TierName(tier) << " len="
              << ids.size() << " j=" << j;
        }
      }
      kern::ClearForcedTierForTest();
      std::printf("encoder vs reference [%s, %s]: max abs diff %.3g\n",
                  mode_name, kern::TierName(tier), worst);
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace deepjoin
