// Transformer sequence encoder — the PLM substitute that DeepJoin
// fine-tunes. Two position-handling modes mirror the paper's two PLMs:
//   * kAbsolute      — learned absolute position embeddings, as in
//                      DistilBERT ("DistilSim").
//   * kRelativeBias  — learned per-head relative-position attention biases
//                      and no absolute positions, capturing the
//                      position-modeling axis MPNet improves on ("MPNetSim").
// Sentence embedding = mean pooling over token states (the
// sentence-transformers convention the paper uses).
#ifndef DEEPJOIN_NN_TRANSFORMER_H_
#define DEEPJOIN_NN_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.h"
#include "util/alloc_guard.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace deepjoin {
namespace nn {

enum class PositionMode { kAbsolute, kRelativeBias };

struct TransformerConfig {
  int vocab_size = 0;      ///< must be set by the caller
  int d_model = 48;
  int num_layers = 2;
  int num_heads = 4;
  int d_ff = 192;          ///< feed-forward inner width
  int max_seq_len = 64;
  PositionMode position_mode = PositionMode::kAbsolute;
  int rel_radius = 8;      ///< relative-bias clip radius (kRelativeBias)
  u64 seed = 1234;
};

/// Named parameter collection; the optimizer iterates over this.
class ParamStore {
 public:
  VarPtr Create(const std::string& name, int rows, int cols, Rng& rng,
                double stddev);
  /// Creates a parameter filled with a constant (for LayerNorm gains).
  VarPtr CreateConst(const std::string& name, int rows, int cols, float v);

  const std::vector<VarPtr>& params() const { return params_; }
  const std::vector<std::string>& names() const { return names_; }
  size_t NumScalars() const;
  void ZeroGrads();

 private:
  std::vector<VarPtr> params_;
  std::vector<std::string> names_;
};

class TransformerEncoder {
 public:
  explicit TransformerEncoder(const TransformerConfig& config);
  ~TransformerEncoder();  // out-of-line: Workspace is incomplete here

  const TransformerConfig& config() const { return config_; }
  ParamStore& params() { return params_; }

  /// Copies pre-trained vectors into the first min(d_model, dim) columns of
  /// the token embedding table. Stands in for language-model pre-training:
  /// ids produced by the caller's vocabulary are given subword-informed
  /// starting points.
  void InitTokenEmbedding(u32 token_id, const std::vector<float>& vec);

  /// Encodes a (truncated) id sequence to a [1, d_model] graph node.
  /// Builds a full autodiff graph unless a NoGradGuard is alive.
  VarPtr Encode(const std::vector<u32>& ids);

  /// Inference-only convenience: mean-pooled embedding as a plain vector.
  std::vector<float> EncodeToVector(const std::vector<u32>& ids);

  /// Allocation-free inference fast path: writes the [d_model] mean-pooled
  /// embedding to `out`. Runs through a pooled per-encoder Workspace
  /// (scratch matrices sized once for max_seq_len) instead of building an
  /// autograd graph, so the hot search/index loops do no per-op heap
  /// allocation. Bit-identical to Encode() under NoGradGuard in each
  /// kernel tier: both paths run the same kernels and the same per-row
  /// helpers (nn/row_ops.h, whose softmax and GELU go through the
  /// vectorized kern::Exp / kern::Gelu) in the same order. Across tiers
  /// the output differs in low-order bits only. Safe for concurrent calls
  /// (the workspace pool hands each call its own scratch — same scheme as
  /// HNSW's VisitedPool).
  /// DJ_NOALLOC steady state: after the workspace pool has warmed up.
  DJ_NOALLOC void EncodeToVector(const std::vector<u32>& ids, float* out);

 private:
  struct Layer {
    VarPtr wq, bq, wk, bk, wv, bv, wo, bo;
    VarPtr ln1_g, ln1_b;
    VarPtr ff1_w, ff1_b, ff2_w, ff2_b;
    VarPtr ln2_g, ln2_b;
    std::vector<VarPtr> rel_bias;  // one [1, 2R+1] table per head
  };

  struct Workspace;  // defined in transformer.cc

  std::unique_ptr<Workspace> AcquireWorkspace() DJ_EXCLUDES(ws_mu_);
  void ReleaseWorkspace(std::unique_ptr<Workspace> ws) DJ_EXCLUDES(ws_mu_);

  /// Runs the forward pass over `L` already-truncated ids into `out`
  /// ([d_model] floats) using only the workspace scratch.
  DJ_NOALLOC void ForwardNoGrad(const u32* ids, int L, Workspace& ws,
                                float* out);

  TransformerConfig config_;
  ParamStore params_;
  VarPtr token_emb_;  // [vocab, d]
  VarPtr pos_emb_;    // [max_seq, d] (absolute mode only)
  std::vector<Layer> layers_;

  // Reusable inference scratch, pooled so concurrent EncodeToVector calls
  // never share one (ColumnEncoder's concurrency contract fans encoding
  // across a ThreadPool).
  Mutex ws_mu_{"transformer.workspace", rank::kWorkspace};
  std::vector<std::unique_ptr<Workspace>> ws_free_ DJ_GUARDED_BY(ws_mu_);
};

}  // namespace nn
}  // namespace deepjoin

#endif  // DEEPJOIN_NN_TRANSFORMER_H_
