// Shared per-row forward arithmetic for the transformer ops. Both the
// autograd ops (nn/autograd.cc) and the allocation-free inference path
// (TransformerEncoder workspace forward in nn/transformer.cc) call these
// same inline functions, which is what makes the fast path bit-identical
// to the graph path: one definition, one operation order. Their
// transcendentals (softmax exp, GELU tanh) run through the vectorized
// util/kernels.h Exp / Gelu, so the two paths also share one dispatch
// tier per call; across tiers they differ only in low-order bits.
#ifndef DEEPJOIN_NN_ROW_OPS_H_
#define DEEPJOIN_NN_ROW_OPS_H_

#include <cmath>

#include "util/kernels.h"

namespace deepjoin {
namespace nn {

/// Tanh-approximation GELU (BERT's variant) over n values, through the
/// vectorized kern::Gelu. In-place (x == out) is allowed. The backward
/// recomputes the same tanh as kern::Tanh(kern::GeluTanhArg(x)).
inline void GeluRow(const float* x, float* out, int n) {
  kern::Gelu(n, x, out);
}

/// Numerically-stable softmax over one row of n scores; `mask`, if
/// non-null, is added to x first. The shifted scores go through one
/// vectorized kern::Exp; the normaliser is summed in double. In-place
/// (x == out) is allowed: every element is read before it is written.
inline void SoftmaxRow(const float* x, const float* mask, float* out,
                       int n) {
  float maxv = -1e30f;
  for (int j = 0; j < n; ++j) {
    const float v = x[j] + (mask ? mask[j] : 0.0f);
    out[j] = v;
    if (v > maxv) maxv = v;
  }
  for (int j = 0; j < n; ++j) out[j] -= maxv;
  kern::Exp(n, out, out);
  double sum = 0.0;
  for (int j = 0; j < n; ++j) sum += out[j];
  const float inv = static_cast<float>(1.0 / sum);
  for (int j = 0; j < n; ++j) out[j] *= inv;
}

/// LayerNorm over one row with learned gain/bias. Mean/variance accumulate
/// in double (the documented exception to float accumulation: n <= d_ff
/// and the backward pass depends on a well-conditioned inverse stddev).
/// Writes the normalized row to `xhat` when non-null (the backward pass
/// caches it) and returns the inverse stddev. In-place (x == out) is
/// allowed: per element, x[j] is read before out[j] is written.
inline float LayerNormRow(const float* x, int n, const float* gamma,
                          const float* beta, float eps, float* xhat,
                          float* out) {
  double mean = 0.0;
  for (int j = 0; j < n; ++j) mean += x[j];
  mean /= n;
  double var = 0.0;
  for (int j = 0; j < n; ++j) {
    const double d = x[j] - mean;
    var += d * d;
  }
  var /= n;
  const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
  const float fmean = static_cast<float>(mean);
  for (int j = 0; j < n; ++j) {
    const float h = (x[j] - fmean) * is;
    if (xhat != nullptr) xhat[j] = h;
    out[j] = gamma[j] * h + beta[j];
  }
  return is;
}

/// Relative-position bucket for score position (i, j) with clip radius R:
/// clamp(j - i + R, 0, buckets - 1) where buckets = 2R + 1.
inline int RelPosBucket(int i, int j, int radius, int buckets) {
  int b = j - i + radius;
  if (b < 0) b = 0;
  if (b >= buckets) b = buckets - 1;
  return b;
}

}  // namespace nn
}  // namespace deepjoin

#endif  // DEEPJOIN_NN_ROW_OPS_H_
