#include "util/kernels.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

// The one translation unit allowed to touch SIMD intrinsics (dj_lint rule
// `simd-intrinsics`). The AVX2 paths are compiled with per-function target
// attributes so the file builds with the tree's baseline flags and the
// vector code is only ever *executed* after a cpuid check.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DJ_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace deepjoin {
namespace kern {

namespace {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// 0 = no override, else 1 + static_cast<int>(Tier).
std::atomic<int> g_forced_tier{0};

Tier DetectTierOnce() {
  const char* force = std::getenv("DJ_FORCE_SCALAR_KERNELS");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Tier::kScalar;
  }
#if DJ_KERNELS_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Tier::kAvx2;
  }
#endif
  return Tier::kScalar;
}

// ---------------------------------------------------------------------------
// Scalar tier
// ---------------------------------------------------------------------------

float DotScalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredL2Scalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float SquaredL2Sq8Scalar(const float* q, const u8* codes, const float* lo,
                         const float* scale, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float v = lo[i] + scale[i] * static_cast<float>(codes[i]);
    const float d = q[i] - v;
    acc += d * d;
  }
  return acc;
}

void AxpyScalar(int n, float alpha, const float* x, float* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAddScalar(int n, float alpha, const float* x, float beta,
                    float* y) {
  if (beta == 0.0f) {
    for (int i = 0; i < n; ++i) y[i] = alpha * x[i];
  } else {
    for (int i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
  }
}

// Elementwise transcendentals (util/kernels.h): constants shared by both
// tiers, so the tiers differ only in fused vs unfused evaluation.
constexpr float kExpLo = -110.0f;  // e^-110 rounds to 0 (below denormals)
constexpr float kExpHi = 89.0f;    // e^89 overflows to +inf
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;     // Cody-Waite split of ln 2:
constexpr float kLn2Lo = -2.12194440e-4f;  // kLn2Hi has 9 significant bits
// Cephes expf: e^r ~= 1 + r + r^2 * P(r) on |r| <= ln(2)/2.
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;
// Cephes tanhf: tanh(a) ~= a + a^3 * P(a^2) on a < kTanhSmall.
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhP0 = -5.70498872745e-3f;
constexpr float kTanhP1 = 2.06390887954e-2f;
constexpr float kTanhP2 = -5.37397155531e-2f;
constexpr float kTanhP3 = 1.33314422036e-1f;
constexpr float kTanhP4 = -3.33332819422e-1f;

/// 2^e for e in [-126, 127], built from its exponent bits.
float Pow2Scalar(int e) { return std::bit_cast<float>((e + 127) << 23); }

float ExpLaneScalar(float x) {
  if (std::isnan(x)) return x;
  const float xc = x < kExpLo ? kExpLo : (x > kExpHi ? kExpHi : x);
  const float fn = std::floor(xc * kLog2e + 0.5f);
  float r = xc - fn * kLn2Hi;
  r = r - fn * kLn2Lo;
  float p = kExpP0 * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  p = p * (r * r) + r;
  p = p + 1.0f;
  // fn is an integer in [-159, 128]; each half-scale is a normal power of
  // two, and only the last multiply rounds (gradual underflow / overflow).
  const int n = static_cast<int>(fn);
  const int n1 = n >> 1;
  return (p * Pow2Scalar(n1)) * Pow2Scalar(n - n1);
}

float TanhLaneScalar(float x) {
  if (std::isnan(x)) return x;
  const float a = std::fabs(x);
  float t = 0.0f;
  if (a < kTanhSmall) {
    const float z = a * a;
    float p = kTanhP0 * z + kTanhP1;
    p = p * z + kTanhP2;
    p = p * z + kTanhP3;
    p = p * z + kTanhP4;
    t = (p * z) * a + a;
  } else {
    t = 1.0f - 2.0f / (ExpLaneScalar(a + a) + 1.0f);
  }
  return std::copysign(t, x);
}

float GeluLaneScalar(float x) {
  const float t = TanhLaneScalar(GeluTanhArg(x));
  return (0.5f * x) * (1.0f + t);
}

template <float (*Lane)(float)>
void MapScalar(int n, const float* x, float* y) {
  for (int i = 0; i < n; ++i) y[i] = Lane(x[i]);
}

// GEMM blocking constants, shared by both tiers so the per-element chain
// (seeded 0 per KC block of k, ascending within it) is tier-independent in
// SHAPE — only the fused-vs-unfused arithmetic differs.
constexpr int kKC = 256;  // k-block: one block covers every repo shape
constexpr int kMR = 4;    // microkernel rows
constexpr int kNR = 16;   // microkernel cols (two 8-float AVX2 lanes)

enum class Variant { kNN, kNT, kTN };

// Element access for op(A)/op(B) under each variant: a(i, p) is the (i,
// p) entry of op(A) [m,k]; b(p, j) the (p, j) entry of op(B) [k,n].
inline float AElem(Variant v, const float* a, int lda, int i, int p) {
  return v == Variant::kTN ? a[static_cast<size_t>(p) * lda + i]
                           : a[static_cast<size_t>(i) * lda + p];
}
inline float BElem(Variant v, const float* b, int ldb, int p, int j) {
  return v == Variant::kNT ? b[static_cast<size_t>(j) * ldb + p]
                           : b[static_cast<size_t>(p) * ldb + j];
}

/// Scalar GEMM. Per row, a temporary accumulator strip tmp[0..n) holds the
/// KC-block partial sums: tmp[j] is exactly the documented chain (seeded 0,
/// k ascending, unfused multiply-add), added to C per block. The strip
/// keeps the inner loop streaming over contiguous memory for NN/TN.
void SgemmScalar(Variant variant, int m, int n, int k, const float* a,
                 int lda, const float* b, int ldb, float* c, int ldc) {
  // Capacity-reusing per-thread strip: grows to the widest n, then warm.
  thread_local std::vector<float> tmp;           // dj_alloc: allow(alloc)
  if (static_cast<int>(tmp.size()) < n) tmp.resize(n);  // dj_alloc: allow(alloc)
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<size_t>(i) * ldc;
    for (int k0 = 0; k0 < k; k0 += kKC) {
      const int kc = std::min(kKC, k - k0);
      if (variant == Variant::kNT) {
        // Row-major B^T: a dot product per output, chain order identical
        // to the strip path (same seed, same ascending k).
        for (int j = 0; j < n; ++j) {
          const float* arow = a + static_cast<size_t>(i) * lda + k0;
          const float* brow = b + static_cast<size_t>(j) * ldb + k0;
          float partial = 0.0f;
          for (int p = 0; p < kc; ++p) partial += arow[p] * brow[p];
          crow[j] += partial;
        }
        continue;
      }
      for (int j = 0; j < n; ++j) tmp[j] = 0.0f;
      for (int p = 0; p < kc; ++p) {
        const float av = AElem(variant, a, lda, i, k0 + p);
        const float* brow = b + static_cast<size_t>(k0 + p) * ldb;
        for (int j = 0; j < n; ++j) tmp[j] += av * brow[j];
      }
      for (int j = 0; j < n; ++j) crow[j] += tmp[j];
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 tier
// ---------------------------------------------------------------------------

#if DJ_KERNELS_X86

__attribute__((target("avx2,fma")))
float DotAvx2(const float* a, const float* b, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    i += 8;
  }
  // Fixed-order horizontal sum: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
  const __m256 acc = _mm256_add_ps(acc0, acc1);
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 s4 = _mm_add_ps(lo, hi);
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_movehdup_ps(s2));
  float sum = _mm_cvtss_f32(s1);
  for (; i < n; ++i) sum = std::fma(a[i], b[i], sum);
  return sum;
}

__attribute__((target("avx2,fma")))
float SquaredL2Avx2(const float* a, const float* b, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    i += 8;
  }
  const __m256 acc = _mm256_add_ps(acc0, acc1);
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 s4 = _mm_add_ps(lo, hi);
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_movehdup_ps(s2));
  float sum = _mm_cvtss_f32(s1);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum = std::fma(d, d, sum);
  }
  return sum;
}

// Widens 8 SQ8 codes to floats (exact: u8 values fit a float) and decodes
// them with a single FMA per lane — the decode never leaves registers.
__attribute__((target("avx2,fma")))
inline __m256 DecodeSq8Block(const u8* codes, const float* lo,
                             const float* scale) {
  const __m256i wide = _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes)));
  return _mm256_fmadd_ps(_mm256_loadu_ps(scale), _mm256_cvtepi32_ps(wide),
                         _mm256_loadu_ps(lo));
}

__attribute__((target("avx2,fma")))
float SquaredL2Sq8Avx2(const float* q, const u8* codes, const float* lo,
                       const float* scale, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q + i),
                                    DecodeSq8Block(codes + i, lo + i,
                                                   scale + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q + i + 8),
                                    DecodeSq8Block(codes + i + 8, lo + i + 8,
                                                   scale + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q + i),
                                    DecodeSq8Block(codes + i, lo + i,
                                                   scale + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    i += 8;
  }
  const __m256 acc = _mm256_add_ps(acc0, acc1);
  const __m128 lo128 = _mm256_castps256_ps128(acc);
  const __m128 hi128 = _mm256_extractf128_ps(acc, 1);
  const __m128 s4 = _mm_add_ps(lo128, hi128);
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_movehdup_ps(s2));
  float sum = _mm_cvtss_f32(s1);
  for (; i < n; ++i) {
    const float v = std::fma(scale[i], static_cast<float>(codes[i]), lo[i]);
    const float d = q[i] - v;
    sum = std::fma(d, d, sum);
  }
  return sum;
}

__attribute__((target("avx2,fma")))
void AxpyAvx2(int n, float alpha, const float* x, float* y) {
  const __m256 av = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

__attribute__((target("avx2,fma")))
void ScaleAddAvx2(int n, float alpha, const float* x, float beta, float* y) {
  const __m256 av = _mm256_set1_ps(alpha);
  int i = 0;
  if (beta == 0.0f) {
    // Pure y = alpha*x: a plain multiply in both tiers, so this case stays
    // bit-identical across tiers and never reads (possibly garbage) y.
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
    }
    for (; i < n; ++i) y[i] = alpha * x[i];
    return;
  }
  const __m256 bv = _mm256_set1_ps(beta);
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(bv, _mm256_loadu_ps(y + i), t));
  }
  for (; i < n; ++i) y[i] = std::fma(beta, y[i], alpha * x[i]);
}

// Vector lanes of the elementwise transcendentals: the same constants and
// step order as the *LaneScalar functions, with FMA where those multiply
// and add. NaN inputs are blended back at the end, because the min/max
// clamps would otherwise turn them into finite numbers.
__attribute__((target("avx2,fma")))
inline __m256 ExpLaneAvx2(__m256 x) {
  const __m256 xc = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(kExpLo)),
                                  _mm256_set1_ps(kExpHi));
  const __m256 fn = _mm256_floor_ps(_mm256_fmadd_ps(
      xc, _mm256_set1_ps(kLog2e), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_fnmadd_ps(fn, _mm256_set1_ps(kLn2Hi), xc);
  r = _mm256_fnmadd_ps(fn, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_fmadd_ps(_mm256_set1_ps(kExpP0), r,
                             _mm256_set1_ps(kExpP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP5));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvtps_epi32(fn);  // exact: fn is integral
  const __m256i n1 = _mm256_srai_epi32(n, 1);
  const __m256i n2 = _mm256_sub_epi32(n, n1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n2, bias), 23));
  const __m256 y = _mm256_mul_ps(_mm256_mul_ps(p, s1), s2);
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

__attribute__((target("avx2,fma")))
inline __m256 TanhLaneAvx2(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 a = _mm256_andnot_ps(sign, x);
  const __m256 z = _mm256_mul_ps(a, a);
  __m256 p = _mm256_fmadd_ps(_mm256_set1_ps(kTanhP0), z,
                             _mm256_set1_ps(kTanhP1));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP2));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP3));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP4));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), a, a);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpLaneAvx2(_mm256_add_ps(a, a));
  const __m256 large = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  const __m256 t = _mm256_blendv_ps(
      large, small, _mm256_cmp_ps(a, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ));
  const __m256 y = _mm256_or_ps(t, _mm256_and_ps(sign, x));
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

__attribute__((target("avx2,fma")))
inline __m256 GeluLaneAvx2(__m256 x) {
  // GeluTanhArg, operation for operation: kGeluC * (x + ((kGeluA*x)*x)*x).
  __m256 u = _mm256_mul_ps(_mm256_set1_ps(kGeluA), x);
  u = _mm256_mul_ps(_mm256_mul_ps(u, x), x);
  u = _mm256_mul_ps(_mm256_set1_ps(kGeluC), _mm256_add_ps(x, u));
  const __m256 t = TanhLaneAvx2(u);
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), t));
}

/// Applies an 8-lane function to n floats. The <8 tail goes through the
/// same lane code on a zero-padded copy, so every element gets the same
/// arithmetic wherever it sits.
template <__m256 (*Lane)(__m256)>
__attribute__((target("avx2,fma")))
void MapAvx2(int n, const float* x, float* y) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Lane(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    alignas(32) float buf[8] = {0};
    std::memcpy(buf, x + i, sizeof(float) * static_cast<size_t>(n - i));
    _mm256_store_ps(buf, Lane(_mm256_load_ps(buf)));
    std::memcpy(y + i, buf, sizeof(float) * static_cast<size_t>(n - i));
  }
}

// Mask table for partial 8-lane column groups: Mask8(v) has the first v
// lanes enabled. (Entry layout: 8 ones then 8 zeros; slide the window.)
alignas(32) constexpr int kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};

__attribute__((target("avx2")))
inline __m256i Mask8(int valid) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - valid));
}

/// 4x16 FMA microkernel over one packed KC block. ap holds kc steps of 4
/// A values (k-major: ap[p*4 + r]); bp holds kc steps of 16 B values
/// (bp[p*16 + j]); both zero-padded, so every accumulator lane is the
/// documented single FMA chain. Adds the block sums into C, touching only
/// the `rows` x `cols` valid corner.
__attribute__((target("avx2,fma")))
void MicroKernel4x16(int kc, const float* ap, const float* bp, float* c,
                     int ldc, int rows, int cols) {
  __m256 acc[kMR][2];
  for (int r = 0; r < kMR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNR + 8);
    for (int r = 0; r < kMR; ++r) {
      const __m256 av = _mm256_set1_ps(ap[p * kMR + r]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < rows; ++r) {
    float* crow = c + static_cast<size_t>(r) * ldc;
    for (int half = 0; half < 2; ++half) {
      const int valid = std::min(8, cols - half * 8);
      if (valid <= 0) break;
      float* cp = crow + half * 8;
      if (valid == 8) {
        _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), acc[r][half]));
      } else {
        const __m256i mask = Mask8(valid);
        const __m256 cv = _mm256_maskload_ps(cp, mask);
        _mm256_maskstore_ps(cp, mask, _mm256_add_ps(cv, acc[r][half]));
      }
    }
  }
}

/// Packs the kc x `cols` block of op(B) at (k0, j0) into a zero-padded
/// kc x kNR panel, k-major.
void PackBPanel(Variant variant, const float* b, int ldb, int k0, int kc,
                int j0, int cols, float* out) {
  for (int p = 0; p < kc; ++p) {
    float* dst = out + static_cast<size_t>(p) * kNR;
    if (variant == Variant::kNT) {
      for (int j = 0; j < cols; ++j) {
        dst[j] = b[static_cast<size_t>(j0 + j) * ldb + k0 + p];
      }
    } else {
      const float* src = b + static_cast<size_t>(k0 + p) * ldb + j0;
      for (int j = 0; j < cols; ++j) dst[j] = src[j];
    }
    for (int j = cols; j < kNR; ++j) dst[j] = 0.0f;
  }
}

/// Packs the `rows` x kc block of op(A) at (i0, k0) into a zero-padded
/// kc x kMR panel, k-major.
void PackAPanel(Variant variant, const float* a, int lda, int i0, int rows,
                int k0, int kc, float* out) {
  if (variant == Variant::kTN) {
    for (int p = 0; p < kc; ++p) {
      const float* src = a + static_cast<size_t>(k0 + p) * lda + i0;
      float* dst = out + static_cast<size_t>(p) * kMR;
      for (int r = 0; r < rows; ++r) dst[r] = src[r];
      for (int r = rows; r < kMR; ++r) dst[r] = 0.0f;
    }
    return;
  }
  for (int p = 0; p < kc; ++p) {
    float* dst = out + static_cast<size_t>(p) * kMR;
    for (int r = 0; r < rows; ++r) {
      dst[r] = a[static_cast<size_t>(i0 + r) * lda + k0 + p];
    }
    for (int r = rows; r < kMR; ++r) dst[r] = 0.0f;
  }
}

using PackVector = std::vector<float, AlignedAllocator<float, 64>>;

struct PackBuffers {
  PackVector a;
  PackVector b;
};

PackBuffers& TlsPackBuffers() {
  thread_local PackBuffers buffers;
  return buffers;
}

/// Blocked, packed GEMM driver (AVX2 tier). Per KC block: pack all of B
/// once, then stream kMR-row panels of A through the microkernel. The
/// zero padding in both panels means padded lanes/rows compute harmless
/// garbage that is never stored, and every stored element is the
/// documented chain.
void SgemmAvx2(Variant variant, int m, int n, int k, const float* a, int lda,
               const float* b, int ldb, float* c, int ldc) {
  PackBuffers& bufs = TlsPackBuffers();
  const int n_panels = (n + kNR - 1) / kNR;
  const size_t bneed = static_cast<size_t>(n_panels) *
                       static_cast<size_t>(std::min(k, kKC)) * kNR;
  // Pack buffers reuse thread-local capacity; growth is warmup-only.
  if (bufs.b.size() < bneed) bufs.b.resize(bneed);  // dj_alloc: allow(alloc)
  const size_t aneed = static_cast<size_t>(std::min(k, kKC)) * kMR;
  if (bufs.a.size() < aneed) bufs.a.resize(aneed);  // dj_alloc: allow(alloc)

  for (int k0 = 0; k0 < k; k0 += kKC) {
    const int kc = std::min(kKC, k - k0);
    for (int jp = 0; jp < n_panels; ++jp) {
      const int j0 = jp * kNR;
      PackBPanel(variant, b, ldb, k0, kc, j0, std::min(kNR, n - j0),
                 bufs.b.data() + static_cast<size_t>(jp) * kc * kNR);
    }
    for (int i0 = 0; i0 < m; i0 += kMR) {
      const int rows = std::min(kMR, m - i0);
      PackAPanel(variant, a, lda, i0, rows, k0, kc, bufs.a.data());
      for (int jp = 0; jp < n_panels; ++jp) {
        const int j0 = jp * kNR;
        MicroKernel4x16(kc, bufs.a.data(),
                        bufs.b.data() + static_cast<size_t>(jp) * kc * kNR,
                        c + static_cast<size_t>(i0) * ldc + j0, ldc, rows,
                        std::min(kNR, n - j0));
      }
    }
  }
}

#endif  // DJ_KERNELS_X86

void SgemmDispatch(Variant variant, int m, int n, int k, const float* a,
                   int lda, const float* b, int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    SgemmAvx2(variant, m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
#endif
  SgemmScalar(variant, m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace

Tier DetectedTier() {
  static const Tier tier = DetectTierOnce();
  return tier;
}

Tier ActiveTier() {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced != 0) return static_cast<Tier>(forced - 1);
  return DetectedTier();
}

const char* TierName(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2+fma" : "scalar";
}

void ForceTierForTest(Tier tier) {
  if (tier == Tier::kAvx2) {
#if DJ_KERNELS_X86
    DJ_CHECK_MSG(__builtin_cpu_supports("avx2") &&
                     __builtin_cpu_supports("fma"),
                 "cannot force the AVX2 tier: hardware lacks avx2+fma");
#else
    DJ_CHECK_MSG(false, "cannot force the AVX2 tier: not an x86-64 build");
#endif
  }
  g_forced_tier.store(1 + static_cast<int>(tier), std::memory_order_relaxed);
}

void ClearForcedTierForTest() {
  g_forced_tier.store(0, std::memory_order_relaxed);
}

float Dot(const float* a, const float* b, int n) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) return DotAvx2(a, b, n);
#endif
  return DotScalar(a, b, n);
}

float SquaredL2(const float* a, const float* b, int n) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) return SquaredL2Avx2(a, b, n);
#endif
  return SquaredL2Scalar(a, b, n);
}

float SquaredL2Sq8(const float* q, const u8* codes, const float* lo,
                   const float* scale, int n) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    return SquaredL2Sq8Avx2(q, codes, lo, scale, n);
  }
#endif
  return SquaredL2Sq8Scalar(q, codes, lo, scale, n);
}

void Axpy(int n, float alpha, const float* x, float* y) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    AxpyAvx2(n, alpha, x, y);
    return;
  }
#endif
  AxpyScalar(n, alpha, x, y);
}

void ScaleAdd(int n, float alpha, const float* x, float beta, float* y) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    ScaleAddAvx2(n, alpha, x, beta, y);
    return;
  }
#endif
  ScaleAddScalar(n, alpha, x, beta, y);
}

void Exp(int n, const float* x, float* y) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    MapAvx2<ExpLaneAvx2>(n, x, y);
    return;
  }
#endif
  MapScalar<ExpLaneScalar>(n, x, y);
}

void Tanh(int n, const float* x, float* y) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    MapAvx2<TanhLaneAvx2>(n, x, y);
    return;
  }
#endif
  MapScalar<TanhLaneScalar>(n, x, y);
}

void Gelu(int n, const float* x, float* y) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    MapAvx2<GeluLaneAvx2>(n, x, y);
    return;
  }
#endif
  MapScalar<GeluLaneScalar>(n, x, y);
}

void SgemmNN(int m, int n, int k, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc) {
  SgemmDispatch(Variant::kNN, m, n, k, a, lda, b, ldb, c, ldc);
}

void SgemmNT(int m, int n, int k, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc) {
  SgemmDispatch(Variant::kNT, m, n, k, a, lda, b, ldb, c, ldc);
}

void SgemmTN(int m, int n, int k, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc) {
  SgemmDispatch(Variant::kTN, m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace kern
}  // namespace deepjoin
