// Runtime-dispatched compute kernels — the single home for SIMD in this
// tree (enforced by dj_lint rule `simd-intrinsics`). Every hot float loop
// in the repo (GEMM for training/inference, L2 distances for ANN search,
// axpy/scale for autograd) routes through this API.
//
// Dispatch: one of two tiers is selected once, at first use, via cpuid:
//   kAvx2   — AVX2 + FMA vector paths (x86-64 with both features)
//   kScalar — portable scalar fallback (also forced by setting the
//             environment variable DJ_FORCE_SCALAR_KERNELS=1, for parity
//             testing and for reproducing results across machines)
// Tests may pin the tier in-process with ForceTierForTest().
//
// Determinism contract (DESIGN.md §8): every kernel has a FIXED, documented
// reduction order per tier. Two calls with the same inputs in the same tier
// return bit-identical results — regardless of pointer alignment, leading
// dimensions, blocking, or how callers partition rows across threads.
// Results may differ in low-order bits BETWEEN tiers (the AVX2 tier uses
// fused multiply-add and multi-lane reduction trees); anything that must be
// reproducible across machines should pin the scalar tier.
//
// Reduction orders:
//  * Dot / SquaredL2, scalar tier: one sequential accumulator over i
//    ascending, unfused (`acc = acc + a[i]*b[i]` — two roundings).
//  * Dot / SquaredL2, AVX2 tier: two 8-lane FMA accumulators acc0/acc1 fed
//    by interleaved 16-element blocks (acc0 takes lanes [16t, 16t+8),
//    acc1 takes [16t+8, 16t+16)); one optional extra 8-element block into
//    acc0; lanewise acc = acc0 + acc1; horizontal sum in the fixed order
//    ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)); then the <8 tail folded in
//    sequentially with std::fma.
//  * Sgemm{NN,NT,TN}, both tiers: each C(i,j) is a single chain over k —
//    seeded at 0 per KC-sized k-block (KC = 256), k ascending within the
//    block (AVX2: one FMA per step; scalar: unfused multiply-add), block
//    sums added into C in ascending block order. The chain never depends
//    on the variant, tile position, or m/n partitioning, which is what
//    makes row-parallel GEMM bit-identical to serial.
//  * Axpy (y += a*x) and ScaleAdd (y = a*x + b*y): elementwise; AVX2 uses
//    fma(a, x, y) resp. fma(b, y, a*x), scalar keeps separate roundings.
//    With a == 1, Axpy is an exact add in both tiers (1*x is exact), so
//    pure additions stay bit-identical across tiers. ScaleAdd with b == 0
//    writes a*x without reading y (safe on uninitialised y).
//  * SquaredL2Sq8 (asymmetric: float query vs SQ8 codes), scalar tier: one
//    sequential accumulator over i ascending; per element the decode is
//    unfused (t = scale[i]*codes[i]; v = lo[i]+t — two roundings), then
//    d = q[i]-v and acc = acc + d*d (unfused).
//  * SquaredL2Sq8, AVX2 tier: same two-accumulator interleaved-16 shape as
//    SquaredL2 (acc0 takes lanes [16t, 16t+8), acc1 [16t+8, 16t+16); one
//    optional extra 8-block into acc0). Per 8-lane block the codes are
//    widened u8 -> i32 -> float (exact for values <= 255), decoded with a
//    single FMA v = fma(scale, code, lo), then d = q - v and
//    acc = fma(d, d, acc). Horizontal sum in the same fixed order
//    ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)); the <8 tail folds in
//    sequentially with std::fma for both the decode and the accumulate.
//
// Elementwise transcendentals (Exp, Tanh, Gelu). One lane formula per tier,
// applied to every element; the AVX2 tier runs its <8 tail through the same
// vector lane code on a padded copy, so y[i] depends only on x[i] — never
// on n, i, alignment, or x == y aliasing. Cephes-style: range reduction
// plus a minimax polynomial, no table. AVX2 evaluates the polynomials and
// reductions with FMA; scalar keeps every multiply-add as two roundings
// (kernels.cc is compiled with -ffp-contract=off, so "unfused" is what the
// scalar tier and the non-FMA lane steps really execute). The tiers
// therefore differ in low-order bits only.
//  * Exp: n = floor(x*log2(e) + 0.5); r = x - n*C1 - n*C2 (ln 2 split
//    Cody-Waite); p = degree-5 polynomial in r (Cephes expf), e^r =
//    p*r^2 + r + 1; y = (e^r * 2^(n>>1)) * 2^(n - (n>>1)), the split
//    scale keeping gradual underflow to 0 and overflow to +inf exact.
//    Measured error against double std::exp over [-87.3, 88.7] (results
//    in the normal range): 0.97 ulp scalar, 1.00 ulp AVX2; tested bound
//    3 ulp.
//  * Tanh: a = |x|; a < 0.625: a + (P(a^2)*a^2)*a (Cephes tanhf); else
//    1 - 2/(Exp(2a) + 1) with the Exp lane above; the sign of x is then
//    copied onto the result, so Tanh(-x) == -Tanh(x) exactly. Measured
//    error against double std::tanh over [-12, 12], both tiers: 7.9e-8
//    absolute; tested bound 2.5e-7.
//  * Gelu: y = (0.5*x) * (1 + Tanh(GeluTanhArg(x))), unfused, with
//    GeluTanhArg (below) and the Tanh lane exactly as above — a caller
//    that recomputes the tanh (the GELU backward) gets the forward's bits.
//    Measured error against the double-precision formula over [-12, 12],
//    both tiers: 1.1e-7 * max(1, |x|); tested bound 2.5e-7 * max(1, |x|).
//  Special values, both tiers: NaN in -> NaN out (the input NaN, never a
//  clamped finite number); Exp(-inf) = 0, Exp(x >= 88.8) = +inf (true
//  overflow starts at 88.7228), Exp results below FLT_MIN underflow
//  gradually to 0; Tanh(+-inf) = +-1, Tanh(+-0) = +-0; Gelu(+inf) = +inf.
//
// Alignment: kernels never REQUIRE alignment (all loads/stores are
// unaligned ops); nn::Matrix guarantees 64-byte-aligned storage so the
// common case runs on aligned addresses anyway.
#ifndef DEEPJOIN_UTIL_KERNELS_H_
#define DEEPJOIN_UTIL_KERNELS_H_

#include <cstddef>
#include <new>

#include "util/alloc_guard.h"
#include "util/common.h"

namespace deepjoin {
namespace kern {

enum class Tier { kScalar, kAvx2 };

/// The tier every kernel call dispatches on: the forced-for-test tier if
/// set, else the detected one. Detection runs once (cpuid + the
/// DJ_FORCE_SCALAR_KERNELS environment variable) and is then cached.
Tier ActiveTier();

/// What the hardware (plus DJ_FORCE_SCALAR_KERNELS) supports, ignoring any
/// ForceTierForTest override.
Tier DetectedTier();

const char* TierName(Tier tier);

/// Test hook: pin the dispatch tier in-process. Forcing kAvx2 on hardware
/// without AVX2+FMA is a checked error. Not thread-safe against concurrent
/// kernel calls — flip tiers only between test phases.
void ForceTierForTest(Tier tier);
void ClearForcedTierForTest();

// Every kernel below is DJ_NOALLOC: pure loops over caller-owned buffers
// (the contract tools/dj_alloc verifies across both dispatch tiers).

/// sum_i a[i]*b[i]
DJ_NOALLOC float Dot(const float* a, const float* b, int n);

/// sum_i (a[i]-b[i])^2
DJ_NOALLOC float SquaredL2(const float* a, const float* b, int n);

/// Fused asymmetric SQ8 distance: sum_i (q[i] - (lo[i] + scale[i] *
/// codes[i]))^2. The quantized row is decoded lane-by-lane inside the
/// accumulation loop (never materialised), which is what lets quantized
/// search run without a per-row decompress buffer.
DJ_NOALLOC float SquaredL2Sq8(const float* q, const u8* codes,
                              const float* lo, const float* scale, int n);

/// y[i] += alpha * x[i]
DJ_NOALLOC void Axpy(int n, float alpha, const float* x, float* y);

/// y[i] = alpha * x[i] + beta * y[i]; beta == 0 never reads y (so y may be
/// uninitialised), and x == y aliasing is allowed.
DJ_NOALLOC void ScaleAdd(int n, float alpha, const float* x, float beta,
                         float* y);

// Elementwise transcendentals over n floats (error bounds and special
// values above). x == y is allowed; any other overlap is not.

/// y[i] = e^x[i]
DJ_NOALLOC void Exp(int n, const float* x, float* y);

/// y[i] = tanh(x[i])
DJ_NOALLOC void Tanh(int n, const float* x, float* y);

/// y[i] = GELU(x[i]), the tanh approximation (BERT's variant):
/// 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).
DJ_NOALLOC void Gelu(int n, const float* x, float* y);

inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

/// The tanh argument of Gelu, evaluated exactly as Gelu's lane code does in
/// both tiers (five separately rounded operations, left to right), so
/// Tanh(GeluTanhArg(x)) reproduces the tanh inside Gelu(x) bit for bit.
inline float GeluTanhArg(float x) {
  return kGeluC * (x + kGeluA * x * x * x);
}

// Blocked, packed single-precision GEMM, accumulating: C += op(A) @ op(B).
// All matrices are row-major with explicit leading dimensions (so callers
// can run on sub-views, e.g. per-head column slices, without copies).
//   NN: A is [m,k] (lda >= k), B is [k,n] (ldb >= n)
//   NT: A is [m,k] (lda >= k), B is [n,k] (ldb >= k)  — C += A @ B^T
//   TN: A is [k,m] (lda >= m), B is [k,n] (ldb >= n)  — C += A^T @ B
// C is [m,n] (ldc >= n) and must not alias A or B.
// DJ_NOALLOC steady state: the thread-local pack/accumulator scratch
// grows to the largest (n, k) seen and then reuses capacity.
DJ_NOALLOC void SgemmNN(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc);
DJ_NOALLOC void SgemmNT(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc);
DJ_NOALLOC void SgemmTN(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc);

/// Minimal aligned allocator so nn::Matrix (and kernel tests) can keep
/// rows on cache-line boundaries. Value-initialises like std::allocator.
template <typename T, size_t Alignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two >= alignof(T)");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}  // NOLINT

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    // Placement-form operator new is the ownership-explicit aligned
    // allocation primitive; deallocate() below is its paired release.
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

}  // namespace kern
}  // namespace deepjoin

#endif  // DEEPJOIN_UTIL_KERNELS_H_
