// AVX2 + FMA kernel variants (x86-64). Compiled with -mavx2 -mfma when
// the SPCA_SIMD CMake gate is on; only ever *called* after the dispatcher
// verified AVX2+FMA via CPUID (see kernels.cc), so this TU may use the
// intrinsics unconditionally.
//
// Numerics: these are the tolerance tier. Fused multiply-adds round once
// instead of twice and the reductions (DotRow, and the per-column chains
// in SparseRowGemv/RowGemm k-blocking) run several accumulators in
// parallel, so results can differ from the scalar twins in the last ulps
// — kernels_test bounds the difference at 1e-12 relative on every kernel,
// and the fit golden is checked at the same tolerance when this path is
// dispatched. AddRow contains no multiplies and no reduction, so it stays
// bit-identical to scalar (and is tested exactly), and LuSolveRows
// multiplies and subtracts in separate instructions (the TU is built with
// -ffp-contract=off so the compiler cannot fuse them), which keeps it
// exact too. BlockGemm, BlockRankUpdate, BlockSymRankUpdate and
// SparseRowAxpy are the row-block forms of RowGemm, AxpyRow and
// SymRank1Update: the same FMAs per element in the same order, so they
// match this TU's per-row kernels bit for bit (kernels_test memcmps
// them).
//
// All loads/stores are unaligned ops (vmovupd): DenseMatrix aligns its
// allocations to 64 bytes so the hot rows usually *are* aligned (no
// cache-line split), but correctness never depends on it — kernels also
// run on arbitrary interior row slices.

#include "linalg/kernel_dispatch.h"

#if defined(SPCA_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#if defined(__GNUC__) || defined(__clang__)
#define SPCA_RESTRICT __restrict__
// The register stripes MUST inline into their caller: as a standalone
// function GCC leaves the __m256d acc[NV] array unpromoted (every
// accumulator round-trips through the stack each iteration); inlined,
// the array scalarizes fully into ymm registers.
#define SPCA_STRIPE_INLINE __attribute__((always_inline)) inline
#else
#define SPCA_RESTRICT
#define SPCA_STRIPE_INLINE inline
#endif

namespace spca::linalg::kernels::avx2 {
namespace {

inline double HSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

// Shared axpy body so Rank1Update's row loop inlines it without the
// dispatch indirection.
inline void AxpyRowImpl(double v, const double* b, size_t n, double* out) {
  const __m256d vv = _mm256_set1_pd(v);
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm256_storeu_pd(
        out + j,
        _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j), _mm256_loadu_pd(out + j)));
    _mm256_storeu_pd(out + j + 4,
                     _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j + 4),
                                     _mm256_loadu_pd(out + j + 4)));
    _mm256_storeu_pd(out + j + 8,
                     _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j + 8),
                                     _mm256_loadu_pd(out + j + 8)));
    _mm256_storeu_pd(out + j + 12,
                     _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j + 12),
                                     _mm256_loadu_pd(out + j + 12)));
  }
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        out + j,
        _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j), _mm256_loadu_pd(out + j)));
  }
  for (; j < n; ++j) out[j] = __builtin_fma(v, b[j], out[j]);
}

}  // namespace

void AxpyRow(double v, const double* b, size_t n, double* out) {
  AxpyRowImpl(v, b, n, out);
}

void AddRow(const double* b, size_t n, double* out) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(b + j)));
    _mm256_storeu_pd(out + j + 4, _mm256_add_pd(_mm256_loadu_pd(out + j + 4),
                                                _mm256_loadu_pd(b + j + 4)));
  }
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(b + j)));
  }
  for (; j < n; ++j) out[j] += b[j];
}

double DotRow(const double* a, const double* b, size_t n, double init) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 4),
                           _mm256_loadu_pd(b + j + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 8),
                           _mm256_loadu_pd(b + j + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 12),
                           _mm256_loadu_pd(b + j + 12), acc3);
  }
  for (; j + 4 <= n; j += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
  }
  double sum = HSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; j < n; ++j) sum = __builtin_fma(a[j], b[j], sum);
  return init + sum;
}

void Rank1Update(const double* a, size_t rows, const double* b, size_t cols,
                 double* out, size_t out_stride) {
  for (size_t i = 0; i < rows; ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    AxpyRowImpl(ai, b, cols, out + i * out_stride);
  }
}

void SymRank1Update(const double* x, size_t d, double* out, size_t stride) {
  // Row pairing: rows a and a+1 share every x[b] vector load, and the
  // per-row loop prologue/epilogue (the dominant cost for small d, where
  // triangle rows are only a handful of elements) is paid once per pair.
  // The 2x2 corner at the diagonal is peeled off scalar so both rows'
  // vector loops start at the same column a+2.
  size_t a = 0;
  for (; a + 2 <= d; a += 2) {
    const double xa0 = x[a];
    const double xa1 = x[a + 1];
    if (xa0 == 0.0 && xa1 == 0.0) continue;  // as Rank1Update skips zeros
    double* row0 = out + a * stride;
    double* row1 = row0 + stride;
    row0[a] = __builtin_fma(xa0, xa0, row0[a]);
    row0[a + 1] = __builtin_fma(xa0, xa1, row0[a + 1]);
    row1[a + 1] = __builtin_fma(xa1, xa1, row1[a + 1]);
    const __m256d v0 = _mm256_set1_pd(xa0);
    const __m256d v1 = _mm256_set1_pd(xa1);
    size_t b = a + 2;
    for (; b + 8 <= d; b += 8) {
      const __m256d xb0 = _mm256_loadu_pd(x + b);
      const __m256d xb1 = _mm256_loadu_pd(x + b + 4);
      _mm256_storeu_pd(row0 + b,
                       _mm256_fmadd_pd(v0, xb0, _mm256_loadu_pd(row0 + b)));
      _mm256_storeu_pd(
          row0 + b + 4,
          _mm256_fmadd_pd(v0, xb1, _mm256_loadu_pd(row0 + b + 4)));
      _mm256_storeu_pd(row1 + b,
                       _mm256_fmadd_pd(v1, xb0, _mm256_loadu_pd(row1 + b)));
      _mm256_storeu_pd(
          row1 + b + 4,
          _mm256_fmadd_pd(v1, xb1, _mm256_loadu_pd(row1 + b + 4)));
    }
    for (; b + 4 <= d; b += 4) {
      const __m256d xb = _mm256_loadu_pd(x + b);
      _mm256_storeu_pd(row0 + b,
                       _mm256_fmadd_pd(v0, xb, _mm256_loadu_pd(row0 + b)));
      _mm256_storeu_pd(row1 + b,
                       _mm256_fmadd_pd(v1, xb, _mm256_loadu_pd(row1 + b)));
    }
    for (; b < d; ++b) {
      row0[b] = __builtin_fma(xa0, x[b], row0[b]);
      row1[b] = __builtin_fma(xa1, x[b], row1[b]);
    }
  }
  if (a < d) {  // odd d: the last row is just its diagonal element
    double* row = out + a * stride;
    row[a] = __builtin_fma(x[a], x[a], row[a]);
  }
}

namespace {

// Lane mask for a partial (1-3 column) trailing vector. vmaskmovpd
// suppresses loads/stores (and faults) on disabled lanes, so the masked
// vector may extend past the end of a row.
inline __m256i TailMask(size_t rem) {
  alignas(32) static const int64_t kMask[3][4] = {
      {-1, 0, 0, 0}, {-1, -1, 0, 0}, {-1, -1, -1, 0}};
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kMask[rem - 1]));
}

// One column stripe of a row-times-matrix product, with the stripe of c
// held in NV ymm accumulators across the ENTIRE k sweep: c never touches
// memory inside the stripe, b is streamed through sequentially (hardware-
// prefetcher friendly), and each b cache line is read by exactly one
// stripe. NV = 12 (48 columns) uses 12 of the 16 ymm registers and keeps
// both FMA ports saturated; the d <= 48 shapes of the paper's workloads
// run as one stripe with zero c traffic.
//
// kHasRem appends a partial tail vector (`rem` = 1-3 columns) so a
// 50-wide row is ONE pass — peeling those columns into a scalar loop
// would re-stream b's tail cache lines and serialize on FMA latency
// (that chain alone cost ~25% of the d = 50 product). The tail is an
// ORDINARY unmasked load: lanes rem..3 read bytes past the logical row
// end, which the tail-padding contract (aligned.h, DESIGN.md par.8)
// guarantees are readable — either the next row's head or the buffer's
// zeroed padding. Their products are discarded by the masked store at
// the end, so only rem columns of c change. A per-iteration
// _mm256_maskload_pd here instead would cost an extra ymm for the mask
// plus a slower load µop and push the d = 50 shape past 16 live
// registers, forcing the stripe to split into two passes over b.
template <int NV, bool kHasRem>
SPCA_STRIPE_INLINE void RowGemmStripe(const double* SPCA_RESTRICT a_row,
                                      size_t k, const double* SPCA_RESTRICT b,
                                      size_t b_stride,
                                      double* SPCA_RESTRICT c, size_t rem) {
  static_assert(NV >= 1 && NV <= 12, "more than 12 vectors cannot stay "
                                     "register-resident");
  // Prefetch b a few rows ahead into L1: when b is bigger than L1 the
  // hardware stride prefetcher only pulls the rows as far as L2, and the
  // ~6 L1 misses per 50-column row otherwise serialize on the load
  // buffer. For L1-resident b the redundant prefetches cost ~a cycle per
  // row. Rows are b_stride (not 4*NV) apart, so for narrow stripes only
  // the stripe's own lines are touched.
  constexpr size_t kPrefetchRows = 4;
  constexpr int kPrefetchSpan = NV * 32 + (kHasRem ? 32 : 0);
  // Accumulators start at zero and c is folded in at the final store: if
  // they were initialized by loading c, GCC turns the init/store loops
  // into stack memcpys, the array stays memory-backed, and every
  // iteration pays NV dead stores.
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  __m256d accr = _mm256_setzero_pd();
  for (size_t kk = 0; kk < k; ++kk) {
    if (kk + kPrefetchRows < k) {
      const char* next =
          reinterpret_cast<const char*>(b + (kk + kPrefetchRows) * b_stride);
      for (int off = 0; off <= kPrefetchSpan; off += 64) {
        _mm_prefetch(next + off, _MM_HINT_T0);
      }
    }
    const __m256d vv = _mm256_set1_pd(a_row[kk]);
    const double* row = b + kk * b_stride;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * v), acc[v]);
    }
    if constexpr (kHasRem) {
      accr = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * NV), accr);
    }
  }
  for (int v = 0; v < NV; ++v) {
    _mm256_storeu_pd(c + 4 * v,
                     _mm256_add_pd(_mm256_loadu_pd(c + 4 * v), acc[v]));
  }
  if constexpr (kHasRem) {
    const __m256i mask = TailMask(rem);
    _mm256_maskstore_pd(
        c + 4 * NV, mask,
        _mm256_add_pd(_mm256_maskload_pd(c + 4 * NV, mask), accr));
  }
  if constexpr (!kHasRem) (void)rem;
}

// Same register-stripe shape for the sparse product, with the CSR entries
// innermost. The entry indices jump around the broadcast matrix, so every
// gathered row is a likely cache miss the hardware prefetcher cannot
// predict: prefetch the FULL stripe width of the row kPrefetchAhead
// entries out (~a cache-line per 8 doubles), far enough to cover L3
// latency at ~10 cycles of FMA work per entry.
template <int NV, bool kHasRem>
SPCA_STRIPE_INLINE void SparseGemvStripe(
    const SparseEntry* SPCA_RESTRICT entries, size_t nnz,
    const double* SPCA_RESTRICT b, size_t b_stride,
    double* SPCA_RESTRICT out, size_t rem) {
  static_assert(NV >= 1 && NV <= 12, "more than 12 vectors cannot stay "
                                     "register-resident");
  constexpr size_t kPrefetchAhead = 6;
  constexpr int kPrefetchSpan = NV * 32 + (kHasRem ? 32 : 0);
  // Zero-init + fold-in-at-store, for the same register-promotion reason
  // as RowGemmStripe. The tail vector is likewise a plain over-reading
  // load (tail-padding contract): a gathered row is any row of b
  // including the last, so without the padding every iteration would
  // need a masked load — there is no "last iteration" to peel.
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  __m256d accr = _mm256_setzero_pd();
  for (size_t k = 0; k < nnz; ++k) {
    if (k + kPrefetchAhead < nnz) {
      const char* next = reinterpret_cast<const char*>(
          b + entries[k + kPrefetchAhead].index * b_stride);
      for (int off = 0; off <= kPrefetchSpan; off += 64) {
        _mm_prefetch(next + off, _MM_HINT_T0);
      }
    }
    const __m256d vv = _mm256_set1_pd(entries[k].value);
    const double* row = b + entries[k].index * b_stride;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * v), acc[v]);
    }
    if constexpr (kHasRem) {
      accr = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * NV), accr);
    }
  }
  for (int v = 0; v < NV; ++v) {
    _mm256_storeu_pd(out + 4 * v,
                     _mm256_add_pd(_mm256_loadu_pd(out + 4 * v), acc[v]));
  }
  if constexpr (kHasRem) {
    const __m256i mask = TailMask(rem);
    _mm256_maskstore_pd(
        out + 4 * NV, mask,
        _mm256_add_pd(_mm256_maskload_pd(out + 4 * NV, mask), accr));
  }
  if constexpr (!kHasRem) (void)rem;
}

// A 4-column stripe with the k loop unrolled into four independent
// accumulator chains. The wide stripes above have one chain per column
// vector, so a lone 4-column stripe over a long k would serialize on FMA
// latency (4 cycles per iteration for 1 vector of work); four chains
// over the same columns restore ~1 iteration/cycle. Used for the 4-15
// column leftovers after the 48/16-wide loops. Reassociates the k sum —
// tolerance tier.
SPCA_STRIPE_INLINE void RowGemmStripeNarrow(const double* SPCA_RESTRICT a_row,
                                            size_t k,
                                            const double* SPCA_RESTRICT b,
                                            size_t b_stride,
                                            double* SPCA_RESTRICT c) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const double* row = b + kk * b_stride;
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(a_row[kk]), _mm256_loadu_pd(row), a0);
    a1 = _mm256_fmadd_pd(_mm256_set1_pd(a_row[kk + 1]),
                         _mm256_loadu_pd(row + b_stride), a1);
    a2 = _mm256_fmadd_pd(_mm256_set1_pd(a_row[kk + 2]),
                         _mm256_loadu_pd(row + 2 * b_stride), a2);
    a3 = _mm256_fmadd_pd(_mm256_set1_pd(a_row[kk + 3]),
                         _mm256_loadu_pd(row + 3 * b_stride), a3);
  }
  for (; kk < k; ++kk) {
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(a_row[kk]),
                         _mm256_loadu_pd(b + kk * b_stride), a0);
  }
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(a0, a1),
                                    _mm256_add_pd(a2, a3));
  _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), sum));
}

// Narrow sparse counterpart: four gathered rows in flight per iteration
// (memory-level parallelism for the random accesses) plus prefetch.
SPCA_STRIPE_INLINE void SparseGemvStripeNarrow(
    const SparseEntry* SPCA_RESTRICT entries, size_t nnz,
    const double* SPCA_RESTRICT b, size_t b_stride,
    double* SPCA_RESTRICT out) {
  constexpr size_t kPrefetchAhead = 8;
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= nnz; k += 4) {
    if (k + kPrefetchAhead + 4 <= nnz) {
      for (size_t p = 0; p < 4; ++p) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         b + entries[k + kPrefetchAhead + p].index * b_stride),
                     _MM_HINT_T0);
      }
    }
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(entries[k].value),
                         _mm256_loadu_pd(b + entries[k].index * b_stride), a0);
    a1 = _mm256_fmadd_pd(
        _mm256_set1_pd(entries[k + 1].value),
        _mm256_loadu_pd(b + entries[k + 1].index * b_stride), a1);
    a2 = _mm256_fmadd_pd(
        _mm256_set1_pd(entries[k + 2].value),
        _mm256_loadu_pd(b + entries[k + 2].index * b_stride), a2);
    a3 = _mm256_fmadd_pd(
        _mm256_set1_pd(entries[k + 3].value),
        _mm256_loadu_pd(b + entries[k + 3].index * b_stride), a3);
  }
  for (; k < nnz; ++k) {
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(entries[k].value),
                         _mm256_loadu_pd(b + entries[k].index * b_stride), a0);
  }
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(a0, a1),
                                    _mm256_add_pd(a2, a3));
  _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), sum));
}

// The common stripe plan for both products: full 48-column stripes, then
// 16- and 4-column stripes, with the final stripe widened to absorb a
// 1-3 column remainder in its over-reading tail vector. The final
// stripe keeps the full 12-vector width, so the paper's d <= 51 shapes
// (d = 50 in every headline benchmark) are a SINGLE pass over b.
struct StripePlan {
  size_t prefix;    // columns handled by rem-free 48/16/4 stripes
  size_t final_nv;  // 12, 4, 1 (final stripe with tail), or 0 (none)
};

inline StripePlan PlanStripes(size_t full, size_t rem) {
  if (rem == 0) return {full, 0};
  const size_t final_nv = full >= 48 ? 12 : full >= 16 ? 4 : full >= 4 ? 1 : 0;
  return {full - 4 * final_nv, final_nv};
}

}  // namespace

void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  const size_t rem = d % 4;
  const size_t full = d - rem;  // columns covered by whole vectors
  const StripePlan plan = PlanStripes(full, rem);
  size_t j = 0;
  for (; j + 48 <= plan.prefix; j += 48) {
    SparseGemvStripe<12, false>(entries, nnz, b + j, b_stride, out + j, 0);
  }
  for (; j + 16 <= plan.prefix; j += 16) {
    SparseGemvStripe<4, false>(entries, nnz, b + j, b_stride, out + j, 0);
  }
  for (; j + 4 <= plan.prefix; j += 4) {
    SparseGemvStripeNarrow(entries, nnz, b + j, b_stride, out + j);
  }
  switch (plan.final_nv) {
    case 12:
      SparseGemvStripe<12, true>(entries, nnz, b + j, b_stride, out + j, rem);
      break;
    case 4:
      SparseGemvStripe<4, true>(entries, nnz, b + j, b_stride, out + j, rem);
      break;
    case 1:
      SparseGemvStripe<1, true>(entries, nnz, b + j, b_stride, out + j, rem);
      break;
    default:
      break;
  }
  if (full == 0) {
    // d < 4: no whole vector at all. Two entry-unrolled accumulator
    // chains per column — a single chain would be FMA-latency-bound
    // through the gathered loads.
    for (; j < d; ++j) {
      double acc0 = 0.0;
      double acc1 = 0.0;
      size_t k = 0;
      for (; k + 2 <= nnz; k += 2) {
        acc0 = __builtin_fma(entries[k].value,
                             b[entries[k].index * b_stride + j], acc0);
        acc1 = __builtin_fma(entries[k + 1].value,
                             b[entries[k + 1].index * b_stride + j], acc1);
      }
      for (; k < nnz; ++k) {
        acc0 = __builtin_fma(entries[k].value,
                             b[entries[k].index * b_stride + j], acc0);
      }
      out[j] += acc0 + acc1;
    }
  }
}

void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row) {
  // Register-blocked column stripes (widest first): each stripe of c
  // lives in ymm accumulators for the whole k sweep, so the only memory
  // traffic is the sequential read of b's columns for that stripe — b is
  // effectively streamed once regardless of k. The final (< 4 column)
  // remainder rides along as a masked lane of the last stripe.
  const size_t rem = n % 4;
  const size_t full = n - rem;
  const StripePlan plan = PlanStripes(full, rem);
  size_t j = 0;
  for (; j + 48 <= plan.prefix; j += 48) {
    RowGemmStripe<12, false>(a_row, k, b + j, b_stride, c_row + j, 0);
  }
  for (; j + 16 <= plan.prefix; j += 16) {
    RowGemmStripe<4, false>(a_row, k, b + j, b_stride, c_row + j, 0);
  }
  for (; j + 4 <= plan.prefix; j += 4) {
    RowGemmStripeNarrow(a_row, k, b + j, b_stride, c_row + j);
  }
  switch (plan.final_nv) {
    case 12:
      RowGemmStripe<12, true>(a_row, k, b + j, b_stride, c_row + j, rem);
      break;
    case 4:
      RowGemmStripe<4, true>(a_row, k, b + j, b_stride, c_row + j, rem);
      break;
    case 1:
      RowGemmStripe<1, true>(a_row, k, b + j, b_stride, c_row + j, rem);
      break;
    default:
      break;
  }
  if (full == 0) {
    // n < 4: no whole vector; 4 k-unrolled chains per column so the
    // reduction is not FMA-latency-bound.
    for (; j < n; ++j) {
      double acc0 = 0.0;
      double acc1 = 0.0;
      double acc2 = 0.0;
      double acc3 = 0.0;
      size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        acc0 = __builtin_fma(a_row[kk], b[kk * b_stride + j], acc0);
        acc1 = __builtin_fma(a_row[kk + 1], b[(kk + 1) * b_stride + j], acc1);
        acc2 = __builtin_fma(a_row[kk + 2], b[(kk + 2) * b_stride + j], acc2);
        acc3 = __builtin_fma(a_row[kk + 3], b[(kk + 3) * b_stride + j], acc3);
      }
      for (; kk < k; ++kk) {
        acc0 = __builtin_fma(a_row[kk], b[kk * b_stride + j], acc0);
      }
      c_row[j] += (acc0 + acc1) + (acc2 + acc3);
    }
  }
}

namespace {

// Substitution over one lane-major block of 4*NV rows (element i of lane v
// at blk[i * 4 * NV + v]). Each k step costs one dependent subtract per
// vector, so NV = 4 keeps four independent chains in flight: enough to
// cover the subtract latency with both FP ports busy on mul and sub.
template <int NV>
SPCA_STRIPE_INLINE void LuSolveBlock(const double* SPCA_RESTRICT lu, size_t n,
                                     double* SPCA_RESTRICT blk) {
  constexpr size_t kLanes = 4 * NV;
  for (size_t i = 0; i < n; ++i) {  // forward: unit-lower L
    const double* li = lu + i * n;
    double* xi = blk + i * kLanes;
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(xi + 4 * v);
    for (size_t k = 0; k < i; ++k) {
      const __m256d l = _mm256_set1_pd(li[k]);
      const double* xk = blk + k * kLanes;
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm256_sub_pd(acc[v],
                               _mm256_mul_pd(l, _mm256_loadu_pd(xk + 4 * v)));
      }
    }
    for (int v = 0; v < NV; ++v) _mm256_storeu_pd(xi + 4 * v, acc[v]);
  }
  for (size_t i = n; i-- > 0;) {  // backward: U
    const double* ui = lu + i * n;
    double* xi = blk + i * kLanes;
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(xi + 4 * v);
    for (size_t k = i + 1; k < n; ++k) {
      const __m256d u = _mm256_set1_pd(ui[k]);
      const double* xk = blk + k * kLanes;
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm256_sub_pd(acc[v],
                               _mm256_mul_pd(u, _mm256_loadu_pd(xk + 4 * v)));
      }
    }
    const __m256d pivot = _mm256_set1_pd(ui[i]);
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_pd(xi + 4 * v, _mm256_div_pd(acc[v], pivot));
    }
  }
}

// Gathers `lanes` rows (permuted) into a lane-major block, zero-filling
// the unused lanes, solves, and scatters the solutions back.
template <int NV>
void LuSolveRowBlock(const double* lu, const size_t* perm, size_t n, double* x,
                     size_t stride, size_t lanes, double* blk) {
  constexpr size_t kLanes = 4 * NV;
  if (lanes < kLanes) std::fill(blk, blk + n * kLanes, 0.0);
  for (size_t v = 0; v < lanes; ++v) {
    const double* row = x + v * stride;
    for (size_t i = 0; i < n; ++i) blk[i * kLanes + v] = row[perm[i]];
  }
  LuSolveBlock<NV>(lu, n, blk);
  for (size_t v = 0; v < lanes; ++v) {
    double* row = x + v * stride;
    for (size_t i = 0; i < n; ++i) row[i] = blk[i * kLanes + v];
  }
}

}  // namespace

void LuSolveRows(const double* lu, const size_t* perm, size_t n, double* x,
                 size_t stride, size_t rows) {
  std::vector<double> blk(n * 16);
  size_t r = 0;
  for (; r + 16 <= rows; r += 16) {
    LuSolveRowBlock<4>(lu, perm, n, x + r * stride, stride, 16, blk.data());
  }
  for (; r < rows; r += 4) {
    LuSolveRowBlock<1>(lu, perm, n, x + r * stride, stride,
                       std::min<size_t>(4, rows - r), blk.data());
  }
}

namespace {

// ---- BlockGemm ---------------------------------------------------------
//
// RowGemm keeps each column stripe of one c row in registers for the whole
// k sweep, so b is streamed once per row. BlockGemm sweeps b in L2-sized
// k-chunks instead, running every row of the block over a chunk before
// moving on; between chunks each row's stripe accumulators wait in a
// small per-row state buffer. An element's chain is the one RowGemm runs
// (same start, same FMAs in the same k order, same fold into c), only
// paused at chunk boundaries.

// Advances one single-chain stripe (NV whole vectors plus, with kHasRem, a
// tail vector whose surplus lanes over-read b and are never folded back)
// over a chunk of kc steps; `state` holds its NV (+1) accumulators.
template <int NV, bool kHasRem>
void WideChunk(const double* SPCA_RESTRICT a, size_t kc,
               const double* SPCA_RESTRICT b, size_t b_stride,
               double* SPCA_RESTRICT state) {
  static_assert(NV >= 0 && NV <= 12, "more than 12 vectors cannot stay "
                                     "register-resident");
  constexpr size_t kPrefetchRows = 4;
  constexpr int kPrefetchSpan = NV * 32 + (kHasRem ? 32 : 0);
  __m256d acc[NV > 0 ? NV : 1];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(state + 4 * v);
  __m256d accr =
      kHasRem ? _mm256_loadu_pd(state + 4 * NV) : _mm256_setzero_pd();
  for (size_t kk = 0; kk < kc; ++kk) {
    if (kk + kPrefetchRows < kc) {
      const char* next =
          reinterpret_cast<const char*>(b + (kk + kPrefetchRows) * b_stride);
      for (int off = 0; off <= kPrefetchSpan; off += 64) {
        _mm_prefetch(next + off, _MM_HINT_T0);
      }
    }
    const __m256d vv = _mm256_set1_pd(a[kk]);
    const double* row = b + kk * b_stride;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * v), acc[v]);
    }
    if constexpr (kHasRem) {
      accr = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * NV), accr);
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(state + 4 * v, acc[v]);
  if constexpr (kHasRem) _mm256_storeu_pd(state + 4 * NV, accr);
}

// RowGemmStripeNarrow over a chunk: four chains over one 4-column vector,
// chain kk % 4 taking step kk. Chunks are multiples of 4 long except the
// last, so the chains and RowGemm's k tail (into chain 0) are unchanged.
void NarrowChunk(const double* SPCA_RESTRICT a, size_t kc,
                 const double* SPCA_RESTRICT b, size_t b_stride,
                 double* SPCA_RESTRICT state) {
  __m256d a0 = _mm256_loadu_pd(state);
  __m256d a1 = _mm256_loadu_pd(state + 4);
  __m256d a2 = _mm256_loadu_pd(state + 8);
  __m256d a3 = _mm256_loadu_pd(state + 12);
  size_t kk = 0;
  for (; kk + 4 <= kc; kk += 4) {
    const double* row = b + kk * b_stride;
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(a[kk]), _mm256_loadu_pd(row), a0);
    a1 = _mm256_fmadd_pd(_mm256_set1_pd(a[kk + 1]),
                         _mm256_loadu_pd(row + b_stride), a1);
    a2 = _mm256_fmadd_pd(_mm256_set1_pd(a[kk + 2]),
                         _mm256_loadu_pd(row + 2 * b_stride), a2);
    a3 = _mm256_fmadd_pd(_mm256_set1_pd(a[kk + 3]),
                         _mm256_loadu_pd(row + 3 * b_stride), a3);
  }
  for (; kk < kc; ++kk) {
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(a[kk]),
                         _mm256_loadu_pd(b + kk * b_stride), a0);
  }
  _mm256_storeu_pd(state, a0);
  _mm256_storeu_pd(state + 4, a1);
  _mm256_storeu_pd(state + 8, a2);
  _mm256_storeu_pd(state + 12, a3);
}

using ChunkFn = void (*)(const double*, size_t, const double*, size_t,
                         double*);

template <bool kHasRem, size_t... NV>
constexpr std::array<ChunkFn, sizeof...(NV)> WideChunkTable(
    std::index_sequence<NV...>) {
  return {&WideChunk<static_cast<int>(NV), kHasRem>...};
}

constexpr auto kWideChunk =
    WideChunkTable<false>(std::make_index_sequence<13>());
constexpr auto kWideChunkRem =
    WideChunkTable<true>(std::make_index_sequence<13>());

// One stripe of a row's column plan and where its accumulators live.
struct GemmStripe {
  size_t col;    // first column
  size_t nv;     // whole vectors (a narrow stripe has one)
  size_t rem;    // 1-3 trailing columns in a partial vector, or 0
  bool narrow;   // four k-chains (RowGemm's narrow stripes and n < 4)
  size_t state;  // offset of the accumulators in the row's state
  ChunkFn chunk;
};

// Appends a run of `vectors` single-chain vectors (plus `rem` trailing
// columns) starting at `col`, split evenly into stripes of at most 12
// vectors. Every lane is its own chain, so how a run is cut into stripes
// does not change any result.
void AddWideRun(size_t col, size_t vectors, size_t rem,
                std::vector<GemmStripe>* plan, size_t* state) {
  if (vectors == 0 && rem == 0) return;
  const size_t stripes = std::max<size_t>(1, (vectors + 11) / 12);
  for (size_t s = 0; s < stripes; ++s) {
    const size_t nv = vectors / stripes + (s < vectors % stripes ? 1 : 0);
    const size_t r = s + 1 == stripes ? rem : 0;
    plan->push_back({col, nv, r, false, *state,
                     r > 0 ? kWideChunkRem[nv] : kWideChunk[nv]});
    col += 4 * nv;
    *state += 4 * nv + (r > 0 ? 4 : 0);
  }
}

void AddNarrow(size_t col, size_t rem, std::vector<GemmStripe>* plan,
               size_t* state) {
  plan->push_back({col, 1, rem, true, *state, &NarrowChunk});
  *state += 16;
}

// The column plan whose chains reproduce RowGemm (its PlanStripes: wide
// stripes, then narrow 4-column stripes, then the final stripe carrying
// the remainder; n < 4 is one narrow stripe) or AxpyRow (single chains).
std::vector<GemmStripe> PlanGemm(size_t n, GemmOrder order,
                                 size_t* state_size) {
  std::vector<GemmStripe> plan;
  size_t state = 0;
  const size_t rem = n % 4;
  const size_t full = n - rem;
  if (order == GemmOrder::kAxpyRow) {
    AddWideRun(0, full / 4, rem, &plan, &state);
  } else if (full == 0) {
    if (rem > 0) AddNarrow(0, rem, &plan, &state);
  } else {
    const StripePlan stripes = PlanStripes(full, rem);
    const size_t wide =
        stripes.prefix / 48 * 48 + stripes.prefix % 48 / 16 * 16;
    AddWideRun(0, wide / 4, 0, &plan, &state);
    for (size_t j = wide; j < stripes.prefix; j += 4) {
      AddNarrow(j, 0, &plan, &state);
    }
    AddWideRun(stripes.prefix, stripes.final_nv, rem, &plan, &state);
  }
  *state_size = state;
  return plan;
}

// Writes one row's finished chains back into c: RowGemm adds each chain
// (a narrow stripe the sum of its four) into c; AxpyRow's chains started
// at c and replace it.
void FoldRow(const std::vector<GemmStripe>& plan, const double* state,
             GemmOrder order, double* c) {
  const bool add = order == GemmOrder::kRowGemm;
  for (const GemmStripe& s : plan) {
    const double* st = state + s.state;
    double* out = c + s.col;
    if (s.narrow) {
      const __m256d sum =
          _mm256_add_pd(_mm256_add_pd(_mm256_loadu_pd(st),
                                      _mm256_loadu_pd(st + 4)),
                        _mm256_add_pd(_mm256_loadu_pd(st + 8),
                                      _mm256_loadu_pd(st + 12)));
      if (s.rem == 0) {
        _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), sum));
      } else {
        const __m256i mask = TailMask(s.rem);
        _mm256_maskstore_pd(
            out, mask, _mm256_add_pd(_mm256_maskload_pd(out, mask), sum));
      }
      continue;
    }
    for (size_t v = 0; v < s.nv; ++v) {
      const __m256d acc = _mm256_loadu_pd(st + 4 * v);
      _mm256_storeu_pd(out + 4 * v,
                       add ? _mm256_add_pd(_mm256_loadu_pd(out + 4 * v), acc)
                           : acc);
    }
    if (s.rem > 0) {
      const __m256i mask = TailMask(s.rem);
      const __m256d acc = _mm256_loadu_pd(st + 4 * s.nv);
      double* tail = out + 4 * s.nv;
      _mm256_maskstore_pd(
          tail, mask,
          add ? _mm256_add_pd(_mm256_maskload_pd(tail, mask), acc) : acc);
    }
  }
}

}  // namespace

void BlockGemm(const double* a, size_t a_stride, size_t rows, size_t k,
               const double* b, size_t b_stride, size_t n, double* c,
               size_t c_stride, GemmOrder order) {
  if (rows == 0 || n == 0) return;
  size_t state_size = 0;
  const std::vector<GemmStripe> plan = PlanGemm(n, order, &state_size);
  // RowGemm's chains start at zero; AxpyRow's at the c element itself.
  std::vector<double> state(rows * state_size, 0.0);
  if (order == GemmOrder::kAxpyRow) {
    for (size_t r = 0; r < rows; ++r) {
      std::copy(c + r * c_stride, c + r * c_stride + n,
                state.begin() + r * state_size);
    }
  }
  const size_t chunk = BlockGemmChunkRows(n);
  for (size_t k0 = 0; k0 < k; k0 += chunk) {
    const size_t kc = std::min(chunk, k - k0);
    const double* b_chunk = b + k0 * b_stride;
    for (size_t r = 0; r < rows; ++r) {
      const double* a_chunk = a + r * a_stride + k0;
      double* st = state.data() + r * state_size;
      for (const GemmStripe& s : plan) {
        s.chunk(a_chunk, kc, b_chunk + s.col, b_stride, st + s.state);
      }
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    FoldRow(plan, state.data() + r * state_size, order, c + r * c_stride);
  }
}

// ---- BlockRankUpdate ---------------------------------------------------
//
// NV vectors of one p row stay in registers while the block's rows are
// FMA'd into them in order: per element AxpyRow's chain, with one load
// and one store of p per block instead of one per row.

template <int NV>
void RankStripe(const double* SPCA_RESTRICT ak, size_t a_stride, size_t rows,
                const double* SPCA_RESTRICT x, size_t x_stride,
                double* SPCA_RESTRICT p) {
  static_assert(NV >= 1 && NV <= 12, "more than 12 vectors cannot stay "
                                     "register-resident");
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(p + 4 * v);
  for (size_t r = 0; r < rows; ++r) {
    const __m256d vv = _mm256_set1_pd(ak[r * a_stride]);
    const double* xr = x + r * x_stride;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_pd(vv, _mm256_loadu_pd(xr + 4 * v), acc[v]);
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(p + 4 * v, acc[v]);
}

using RankFn = void (*)(const double*, size_t, size_t, const double*, size_t,
                        double*);

template <size_t... I>
constexpr std::array<RankFn, sizeof...(I)> RankStripeTable(
    std::index_sequence<I...>) {
  return {&RankStripe<static_cast<int>(I) + 1>...};
}

constexpr auto kRankStripe = RankStripeTable(std::make_index_sequence<12>());

void BlockRankUpdate(const double* a, size_t a_stride, size_t rows, size_t k,
                     const double* x, size_t x_stride, size_t n, double* p,
                     size_t p_stride) {
  if (rows == 0) return;
  // Whole vectors split evenly into stripes of at most 12; the 1-3
  // trailing columns run AxpyRow's scalar-FMA tail.
  const size_t vectors = n / 4;
  const size_t stripes = (vectors + 11) / 12;
  for (size_t kk = 0; kk < k; ++kk) {
    const double* ak = a + kk;
    double* prow = p + kk * p_stride;
    size_t col = 0;
    for (size_t s = 0; s < stripes; ++s) {
      const size_t nv = vectors / stripes + (s < vectors % stripes ? 1 : 0);
      kRankStripe[nv - 1](ak, a_stride, rows, x + col, x_stride, prow + col);
      col += 4 * nv;
    }
    for (; col < n; ++col) {
      double acc = prow[col];
      for (size_t r = 0; r < rows; ++r) {
        acc = __builtin_fma(ak[r * a_stride], x[r * x_stride + col], acc);
      }
      prow[col] = acc;
    }
  }
}

namespace {

// ---- BlockSymRankUpdate ------------------------------------------------
//
// The upper triangle of out is walked in groups of four rows a0 .. a0 + 3,
// each group's columns a0 .. d - 1 in 4 x 8 register tiles. Every element
// takes one FMA x[a] * x[b] per row, rows in order, from the value in out:
// SymRank1Update's chain, with the triangle loaded and stored once per
// block instead of once per row. A group's first tile straddles the
// diagonal and its last may be narrower than 8 columns: those edge tiles
// mask out the lanes below the diagonal or past column d - 1 (computed on,
// never stored) and, when narrow, mask the x loads too.

// An interior 4 x 8 tile: rows a0 .. a0 + 3, columns b .. b + 7, all above
// the diagonal and inside the row.
void SymTile(const double* SPCA_RESTRICT x, size_t x_stride, size_t rows,
             size_t a0, size_t b, double* SPCA_RESTRICT out, size_t stride) {
  double* o0 = out + a0 * stride + b;
  double* o1 = o0 + stride;
  double* o2 = o1 + stride;
  double* o3 = o2 + stride;
  __m256d c00 = _mm256_loadu_pd(o0), c01 = _mm256_loadu_pd(o0 + 4);
  __m256d c10 = _mm256_loadu_pd(o1), c11 = _mm256_loadu_pd(o1 + 4);
  __m256d c20 = _mm256_loadu_pd(o2), c21 = _mm256_loadu_pd(o2 + 4);
  __m256d c30 = _mm256_loadu_pd(o3), c31 = _mm256_loadu_pd(o3 + 4);
  for (size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * x_stride;
    const __m256d xb0 = _mm256_loadu_pd(xr + b);
    const __m256d xb1 = _mm256_loadu_pd(xr + b + 4);
    __m256d xa = _mm256_set1_pd(xr[a0]);
    c00 = _mm256_fmadd_pd(xa, xb0, c00);
    c01 = _mm256_fmadd_pd(xa, xb1, c01);
    xa = _mm256_set1_pd(xr[a0 + 1]);
    c10 = _mm256_fmadd_pd(xa, xb0, c10);
    c11 = _mm256_fmadd_pd(xa, xb1, c11);
    xa = _mm256_set1_pd(xr[a0 + 2]);
    c20 = _mm256_fmadd_pd(xa, xb0, c20);
    c21 = _mm256_fmadd_pd(xa, xb1, c21);
    xa = _mm256_set1_pd(xr[a0 + 3]);
    c30 = _mm256_fmadd_pd(xa, xb0, c30);
    c31 = _mm256_fmadd_pd(xa, xb1, c31);
  }
  _mm256_storeu_pd(o0, c00);
  _mm256_storeu_pd(o0 + 4, c01);
  _mm256_storeu_pd(o1, c10);
  _mm256_storeu_pd(o1 + 4, c11);
  _mm256_storeu_pd(o2, c20);
  _mm256_storeu_pd(o2 + 4, c21);
  _mm256_storeu_pd(o3, c30);
  _mm256_storeu_pd(o3 + 4, c31);
}

// An edge tile: rows a0 .. a0 + NA - 1 (NA < 4 only in the last group),
// columns b .. b + w - 1 with w <= 8 (kFull: w == 8). Lane c of row i is
// kept where b + c >= a0 + i and c < w; only kept lanes are loaded from
// and stored to out, and a narrow tile loads only x[b .. b + w - 1].
template <int NA, bool kFull>
void SymEdgeTile(const double* SPCA_RESTRICT x, size_t x_stride, size_t rows,
                 size_t a0, size_t b, size_t w, double* SPCA_RESTRICT out,
                 size_t stride) {
  // Each lane's column, compared with row i's diagonal and with b + w.
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i col0 = _mm256_add_epi64(lane, _mm256_set1_epi64x(b));
  const __m256i col1 = _mm256_add_epi64(col0, _mm256_set1_epi64x(4));
  const __m256i end = _mm256_set1_epi64x(b + w);
  const __m256i cols0 = _mm256_cmpgt_epi64(end, col0);
  const __m256i cols1 = _mm256_cmpgt_epi64(end, col1);
  __m256i keep[NA][2];
  __m256d acc[NA][2];
  for (int i = 0; i < NA; ++i) {
    const __m256i below =
        _mm256_set1_epi64x(static_cast<int64_t>(a0 + i) - 1);
    keep[i][0] = _mm256_and_si256(cols0, _mm256_cmpgt_epi64(col0, below));
    keep[i][1] = _mm256_and_si256(cols1, _mm256_cmpgt_epi64(col1, below));
    double* row = out + (a0 + i) * stride + b;
    acc[i][0] = _mm256_maskload_pd(row, keep[i][0]);
    acc[i][1] = _mm256_maskload_pd(row + 4, keep[i][1]);
  }
  for (size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * x_stride;
    const __m256d xb0 = kFull ? _mm256_loadu_pd(xr + b)
                              : _mm256_maskload_pd(xr + b, cols0);
    const __m256d xb1 = kFull ? _mm256_loadu_pd(xr + b + 4)
                              : _mm256_maskload_pd(xr + b + 4, cols1);
    for (int i = 0; i < NA; ++i) {
      const __m256d xa = _mm256_set1_pd(xr[a0 + i]);
      acc[i][0] = _mm256_fmadd_pd(xa, xb0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_pd(xa, xb1, acc[i][1]);
    }
  }
  for (int i = 0; i < NA; ++i) {
    double* row = out + (a0 + i) * stride + b;
    _mm256_maskstore_pd(row, keep[i][0], acc[i][0]);
    _mm256_maskstore_pd(row + 4, keep[i][1], acc[i][1]);
  }
}

using SymEdgeFn = void (*)(const double*, size_t, size_t, size_t, size_t,
                           size_t, double*, size_t);

constexpr SymEdgeFn kSymEdge[2][4] = {
    {&SymEdgeTile<1, false>, &SymEdgeTile<2, false>, &SymEdgeTile<3, false>,
     &SymEdgeTile<4, false>},
    {&SymEdgeTile<1, true>, &SymEdgeTile<2, true>, &SymEdgeTile<3, true>,
     &SymEdgeTile<4, true>}};

void SymTiles(const double* x, size_t x_stride, size_t rows, size_t d,
              double* out, size_t stride) {
  for (size_t a0 = 0; a0 < d; a0 += 4) {
    const size_t na = std::min<size_t>(4, d - a0);
    for (size_t b = a0; b < d; b += 8) {
      const size_t w = std::min<size_t>(8, d - b);
      if (b > a0 && w == 8 && na == 4) {
        SymTile(x, x_stride, rows, a0, b, out, stride);
      } else {
        kSymEdge[w == 8][na - 1](x, x_stride, rows, a0, b, w, out, stride);
      }
    }
  }
}

inline bool HasZero(const double* x, size_t d) {
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const __m256d eq = _mm256_cmp_pd(_mm256_loadu_pd(x + j), zero, _CMP_EQ_OQ);
    if (_mm256_movemask_pd(eq) != 0) return true;
  }
  for (; j < d; ++j) {
    if (x[j] == 0.0) return true;
  }
  return false;
}

}  // namespace

void BlockSymRankUpdate(const double* x, size_t x_stride, size_t rows,
                        size_t d, double* out, size_t stride) {
  // SymRank1Update skips the pairs of triangle rows whose x values are
  // both zero, which a tile cannot do per element without changing a -0.0
  // accumulator; so a row holding a zero (never seen in a dense X) runs
  // through SymRank1Update itself, between tiled runs of zero-free rows.
  size_t r = 0;
  while (r < rows) {
    size_t end = r;
    while (end < rows && !HasZero(x + end * x_stride, d)) ++end;
    if (end > r) SymTiles(x + r * x_stride, x_stride, end - r, d, out, stride);
    if (end < rows) SymRank1Update(x + end * x_stride, d, out, stride);
    r = end + 1;
  }
}

namespace {

// ---- SparseRowAxpy -----------------------------------------------------
//
// SparseGemvStripe's register stripes with AxpyRow's chains: the
// accumulators start at out (not at zero, folded in at the end) and take
// one FMA per entry, so each element sees AxpyRow's sequence for entry 0,
// 1, ... of the row, with out loaded and stored once per stripe instead
// of once per entry. The tail vector over-reads b like SparseGemvStripe's.

template <int NV, bool kHasRem>
void SparseAxpyStripe(const SparseEntry* SPCA_RESTRICT entries, size_t nnz,
                      const double* SPCA_RESTRICT b, size_t b_stride,
                      double* SPCA_RESTRICT out, size_t rem) {
  static_assert(NV >= 0 && NV <= 12, "more than 12 vectors cannot stay "
                                     "register-resident");
  constexpr size_t kPrefetchAhead = 6;
  constexpr int kPrefetchSpan = NV * 32 + (kHasRem ? 32 : 0);
  __m256d acc[NV > 0 ? NV : 1];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(out + 4 * v);
  const __m256i mask = kHasRem ? TailMask(rem) : _mm256_setzero_si256();
  __m256d accr = kHasRem ? _mm256_maskload_pd(out + 4 * NV, mask)
                         : _mm256_setzero_pd();
  for (size_t k = 0; k < nnz; ++k) {
    if (k + kPrefetchAhead < nnz) {
      const char* next = reinterpret_cast<const char*>(
          b + entries[k + kPrefetchAhead].index * b_stride);
      for (int off = 0; off <= kPrefetchSpan; off += 64) {
        _mm_prefetch(next + off, _MM_HINT_T0);
      }
    }
    const __m256d vv = _mm256_set1_pd(entries[k].value);
    const double* row = b + entries[k].index * b_stride;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * v), acc[v]);
    }
    if constexpr (kHasRem) {
      accr = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * NV), accr);
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(out + 4 * v, acc[v]);
  if constexpr (kHasRem) _mm256_maskstore_pd(out + 4 * NV, mask, accr);
}

using SparseAxpyFn = void (*)(const SparseEntry*, size_t, const double*,
                              size_t, double*, size_t);

template <bool kHasRem, size_t... NV>
constexpr std::array<SparseAxpyFn, sizeof...(NV)> SparseAxpyTable(
    std::index_sequence<NV...>) {
  return {&SparseAxpyStripe<static_cast<int>(NV), kHasRem>...};
}

constexpr auto kSparseAxpy =
    SparseAxpyTable<false>(std::make_index_sequence<13>());
constexpr auto kSparseAxpyRem =
    SparseAxpyTable<true>(std::make_index_sequence<13>());

}  // namespace

void SparseRowAxpy(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  if (nnz == 0 || d == 0) return;
  // Whole vectors split evenly into stripes of at most 12, the last one
  // carrying the 1-3 trailing columns (every lane is its own chain, so the
  // split does not change any result).
  const size_t vectors = d / 4;
  const size_t rem = d % 4;
  const size_t stripes = std::max<size_t>(1, (vectors + 11) / 12);
  size_t col = 0;
  for (size_t s = 0; s < stripes; ++s) {
    const size_t nv = vectors / stripes + (s < vectors % stripes ? 1 : 0);
    const bool last = s + 1 == stripes && rem > 0;
    (last ? kSparseAxpyRem : kSparseAxpy)[nv](entries, nnz, b + col, b_stride,
                                              out + col, rem);
    col += 4 * nv;
  }
}

}  // namespace spca::linalg::kernels::avx2

#endif  // SPCA_KERNELS_HAVE_AVX2
