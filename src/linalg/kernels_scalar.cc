#include "linalg/kernel_dispatch.h"

#include <algorithm>
#include <vector>

// Portable scalar kernel variants — the exact tier. These are the
// pre-SIMD kernel-layer loops, verbatim: unrolled only across
// *independent output elements*, reductions kept as one strictly
// sequential chain, and no FMA contraction (see the CMake flags on this
// file: -ffp-contract=off pins that down even at -O3). Per output
// element the floating-point operations execute in exactly the order of
// the original scalar triple loops, so a forced-scalar build reproduces
// tests/golden/fit_bits.golden bit for bit.

#if defined(__GNUC__) || defined(__clang__)
#define SPCA_RESTRICT __restrict__
#else
#define SPCA_RESTRICT
#endif

namespace spca::linalg::kernels::scalar {

void AxpyRow(double v, const double* b, size_t n, double* out) {
  const double* SPCA_RESTRICT bp = b;
  double* SPCA_RESTRICT op = out;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    op[j] += v * bp[j];
    op[j + 1] += v * bp[j + 1];
    op[j + 2] += v * bp[j + 2];
    op[j + 3] += v * bp[j + 3];
  }
  for (; j < n; ++j) op[j] += v * bp[j];
}

void AddRow(const double* b, size_t n, double* out) {
  const double* SPCA_RESTRICT bp = b;
  double* SPCA_RESTRICT op = out;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    op[j] += bp[j];
    op[j + 1] += bp[j + 1];
    op[j + 2] += bp[j + 2];
    op[j + 3] += bp[j + 3];
  }
  for (; j < n; ++j) op[j] += bp[j];
}

double DotRow(const double* a, const double* b, size_t n, double init) {
  // Unrolled for loop overhead only: the accumulator is one strictly
  // left-to-right dependency chain, never split into partial sums, so the
  // result is bit-identical to the naive loop (and to splicing into a
  // caller's running sum via `init`).
  double acc = init;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc += a[j] * b[j];
    acc += a[j + 1] * b[j + 1];
    acc += a[j + 2] * b[j + 2];
    acc += a[j + 3] * b[j + 3];
  }
  for (; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

void Rank1Update(const double* a, size_t rows, const double* b, size_t cols,
                 double* out, size_t out_stride) {
  for (size_t i = 0; i < rows; ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    AxpyRow(ai, b, cols, out + i * out_stride);
  }
}

void SymRank1Update(const double* x, size_t d, double* out, size_t stride) {
  const double* SPCA_RESTRICT xp = x;
  for (size_t a = 0; a < d; ++a) {
    const double xa = xp[a];
    if (xa == 0.0) continue;
    double* SPCA_RESTRICT row = out + a * stride;
    size_t b = a;
    for (; b + 4 <= d; b += 4) {
      row[b] += xa * xp[b];
      row[b + 1] += xa * xp[b + 1];
      row[b + 2] += xa * xp[b + 2];
      row[b + 3] += xa * xp[b + 3];
    }
    for (; b < d; ++b) row[b] += xa * xp[b];
  }
}

void BlockSymRankUpdate(const double* x, size_t x_stride, size_t rows,
                        size_t d, double* out, size_t stride) {
  for (size_t r = 0; r < rows; ++r) {
    SymRank1Update(x + r * x_stride, d, out, stride);
  }
}

void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  // Column-chunked: for each register-sized block of output columns, sweep
  // the entries innermost so the accumulators never leave registers. Per
  // output element the entries are still visited in CSR order, starting
  // from the prior out[] value — the same accumulation sequence as the
  // entry-outer scalar loop.
  constexpr size_t kChunk = 8;
  double* SPCA_RESTRICT op = out;
  size_t j = 0;
  for (; j + kChunk <= d; j += kChunk) {
    double acc0 = op[j], acc1 = op[j + 1], acc2 = op[j + 2], acc3 = op[j + 3];
    double acc4 = op[j + 4], acc5 = op[j + 5], acc6 = op[j + 6],
           acc7 = op[j + 7];
    for (size_t k = 0; k < nnz; ++k) {
      const double v = entries[k].value;
      const double* SPCA_RESTRICT row = b + entries[k].index * b_stride + j;
      acc0 += v * row[0];
      acc1 += v * row[1];
      acc2 += v * row[2];
      acc3 += v * row[3];
      acc4 += v * row[4];
      acc5 += v * row[5];
      acc6 += v * row[6];
      acc7 += v * row[7];
    }
    op[j] = acc0;
    op[j + 1] = acc1;
    op[j + 2] = acc2;
    op[j + 3] = acc3;
    op[j + 4] = acc4;
    op[j + 5] = acc5;
    op[j + 6] = acc6;
    op[j + 7] = acc7;
  }
  for (; j < d; ++j) {
    double acc = op[j];
    for (size_t k = 0; k < nnz; ++k) {
      acc += entries[k].value * b[entries[k].index * b_stride + j];
    }
    op[j] = acc;
  }
}

void SparseRowAxpy(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  // SparseRowGemv's chains start at out[j] and add the unfused products in
  // CSR order: exactly AxpyRow once per entry.
  SparseRowGemv(entries, nnz, b, b_stride, d, out);
}

void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row) {
  for (size_t kk = 0; kk < k; ++kk) {
    const double aik = a_row[kk];
    if (aik == 0.0) continue;
    AxpyRow(aik, b + kk * b_stride, n, c_row);
  }
}

void LuSolveRows(const double* lu, const size_t* perm, size_t n, double* x,
                 size_t stride, size_t rows) {
  // Four rows at a time, interleaved lane-major in `block` (element i of
  // lane v at block[i * kLanes + v]) so four independent substitution
  // chains overlap; each lane still runs exactly one row's sequence.
  constexpr size_t kLanes = 4;
  std::vector<double> block(n * kLanes);
  for (size_t r = 0; r < rows; r += kLanes) {
    const size_t lanes = std::min(kLanes, rows - r);
    if (lanes < kLanes) std::fill(block.begin(), block.end(), 0.0);
    for (size_t v = 0; v < lanes; ++v) {
      const double* row = x + (r + v) * stride;
      for (size_t i = 0; i < n; ++i) block[i * kLanes + v] = row[perm[i]];
    }
    for (size_t i = 0; i < n; ++i) {  // forward: unit-lower L
      const double* li = lu + i * n;
      double acc[kLanes];
      for (size_t v = 0; v < kLanes; ++v) acc[v] = block[i * kLanes + v];
      for (size_t k = 0; k < i; ++k) {
        for (size_t v = 0; v < kLanes; ++v) {
          acc[v] -= li[k] * block[k * kLanes + v];
        }
      }
      for (size_t v = 0; v < kLanes; ++v) block[i * kLanes + v] = acc[v];
    }
    for (size_t i = n; i-- > 0;) {  // backward: U
      const double* ui = lu + i * n;
      double acc[kLanes];
      for (size_t v = 0; v < kLanes; ++v) acc[v] = block[i * kLanes + v];
      for (size_t k = i + 1; k < n; ++k) {
        for (size_t v = 0; v < kLanes; ++v) {
          acc[v] -= ui[k] * block[k * kLanes + v];
        }
      }
      for (size_t v = 0; v < kLanes; ++v) {
        block[i * kLanes + v] = acc[v] / ui[i];
      }
    }
    for (size_t v = 0; v < lanes; ++v) {
      double* row = x + (r + v) * stride;
      for (size_t i = 0; i < n; ++i) row[i] = block[i * kLanes + v];
    }
  }
}

void BlockGemm(const double* a, size_t a_stride, size_t rows, size_t k,
               const double* b, size_t b_stride, size_t n, double* c,
               size_t c_stride, GemmOrder order) {
  // RowGemm and AxpyRow accumulate straight into c, so splitting k into
  // chunks leaves every element's chain as it was; RowGemm's zero skip is
  // the only difference between the two orders.
  const bool skip_zero = order == GemmOrder::kRowGemm;
  const size_t chunk = BlockGemmChunkRows(n);
  for (size_t k0 = 0; k0 < k; k0 += chunk) {
    const size_t k1 = std::min(k, k0 + chunk);
    for (size_t r = 0; r < rows; ++r) {
      const double* a_row = a + r * a_stride;
      double* c_row = c + r * c_stride;
      for (size_t kk = k0; kk < k1; ++kk) {
        const double v = a_row[kk];
        if (skip_zero && v == 0.0) continue;
        AxpyRow(v, b + kk * b_stride, n, c_row);
      }
    }
  }
}

void BlockRankUpdate(const double* a, size_t a_stride, size_t rows, size_t k,
                     const double* x, size_t x_stride, size_t n, double* p,
                     size_t p_stride) {
  // Eight columns of one p row stay in registers while the block's rows
  // are added into them in order: per element the AxpyRow sequence.
  constexpr size_t kChunk = 8;
  for (size_t kk = 0; kk < k; ++kk) {
    const double* SPCA_RESTRICT ak = a + kk;
    double* SPCA_RESTRICT prow = p + kk * p_stride;
    size_t j = 0;
    for (; j + kChunk <= n; j += kChunk) {
      double acc[kChunk];
      for (size_t t = 0; t < kChunk; ++t) acc[t] = prow[j + t];
      for (size_t r = 0; r < rows; ++r) {
        const double v = ak[r * a_stride];
        const double* SPCA_RESTRICT xr = x + r * x_stride + j;
        for (size_t t = 0; t < kChunk; ++t) acc[t] += v * xr[t];
      }
      for (size_t t = 0; t < kChunk; ++t) prow[j + t] = acc[t];
    }
    for (; j < n; ++j) {
      double acc = prow[j];
      for (size_t r = 0; r < rows; ++r) {
        acc += ak[r * a_stride] * x[r * x_stride + j];
      }
      prow[j] = acc;
    }
  }
}

}  // namespace spca::linalg::kernels::scalar
