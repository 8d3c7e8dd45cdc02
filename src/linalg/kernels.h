#ifndef SPCA_LINALG_KERNELS_H_
#define SPCA_LINALG_KERNELS_H_

#include <cstddef>

#include "linalg/kernel_dispatch.h"
#include "linalg/sparse_matrix.h"

namespace spca::linalg::kernels {

// Cache-friendly micro-kernels for the per-row operations that dominate the
// EM inner loops (Section 3.3's in-memory multiplication and the XtX / YtX
// accumulations). All kernels operate on contiguous double* rows obtained
// via DenseMatrix::RowPtr() and dispatch at runtime to the widest ISA the
// host supports (scalar / AVX2+FMA / NEON; see kernel_dispatch.h, and the
// SPCA_KERNEL_ISA env override).
//
// Numerics come in two tiers:
//
//  - Exact tier (scalar dispatch, and AddRow and LuSolveRows on every
//    ISA): per output element the floating-point operations execute in
//    exactly the order of the original scalar loops, so everything
//    downstream is bit-identical to the pre-kernel-layer implementation
//    (tests/golden/fit_bits.golden, compared bit-for-bit).
//  - Tolerance tier (AVX2/NEON dispatch): fused multiply-adds round once
//    instead of twice and reductions run multiple accumulators, so
//    results agree with the scalar twins to ~1e-12 relative (enforced
//    per kernel by kernels_test's SIMD-vs-scalar property suites, and
//    end-to-end by the tolerance-tier fit golden comparison).
//
// BlockGemm, BlockRankUpdate, BlockSymRankUpdate and SparseRowAxpy
// reproduce, bit for bit on every ISA, the per-row kernels they replace
// (RowGemm, AxpyRow per entry, SymRank1Update per row): they only reorder
// which element is worked on when, never the operations applied to one
// element. Under NEON dispatch they are per-row loops over NEON's own
// RowGemm / AxpyRow / SymRank1Update (not the scalar twins, whose unfused
// rounding would differ from NEON's per-row bits).
//
// Within one process the dispatched ISA never changes, so run-vs-run
// bit-identity properties (replay == live, batched == row-at-a-time,
// checkpoint/resume) hold on every ISA.
//
// Buffer contract (SparseRowGemv / SparseRowAxpy / RowGemm only): the
// matrix argument `b` must have at least 32 READABLE bytes past its last
// element — the SIMD tail vector of the final column stripe over-reads
// (never writes) up to 3 doubles beyond a logical row end and discards
// the surplus lanes with a masked store. AlignedDoubleBuffer (every DenseMatrix /
// DenseVector) provides this via zeroed allocator tail padding; callers
// handing in raw arrays must provide the slack themselves. See
// common/aligned.h and DESIGN.md par.8.

/// out[j] += v * b[j] for j in [0, n). The axpy at the heart of every
/// row-times-matrix product and outer-product accumulation.
void AxpyRow(double v, const double* b, size_t n, double* out);

/// out[j] += b[j] for j in [0, n) (the v == 1 axpy without the multiply).
/// Exact tier on every ISA: vector adds per element, no reassociation.
void AddRow(const double* b, size_t n, double* out);

/// Returns init + sum_j a[j] * b[j]. Scalar dispatch accumulates strictly
/// left to right (a single dependency chain — pass the running sum as
/// `init` to splice the product terms into an existing chain
/// bit-identically); SIMD dispatch reduces with parallel accumulators
/// (tolerance tier).
double DotRow(const double* a, const double* b, size_t n, double init = 0.0);

/// out(i, j) += a[i] * b[j] over the full rows x cols rectangle, where out
/// is row-major with the given stride. Rows with a[i] == 0 are skipped
/// (matching the scalar loops this replaces).
void Rank1Update(const double* a, size_t rows, const double* b, size_t cols,
                 double* out, size_t out_stride);

/// out += x * x' for a symmetric d x d accumulator (the XtX update),
/// touching the upper triangle (including the diagonal) ONLY — half the
/// multiply-adds of the full rectangle. Callers accumulate any number of
/// rows this way and then mirror once per partition with SymMirrorLower.
/// Since IEEE multiplication is exactly commutative (x[a]*x[b] ==
/// x[b]*x[a] bitwise), upper-then-mirror matches the full-rectangle
/// update it replaces (exactly on the scalar path, within the tolerance
/// tier under SIMD). Like Rank1Update, it may skip the rows where x[a] is
/// zero, whose updates add only zeros to an accumulator that (starting
/// from zeros) is never -0.
void SymRank1Update(const double* x, size_t d, double* out, size_t stride);

/// SymRank1Update for each of `rows` rows x_r (row stride x_stride) in
/// order: the XtX update of a row block. Each upper-triangle element keeps
/// one accumulation chain over the rows, so the result is bit-identical,
/// on every ISA, to calling SymRank1Update row by row (zero-skips
/// included); the AVX2 twin holds 4 x 8 tiles of `out` in registers across
/// the block instead of loading and storing the triangle once per row.
void BlockSymRankUpdate(const double* x, size_t x_stride, size_t rows,
                        size_t d, double* out, size_t stride);

/// Copies the upper triangle of a d x d row-major matrix into its lower
/// triangle (the finishing step after a run of SymRank1Update calls).
/// Pure copies — bit-identical on every ISA.
void SymMirrorLower(double* out, size_t d, size_t stride);

/// out[j] += sum_k entries[k].value * b(entries[k].index, j) for j in
/// [0, d): one CSR row times a dense (D x d) matrix with row stride
/// b_stride. Columns are processed in register-sized stripes, iterating
/// the entries innermost, so the accumulators stay in registers instead
/// of round-tripping through out[] once per entry; the SIMD paths also
/// software-prefetch the gathered b rows (the CSR indices defeat the
/// hardware prefetcher).
void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out);

/// out[j] += entries[k].value * b(entries[k].index, j) for each entry in
/// order: bit-identical, on every ISA, to AxpyRow(value, b row, d, out)
/// once per entry (each element's chain starts at out and takes the
/// entries in CSR order), with the column stripes of out held in registers
/// across the entries instead of loaded and stored once per entry. Same
/// tail-padding contract on `b` as SparseRowGemv.
void SparseRowAxpy(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out);

/// c_row[j] += sum_k a_row[k] * b(k, j): one output row of C = A * B with
/// b row-major of stride b_stride. The scalar path skips zero a_row[k]
/// (matching the original loops); the SIMD paths hold register-resident
/// column stripes of c across the entire k sweep (b is streamed through
/// sequentially exactly once per stripe), with a 1-3 column remainder
/// riding in the final stripe's over-reading tail vector.
void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row);

/// Overwrites each of `rows` row vectors v (row-major, `stride` doubles
/// apart, n wide) with the x that solves A x = v, given A's packed
/// partial-pivoting LU: `lu` (n x n, row-major) holds the unit-lower L
/// below the diagonal and U on and above it, and `perm` the pivot order
/// (P A = L U). Per element this is the textbook substitution: forward
/// x[i] = v[perm[i]] - lu(i,k) x[k] over ascending k < i, then backward
/// x[i] = (x[i] - lu(i,k) x[k] over ascending k > i) / lu(i,i), each step a
/// rounded multiply then a rounded subtract. The AVX2 path interleaves
/// independent rows across vector lanes and never fuses, and NEON
/// dispatch uses the scalar twin, so this kernel is exact tier on every
/// ISA.
void LuSolveRows(const double* lu, const size_t* perm, size_t n, double* x,
                 size_t stride, size_t rows);

/// C_blk += A_blk * B for a block of `rows` rows: c(r, j) += sum_kk
/// a(r, kk) * b(kk, j), with a rows x k (row stride a_stride), b k x n
/// (b_stride) and c rows x n (c_stride). `b` is swept in k-chunks of
/// BlockGemmChunkRows(n) rows, each chunk staying in L2 while every row
/// of the block passes over it, instead of being streamed whole once per
/// row. Each output element keeps one accumulation chain over the whole k
/// range (carried between chunks in a per-row buffer), so the result is
/// bit-identical, on every ISA, to RowGemm(a_r, k, b, b_stride, n, c_r)
/// per row (order kRowGemm: zero a(r, kk) skipped under scalar dispatch,
/// the AVX2 stripe plan and fold into c) or to AxpyRow(a(r, kk), b_kk, n,
/// c_r) per kk in order (kAxpyRow: no skip, the chain starts at c). Same
/// tail-padding contract on `b` as RowGemm.
void BlockGemm(const double* a, size_t a_stride, size_t rows, size_t k,
               const double* b, size_t b_stride, size_t n, double* c,
               size_t c_stride, GemmOrder order);

/// P += A' * X for a block of `rows` rows: p(kk, j) += sum_r a(r, kk) *
/// x(r, j) for kk < k, j < n, with a rows x k (a_stride), x rows x n
/// (x_stride) and p k x n (p_stride). Each p row is loaded once and the
/// rows of the block are added into it in order, so the result is
/// bit-identical, on every ISA, to AxpyRow(a(r, kk), x_r, n, p_kk) for
/// every entry of row 0, then row 1, ... (no zero skip). This is the
/// dense YtX update Y_blk' (x) X_blk with one pass over the D x d partial
/// per block instead of one per row.
void BlockRankUpdate(const double* a, size_t a_stride, size_t rows, size_t k,
                     const double* x, size_t x_stride, size_t n, double* p,
                     size_t p_stride);

}  // namespace spca::linalg::kernels

#endif  // SPCA_LINALG_KERNELS_H_
