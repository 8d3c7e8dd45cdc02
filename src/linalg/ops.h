#ifndef SPCA_LINALG_OPS_H_
#define SPCA_LINALG_OPS_H_

#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace spca::linalg {

/// C = A * B. Shapes: (n x k) * (k x m) -> (n x m).
DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b);

/// Rows [begin, end) of A * B, written into `out` (a.rows() x b.cols()).
/// Each output row is the same kernel call Multiply makes, so disjoint
/// row ranges may run on different threads and still match Multiply bit
/// for bit.
void MultiplyRows(const DenseMatrix& a, const DenseMatrix& b, size_t begin,
                  size_t end, DenseMatrix* out);

/// C = A' * B. Shapes: (k x n)' * (k x m) -> (n x m). Computed row-by-row
/// as sum_r (A_r)' * B_r (the paper's Equation 2), no explicit transpose.
/// For A' * A, Gram(a) does half the work.
DenseMatrix TransposeMultiply(const DenseMatrix& a, const DenseMatrix& b);

/// G = A' * A (the d x d C'C of the EM driver). Accumulates only the upper
/// triangle, then mirrors it: half the multiply-adds of the full product
/// and, for finite input, bit-identical to it on every ISA, because a
/// product and its mirror are the same IEEE operation (x*y == y*x,
/// fma(x,y,z) == fma(y,x,z)).
DenseMatrix Gram(const DenseMatrix& a);

/// Adds rows [begin, end) of Gram(a)'s upper triangle (columns >= row)
/// into `out` (d x d, zeroed by the caller), reducing every row of A in
/// order. Disjoint ranges may run on different threads; once all rows are
/// done, MirrorUpper(out) gives Gram(a) bit for bit.
void GramRows(const DenseMatrix& a, size_t begin, size_t end,
              DenseMatrix* out);

/// Row boundaries 0 = b[0] <= b[1] <= ... <= b[parts] = d splitting
/// Gram's d-row upper triangle into `parts` blocks of near-equal work.
std::vector<size_t> GramRowBlocks(size_t d, size_t parts);

/// Copies the upper triangle of a square matrix into its lower triangle.
void MirrorUpper(DenseMatrix* a);

/// C = A * B'. Shapes: (n x k) * (m x k)' -> (n x m).
DenseMatrix MultiplyTranspose(const DenseMatrix& a, const DenseMatrix& b);

/// y = A * x. Shapes: (n x m) * (m) -> (n).
DenseVector MultiplyVector(const DenseMatrix& a, const DenseVector& x);

/// y = A' * x = (x' * A)'. Shapes: (n x m)' * (n) -> (m).
DenseVector TransposeMultiplyVector(const DenseMatrix& a,
                                    const DenseVector& x);

/// Row-vector times matrix: out = row * B where row has B.rows() elements
/// and out has B.cols(). This is the paper's in-memory multiplication
/// (A*B)_i = A_i * B with B broadcast to every worker.
DenseVector RowTimesMatrix(const DenseVector& row, const DenseMatrix& b);

/// Sparse-row times dense matrix: out = y_i * B, touching only the
/// non-zeros of y_i. Cost O(nnz * B.cols()) instead of O(D * B.cols()).
DenseVector SparseRowTimesMatrix(const SparseRowView& row,
                                 const DenseMatrix& b);

/// out += outer product a * b' where a has `rows` elements (column) and b'
/// has `cols` (row). out must be (a.size() x b.size()).
void AddOuterProduct(const DenseVector& a, const DenseVector& b,
                     DenseMatrix* out);

/// out += y_i' * b where y_i is sparse (column vector of dim D) and b is a
/// dense row (1 x d): touches only nnz(y_i) rows of out. The sparse
/// accumulator update from the paper's Spark YtXJob (Section 4.2).
void AddSparseOuterProduct(const SparseRowView& row, const DenseVector& b,
                           DenseMatrix* out);

/// C = Y * B for a sparse Y (N x D) and dense B (D x m): row-wise sparse
/// products.
DenseMatrix SparseTimesDense(const SparseMatrix& y, const DenseMatrix& b);

/// Returns A with each row mean-centered: A_i - mean (a dense result; the
/// *unoptimized* eager mean-centering path used for ablations).
DenseMatrix MeanCenter(const DenseMatrix& a, const DenseVector& mean);

/// Per-column means of a dense matrix.
DenseVector ColumnMeans(const DenseMatrix& a);

}  // namespace spca::linalg

#endif  // SPCA_LINALG_OPS_H_
