#ifndef SPCA_LINALG_SOLVE_H_
#define SPCA_LINALG_SOLVE_H_

#include <vector>

#include "common/status.h"
#include "linalg/dense_matrix.h"

namespace spca::linalg {

/// Cholesky factorization of a symmetric positive-definite matrix:
/// A = L * L' with L lower triangular. Fails if A is not SPD (within
/// numerical tolerance). Used for the d x d matrices M and XtX in PPCA.
StatusOr<DenseMatrix> CholeskyFactor(const DenseMatrix& a);

/// Solves A * X = B for SPD A using Cholesky. B may have multiple columns.
StatusOr<DenseMatrix> SolveSpd(const DenseMatrix& a, const DenseMatrix& b);

/// Partial-pivoting LU of a square matrix, P * A = L * U: `lu` packs the
/// unit-lower L below the diagonal and U on and above it; row i of P * A
/// is row perm[i] of A.
struct LuFactors {
  DenseMatrix lu;
  std::vector<size_t> perm;
};

/// Factors A; fails on non-square or numerically singular input.
StatusOr<LuFactors> LuFactor(const DenseMatrix& a);

/// Overwrites rows [begin, end) of `rows` (each as wide as A) with their
/// solutions: every row v becomes the x with A * x = v, where A is the
/// factored matrix. Rows are independent and each is substituted exactly
/// as a whole-matrix solve would, so disjoint ranges may run on different
/// threads. Exact on every kernel ISA (kernels::LuSolveRows).
void LuSolveRows(const LuFactors& factors, DenseMatrix* rows, size_t begin,
                 size_t end);

/// Solves A * X = B using LU with partial pivoting (general square A).
StatusOr<DenseMatrix> SolveLu(const DenseMatrix& a, const DenseMatrix& b);

/// Inverse of a square matrix via LU. Fails on (numerically) singular input.
StatusOr<DenseMatrix> Inverse(const DenseMatrix& a);

/// Solves X * A = B, i.e. X = B * A^{-1} — the paper's `B / A` notation
/// (line "C = YtX / XtX" in Algorithm 1). A is square (d x d); B is (n x d).
/// Factors A' once and substitutes B's rows in place (no transposes of
/// the n x d operands).
StatusOr<DenseMatrix> SolveRight(const DenseMatrix& b, const DenseMatrix& a);

}  // namespace spca::linalg

#endif  // SPCA_LINALG_SOLVE_H_
