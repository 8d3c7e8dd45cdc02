#ifndef SPCA_CORE_DRIVER_ALGEBRA_H_
#define SPCA_CORE_DRIVER_ALGEBRA_H_

#include "common/status.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"

namespace spca::core {

// D x k driver products split across an engine's pool. Every output
// element sees the same operations in the same order for any block count,
// so results do not depend on the engine's worker count.

/// C'C with the triangle's output rows split across `parts` pool tasks:
/// bit-identical to linalg::Gram(c).
linalg::DenseMatrix DriverGram(dist::Engine* engine,
                               const linalg::DenseMatrix& c, size_t parts);

/// Orthonormalizes the columns of `w` (n x k, n >= k) in place by
/// CholeskyQR2: twice, G = W'W (DriverGram), G = R'R, W <- W R^-1 with
/// the triangular R^-1 applied in row blocks on the pool. Returns false,
/// leaving `w` as it was, when a Cholesky pivot falls below 1e-12 of its
/// Gram diagonal entry (W numerically rank-deficient); callers then fall
/// back to OrthonormalizeColumns.
bool DriverCholeskyQr2(dist::Engine* engine, linalg::DenseMatrix* w);

// The driver half of one subspace (power) iteration round, shared by
// RandSvdPca and the ideal-accuracy anchor. Serial; the caller counts
// the flops.

/// Ym' * Z (ym: D, z: D x k), the mean's projection onto the basis that a
/// sketch pass needs: column j sums ym[r] * z(r, j) over rows r in order,
/// skipping zero means.
linalg::DenseVector MeanProjection(const linalg::DenseVector& ym,
                                   const linalg::DenseMatrix& z);

/// Rayleigh-Ritz on the span of Z after a sketch pass W = A * Z (A
/// symmetric): the eigenpairs of T = Z'W, symmetrized against roundoff.
struct RitzPairs {
  /// All k Ritz values, descending.
  linalg::DenseVector values;
  /// The top-`d` Ritz vectors as the columns of a k x d matrix.
  linalg::DenseMatrix top;
};
StatusOr<RitzPairs> RayleighRitz(const linalg::DenseMatrix& z,
                                 const linalg::DenseMatrix& w, size_t d);

}  // namespace spca::core

#endif  // SPCA_CORE_DRIVER_ALGEBRA_H_
