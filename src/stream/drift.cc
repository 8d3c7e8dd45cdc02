#include "stream/drift.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace spca::stream {

using linalg::DenseMatrix;

double SubspaceAngleRadians(const DenseMatrix& a, const DenseMatrix& b) {
  SPCA_CHECK_EQ(a.rows(), b.rows());
  SPCA_CHECK_GT(a.cols(), 0u);
  SPCA_CHECK_GT(b.cols(), 0u);
  const DenseMatrix qa = linalg::OrthonormalizeColumns(a);
  const DenseMatrix qb = linalg::OrthonormalizeColumns(b);
  // The cosines of the principal angles are the singular values of
  // M = Qa' Qb; the k-th largest eigenvalue of M'M (k = min(ka, kb)) is the
  // squared cosine of the largest angle.
  const DenseMatrix m = linalg::TransposeMultiply(qa, qb);
  const DenseMatrix mtm = linalg::Gram(m);
  auto eig = linalg::SymmetricEigen(mtm);
  SPCA_CHECK(eig.ok());
  const size_t k = std::min(qa.cols(), qb.cols());
  const double lambda = std::clamp(eig.value().values[k - 1], 0.0, 1.0);
  return std::acos(std::sqrt(lambda));
}

double SubspaceAngleDegrees(const DenseMatrix& a, const DenseMatrix& b) {
  return SubspaceAngleRadians(a, b) * 180.0 / 3.14159265358979323846;
}

}  // namespace spca::stream
