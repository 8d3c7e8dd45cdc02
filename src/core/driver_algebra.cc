#include "core/driver_algebra.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "linalg/solve.h"

namespace spca::core {

using linalg::DenseMatrix;
using linalg::DenseVector;

DenseMatrix DriverGram(dist::Engine* engine, const DenseMatrix& c,
                       size_t parts) {
  DenseMatrix ctc(c.cols(), c.cols());
  const std::vector<size_t> blocks = linalg::GramRowBlocks(c.cols(), parts);
  engine->DriverParallelFor(parts, [&](size_t p) {
    linalg::GramRows(c, blocks[p], blocks[p + 1], &ctc);
  });
  linalg::MirrorUpper(&ctc);
  return ctc;
}

namespace {

/// Smallest accepted ratio of a Cholesky pivot to its Gram diagonal entry
/// (the squared sine of the angle between a column and the span of the
/// ones before it). CholeskyQR2 restores orthogonality to roundoff while
/// cond(W) stays below about 1e8; 1e-12 accepts up to 1e6.
constexpr double kCholeskyQrMinPivot = 1e-12;

/// One CholeskyQR pass: out = in R^-1 with in'in = R'R. False, `out`
/// untouched, when a pivot is too small.
bool CholeskyQrPass(dist::Engine* engine, const DenseMatrix& in,
                    DenseMatrix* out) {
  const size_t n = in.rows();
  const size_t k = in.cols();
  const size_t parts = engine->DriverParts(uint64_t{n} * k * k);
  const DenseMatrix gram = DriverGram(engine, in, parts);
  auto factor = linalg::CholeskyFactor(gram);
  if (!factor.ok()) return false;
  const DenseMatrix& l = factor.value();  // lower, G = L L' = R'R, R = L'
  for (size_t j = 0; j < k; ++j) {
    if (!(l(j, j) * l(j, j) >= kCholeskyQrMinPivot * gram(j, j))) return false;
  }
  // R^-1 (upper triangular) by back substitution, column by column; then
  // in R^-1 as row-block products on the pool, which stay bit-identical
  // for any block count.
  DenseMatrix r_inverse(k, k);
  for (size_t j = 0; j < k; ++j) {
    r_inverse(j, j) = 1.0 / l(j, j);
    for (size_t i = j; i-- > 0;) {
      double sum = 0.0;
      for (size_t m = i + 1; m <= j; ++m) sum += l(m, i) * r_inverse(m, j);
      r_inverse(i, j) = -sum / l(i, i);
    }
  }
  engine->DriverForRowBlocks(n, parts, [&](size_t begin, size_t end) {
    std::fill(out->RowPtr(0) + begin * k, out->RowPtr(0) + end * k, 0.0);
    linalg::MultiplyRows(in, r_inverse, begin, end, out);
  });
  engine->CountDriverFlops(3ull * n * k * k + k * k * k / 2);
  return true;
}

}  // namespace

bool DriverCholeskyQr2(dist::Engine* engine, DenseMatrix* w) {
  SPCA_CHECK_GE(w->rows(), w->cols());
  DenseMatrix once(w->rows(), w->cols());
  if (!CholeskyQrPass(engine, *w, &once)) return false;
  return CholeskyQrPass(engine, once, w);
}

DenseVector MeanProjection(const DenseVector& ym, const DenseMatrix& z) {
  SPCA_CHECK_EQ(ym.size(), z.rows());
  DenseVector projection(z.cols());
  for (size_t r = 0; r < z.rows(); ++r) {
    const double m = ym[r];
    if (m == 0.0) continue;
    for (size_t j = 0; j < z.cols(); ++j) projection[j] += m * z(r, j);
  }
  return projection;
}

StatusOr<RitzPairs> RayleighRitz(const DenseMatrix& z, const DenseMatrix& w,
                                 size_t d) {
  const size_t k = z.cols();
  SPCA_CHECK_LE(d, k);
  // T = Z'W = Z'AZ is symmetric up to roundoff.
  DenseMatrix t = linalg::TransposeMultiply(z, w);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a + 1; b < k; ++b) {
      const double s = 0.5 * (t(a, b) + t(b, a));
      t(a, b) = s;
      t(b, a) = s;
    }
  }
  auto eigen = linalg::SymmetricEigen(t);
  if (!eigen.ok()) return eigen.status();
  RitzPairs ritz;
  ritz.values = std::move(eigen.value().values);
  ritz.top = DenseMatrix(k, d);
  for (size_t a = 0; a < k; ++a) {
    for (size_t j = 0; j < d; ++j) ritz.top(a, j) = eigen.value().vectors(a, j);
  }
  return ritz;
}

}  // namespace spca::core
