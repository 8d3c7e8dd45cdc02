#include "linalg/solve.h"

#include <cmath>
#include <vector>

#include "linalg/kernels.h"

namespace spca::linalg {

StatusOr<DenseMatrix> CholeskyFactor(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  DenseMatrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite");
        }
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

StatusOr<DenseMatrix> SolveSpd(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveSpd: shape mismatch");
  }
  auto factor = CholeskyFactor(a);
  if (!factor.ok()) return factor.status();
  const DenseMatrix& l = factor.value();
  const size_t n = a.rows();
  DenseMatrix x = b;
  // Forward substitution: L * Z = B.
  for (size_t col = 0; col < b.cols(); ++col) {
    for (size_t i = 0; i < n; ++i) {
      double sum = x(i, col);
      for (size_t k = 0; k < i; ++k) sum -= l(i, k) * x(k, col);
      x(i, col) = sum / l(i, i);
    }
    // Backward substitution: L' * X = Z.
    for (size_t ii = n; ii-- > 0;) {
      double sum = x(ii, col);
      for (size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x(k, col);
      x(ii, col) = sum / l(ii, ii);
    }
  }
  return x;
}

StatusOr<LuFactors> LuFactor(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("LuFactor requires a square matrix");
  }
  const size_t n = a.rows();
  LuFactors factors{a, std::vector<size_t>(n)};
  auto& [lu, perm] = factors;
  for (size_t i = 0; i < n; ++i) perm[i] = i;

  for (size_t k = 0; k < n; ++k) {
    // Partial pivoting.
    size_t pivot = k;
    double max_abs = std::fabs(lu(k, k));
    for (size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > max_abs) {
        max_abs = v;
        pivot = i;
      }
    }
    if (max_abs < 1e-300) {
      return Status::FailedPrecondition("matrix is numerically singular");
    }
    if (pivot != k) {
      for (size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(pivot, j));
      std::swap(perm[k], perm[pivot]);
    }
    for (size_t i = k + 1; i < n; ++i) {
      lu(i, k) /= lu(k, k);
      const double lik = lu(i, k);
      if (lik == 0.0) continue;
      for (size_t j = k + 1; j < n; ++j) lu(i, j) -= lik * lu(k, j);
    }
  }
  return factors;
}

void LuSolveRows(const LuFactors& factors, DenseMatrix* rows, size_t begin,
                 size_t end) {
  SPCA_CHECK(rows->cols() == factors.lu.rows() && begin <= end &&
             end <= rows->rows());
  kernels::LuSolveRows(factors.lu.data(), factors.perm.data(),
                       factors.lu.rows(), rows->RowPtr(begin),
                       rows->row_stride(), end - begin);
}

StatusOr<DenseMatrix> SolveLu(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SolveLu requires a square matrix");
  }
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveLu: shape mismatch");
  }
  auto factors = LuFactor(a);
  if (!factors.ok()) return factors.status();
  // Each column of B is one right-hand side: substitute them as rows.
  DenseMatrix xt = b.Transpose();
  LuSolveRows(factors.value(), &xt, 0, xt.rows());
  return xt.Transpose();
}

StatusOr<DenseMatrix> Inverse(const DenseMatrix& a) {
  return SolveLu(a, DenseMatrix::Identity(a.rows()));
}

StatusOr<DenseMatrix> SolveRight(const DenseMatrix& b, const DenseMatrix& a) {
  if (a.rows() != a.cols() || b.cols() != a.rows()) {
    return Status::InvalidArgument("SolveRight: shape mismatch");
  }
  // X * A = B <=> A' * x' = b' for each row b of B: factor A' once.
  auto factors = LuFactor(a.Transpose());
  if (!factors.ok()) return factors.status();
  DenseMatrix x = b;
  LuSolveRows(factors.value(), &x, 0, x.rows());
  return x;
}

}  // namespace spca::linalg
