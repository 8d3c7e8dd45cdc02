#include "linalg/ops.h"

#include <algorithm>

#include "linalg/kernels.h"

namespace spca::linalg {

// Every routine here is a thin loop over the contiguous-row micro-kernels
// in linalg/kernels.h. The kernels unroll only across output columns and
// keep reductions as single sequential chains, so each function produces
// bit-identical results to the scalar triple loops it replaced.

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  MultiplyRows(a, b, 0, a.rows(), &c);
  return c;
}

void MultiplyRows(const DenseMatrix& a, const DenseMatrix& b, size_t begin,
                  size_t end, DenseMatrix* out) {
  SPCA_CHECK_EQ(a.cols(), b.rows());
  SPCA_CHECK(out->rows() == a.rows() && out->cols() == b.cols());
  SPCA_CHECK(begin <= end && end <= a.rows());
  for (size_t i = begin; i < end; ++i) {
    kernels::RowGemm(a.RowPtr(i), a.cols(), b.data(), b.row_stride(),
                     b.cols(), out->RowPtr(i));
  }
}

DenseMatrix Gram(const DenseMatrix& a) {
  DenseMatrix g(a.cols(), a.cols());
  GramRows(a, 0, a.cols(), &g);
  MirrorUpper(&g);
  return g;
}

void GramRows(const DenseMatrix& a, size_t begin, size_t end,
              DenseMatrix* out) {
  const size_t d = a.cols();
  SPCA_CHECK(out->rows() == d && out->cols() == d);
  SPCA_CHECK(begin <= end && end <= d);
  if (begin == end) return;
  // Per block of 32 rows of A: the diagonal block of the triangle as a
  // symmetric rank update, and the rectangle right of it (columns >= end)
  // as a plain one. Either way out(p, q) += a(r, p) * a(r, q) over rows r
  // in order, one chain per element, as per-row SymRank1Update and
  // Rank1Update calls would add it (Rank1Update's zero skip adds nothing
  // to an accumulator that starts at +0 and so is never -0).
  constexpr size_t kRowBlock = 32;
  double* block = out->RowPtr(begin) + begin;
  for (size_t r0 = 0; r0 < a.rows(); r0 += kRowBlock) {
    const size_t rows = std::min(kRowBlock, a.rows() - r0);
    const double* x = a.RowPtr(r0);
    kernels::BlockSymRankUpdate(x + begin, d, rows, end - begin, block, d);
    if (end < d) {
      kernels::BlockRankUpdate(x + begin, d, rows, end - begin, x + end, d,
                               d - end, block + (end - begin), d);
    }
  }
}

std::vector<size_t> GramRowBlocks(size_t d, size_t parts) {
  // Row p of the upper triangle holds d - p entries; cut where the running
  // total first reaches each part's share.
  std::vector<size_t> bounds(parts + 1, d);
  bounds[0] = 0;
  const double total = 0.5 * static_cast<double>(d) * (d + 1);
  double done = 0.0;
  size_t next = 1;
  for (size_t p = 0; p < d && next < parts; ++p) {
    done += static_cast<double>(d - p);
    if (done >= total * next / parts) bounds[next++] = p + 1;
  }
  return bounds;
}

void MirrorUpper(DenseMatrix* a) {
  SPCA_CHECK_EQ(a->rows(), a->cols());
  kernels::SymMirrorLower(a->data(), a->rows(), a->row_stride());
}

DenseMatrix TransposeMultiply(const DenseMatrix& a, const DenseMatrix& b) {
  SPCA_CHECK_EQ(a.rows(), b.rows());
  DenseMatrix c(a.cols(), b.cols());
  // sum_r (A_r)' * B_r: stream one row of each operand at a time (the
  // paper's Equation 2) as a rank-1 update of C.
  for (size_t r = 0; r < a.rows(); ++r) {
    kernels::Rank1Update(a.RowPtr(r), a.cols(), b.RowPtr(r), b.cols(),
                         c.data(), c.row_stride());
  }
  return c;
}

DenseMatrix MultiplyTranspose(const DenseMatrix& a, const DenseMatrix& b) {
  SPCA_CHECK_EQ(a.cols(), b.cols());
  DenseMatrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.RowPtr(i);
    double* c_row = c.RowPtr(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      c_row[j] = kernels::DotRow(a_row, b.RowPtr(j), a.cols());
    }
  }
  return c;
}

DenseVector MultiplyVector(const DenseMatrix& a, const DenseVector& x) {
  SPCA_CHECK_EQ(a.cols(), x.size());
  DenseVector y(a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    y[i] = kernels::DotRow(a.RowPtr(i), x.data(), a.cols());
  }
  return y;
}

DenseVector TransposeMultiplyVector(const DenseMatrix& a,
                                    const DenseVector& x) {
  SPCA_CHECK_EQ(a.rows(), x.size());
  DenseVector y(a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    kernels::AxpyRow(xi, a.RowPtr(i), a.cols(), y.data());
  }
  return y;
}

DenseVector RowTimesMatrix(const DenseVector& row, const DenseMatrix& b) {
  SPCA_CHECK_EQ(row.size(), b.rows());
  DenseVector out(b.cols());
  kernels::RowGemm(row.data(), row.size(), b.data(), b.row_stride(), b.cols(),
                   out.data());
  return out;
}

DenseVector SparseRowTimesMatrix(const SparseRowView& row,
                                 const DenseMatrix& b) {
  SPCA_CHECK_EQ(row.dim(), b.rows());
  DenseVector out(b.cols());
  kernels::SparseRowGemv(row.begin(), row.nnz(), b.data(), b.row_stride(),
                         b.cols(), out.data());
  return out;
}

void AddOuterProduct(const DenseVector& a, const DenseVector& b,
                     DenseMatrix* out) {
  SPCA_CHECK_EQ(out->rows(), a.size());
  SPCA_CHECK_EQ(out->cols(), b.size());
  kernels::Rank1Update(a.data(), a.size(), b.data(), b.size(), out->data(),
                       out->row_stride());
}

void AddSparseOuterProduct(const SparseRowView& row, const DenseVector& b,
                           DenseMatrix* out) {
  SPCA_CHECK_EQ(out->rows(), row.dim());
  SPCA_CHECK_EQ(out->cols(), b.size());
  for (const auto& e : row) {
    kernels::AxpyRow(e.value, b.data(), b.size(), out->RowPtr(e.index));
  }
}

DenseMatrix SparseTimesDense(const SparseMatrix& y, const DenseMatrix& b) {
  SPCA_CHECK_EQ(y.cols(), b.rows());
  DenseMatrix c(y.rows(), b.cols());
  for (size_t i = 0; i < y.rows(); ++i) {
    const auto row = y.Row(i);
    kernels::SparseRowGemv(row.begin(), row.nnz(), b.data(), b.row_stride(),
                           b.cols(), c.RowPtr(i));
  }
  return c;
}

DenseMatrix MeanCenter(const DenseMatrix& a, const DenseVector& mean) {
  SPCA_CHECK_EQ(a.cols(), mean.size());
  DenseMatrix c(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.RowPtr(i);
    double* c_row = c.RowPtr(i);
    for (size_t j = 0; j < a.cols(); ++j) c_row[j] = a_row[j] - mean[j];
  }
  return c;
}

DenseVector ColumnMeans(const DenseMatrix& a) {
  DenseVector means(a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    kernels::AddRow(a.RowPtr(i), a.cols(), means.data());
  }
  if (a.rows() > 0) means.Scale(1.0 / static_cast<double>(a.rows()));
  return means;
}

}  // namespace spca::linalg
