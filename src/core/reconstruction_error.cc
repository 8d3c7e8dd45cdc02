#include "core/reconstruction_error.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/svd.h"

namespace spca::core {

using linalg::DenseMatrix;
using linalg::DenseVector;

std::vector<size_t> SampleRowIndices(size_t total_rows, size_t count,
                                     uint64_t seed) {
  count = std::min(count, total_rows);
  // Floyd's algorithm for a uniform sample without replacement.
  Rng rng(seed);
  std::vector<size_t> sample;
  std::vector<bool> chosen(total_rows, false);
  for (size_t j = total_rows - count; j < total_rows; ++j) {
    const size_t t = rng.NextUint64Below(j + 1);
    if (!chosen[t]) {
      chosen[t] = true;
      sample.push_back(t);
    } else {
      chosen[j] = true;
      sample.push_back(j);
    }
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

void ReconstructRow(const DenseMatrix& basis_t, const DenseVector& mean,
                    const DenseVector& projected, DenseVector* out) {
  const size_t d = basis_t.rows();
  const size_t dim = basis_t.cols();
  SPCA_CHECK_EQ(mean.size(), dim);
  SPCA_CHECK_EQ(projected.size(), d);
  SPCA_CHECK_EQ(out->size(), dim);
  // Eight independent chains only stop the steps from waiting on each
  // other's add latency. Named accumulators, not an array: GCC keeps those
  // in registers, an array it loop-vectorizes through memory.
  size_t k = 0;
  for (; k + 8 <= dim; k += 8) {
    double v0 = mean[k], v1 = mean[k + 1], v2 = mean[k + 2];
    double v3 = mean[k + 3], v4 = mean[k + 4], v5 = mean[k + 5];
    double v6 = mean[k + 6], v7 = mean[k + 7];
    const double* bt = basis_t.RowPtr(0) + k;
    for (size_t j = 0; j < d; ++j, bt += dim) {
      const double p = projected[j];
      v0 += bt[0] * p;
      v1 += bt[1] * p;
      v2 += bt[2] * p;
      v3 += bt[3] * p;
      v4 += bt[4] * p;
      v5 += bt[5] * p;
      v6 += bt[6] * p;
      v7 += bt[7] * p;
    }
    double* o = out->data() + k;
    o[0] = v0;
    o[1] = v1;
    o[2] = v2;
    o[3] = v3;
    o[4] = v4;
    o[5] = v5;
    o[6] = v6;
    o[7] = v7;
  }
  for (; k < dim; ++k) {
    double value = mean[k];
    for (size_t j = 0; j < d; ++j) value += basis_t(j, k) * projected[j];
    (*out)[k] = value;
  }
}

double SampledReconstructionError(const dist::DistMatrix& sample,
                                  const DenseMatrix& components,
                                  const DenseVector& mean) {
  SPCA_CHECK_EQ(sample.cols(), components.rows());
  const DenseMatrix basis = linalg::OrthonormalizeColumns(components);
  const size_t d = basis.cols();
  const size_t dim = sample.cols();

  // mean' * B (so each row's projection uses mean propagation).
  DenseVector mean_projection(d);
  for (size_t k = 0; k < dim; ++k) {
    const double m = mean[k];
    if (m == 0.0) continue;
    for (size_t j = 0; j < d; ++j) mean_projection[j] += m * basis(k, j);
  }

  double error_norm = 0.0;
  double data_norm = 0.0;
  DenseVector projected(d);
  DenseVector reconstructed(dim);
  const DenseMatrix basis_t = basis.Transpose();  // d x D
  for (size_t i = 0; i < sample.rows(); ++i) {
    sample.RowTimesMatrix(i, basis, &projected);
    projected.Subtract(mean_projection);
    // Reconstruction (dense row): mean + projected * B'.
    ReconstructRow(basis_t, mean, projected, &reconstructed);
    // 1-norm of (row - reconstruction) without materializing the dense row:
    // stored entries contribute |v - rec|, absent entries |0 - rec|.
    double absent = 0.0;
    for (size_t k = 0; k < dim; ++k) absent += std::fabs(reconstructed[k]);
    double present = 0.0;
    double row_norm = 0.0;
    sample.ForEachEntry(i, [&](size_t k, double v) {
      present += std::fabs(v - reconstructed[k]) - std::fabs(reconstructed[k]);
      row_norm += std::fabs(v);
    });
    error_norm += absent + present;
    data_norm += row_norm;
  }
  if (data_norm == 0.0) return 0.0;
  return error_norm / data_norm;
}

double IdealReconstructionError(const dist::DistMatrix& sample, size_t d) {
  const size_t n = sample.rows();
  const size_t dim = sample.cols();
  SPCA_CHECK_GT(n, 0u);

  // Materialize the (small) sample densely and mean-center it.
  DenseMatrix dense = sample.ToDenseSlice(0, n);
  const DenseVector mean = linalg::ColumnMeans(dense);
  DenseMatrix centered = linalg::MeanCenter(dense, mean);

  // Exact top-d right singular vectors via the Gram trick (n is small).
  auto svd = linalg::SvdWideViaGram(centered);
  SPCA_CHECK(svd.ok());
  const size_t k = std::min(d, svd.value().v.cols());
  DenseMatrix top(dim, k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < dim; ++i) top(i, j) = svd.value().v(i, j);
  }
  return SampledReconstructionError(sample, top, mean);
}

double ConvergedIdealError(const dist::ClusterSpec& spec,
                           const dist::DistMatrix& y, size_t d,
                           const dist::DistMatrix& sample, int iterations,
                           uint64_t seed) {
  dist::Engine shadow(spec, dist::EngineMode::kSpark);
  SpcaOptions options;
  options.num_components = d;
  options.max_iterations = iterations;
  options.target_accuracy_fraction = 2.0;   // run all iterations
  options.compute_accuracy_trace = false;   // no nested ideal computation
  options.seed = seed;
  auto fit = Spca(&shadow, options).Solve(y);
  SPCA_CHECK_MSG(fit.ok(), "converged ideal-error fit failed");
  return SampledReconstructionError(sample, fit.value().model.components,
                                    fit.value().model.mean);
}

double AccuracyPercent(double error, double ideal_error) {
  if (error <= 0.0) return 100.0;
  const double pct = 100.0 * ideal_error / error;
  return std::clamp(pct, 0.0, 100.0);
}

}  // namespace spca::core
