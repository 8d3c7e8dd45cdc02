#ifndef SPCA_CORE_RECONSTRUCTION_ERROR_H_
#define SPCA_CORE_RECONSTRUCTION_ERROR_H_

#include <cstdint>
#include <vector>

#include "dist/cluster_spec.h"
#include "dist/dist_matrix.h"
#include "linalg/dense_matrix.h"

namespace spca::core {

/// Every algorithm measures its reconstruction error on the same random
/// row subset, drawn with this fixed seed, so accuracy numbers (and the
/// shared "ideal accuracy" anchor) are directly comparable across methods.
inline constexpr uint64_t kErrorSampleSeed = 777;

/// Draws `count` distinct row indices uniformly at random (sorted).
/// This is the random row subset Yr on which the paper measures the
/// reconstruction error (Section 5, "Performance Metrics").
std::vector<size_t> SampleRowIndices(size_t total_rows, size_t count,
                                     uint64_t seed);

/// out = mean + projected * B' for one row, given B' as the d x D
/// transposed basis `basis_t`: per element the chain mean[k] + B(k, 0)
/// projected[0] + B(k, 1) projected[1] + ... in that order, eight
/// elements at a time. SampledReconstructionError's dense reconstruction.
void ReconstructRow(const linalg::DenseMatrix& basis_t,
                    const linalg::DenseVector& mean,
                    const linalg::DenseVector& projected,
                    linalg::DenseVector* out);

/// The paper's accuracy metric on a (small) sampled matrix:
///   e = ||Yr - Xr * B'||_1 / ||Yr||_1,
/// computed row by row so the dense reconstruction is never materialized.
/// `components` is the (not necessarily orthonormal) D x d basis C; the
/// reconstruction uses the orthonormalized basis B and the model mean:
/// Xr = (Yr - mean) * B, reconstruction = mean + Xr * B'.
double SampledReconstructionError(const dist::DistMatrix& sample,
                                  const linalg::DenseMatrix& components,
                                  const linalg::DenseVector& mean);

/// The rank-d truncated-SVD reconstruction error of the (mean-centered)
/// sample itself — a quick lower-bound-style reference computed via the
/// Gram trick. Note this is *not* the paper's accuracy anchor: under the
/// 1-norm a full-data model can beat the sample's own L2-optimal basis;
/// use ConvergedIdealError for the paper's metric.
double IdealReconstructionError(const dist::DistMatrix& sample, size_t d);

/// The paper's ideal-accuracy anchor (Section 5: "the ideal accuracy that
/// can be achieved with 50 principal components after a large number of
/// iterations"): fits PPCA on `y` for `iterations` EM iterations on a
/// throwaway engine (same cluster spec, so numerics match; no cost is
/// charged to the caller's engine) and returns its sampled reconstruction
/// error on `sample`.
double ConvergedIdealError(const dist::ClusterSpec& spec,
                           const dist::DistMatrix& y, size_t d,
                           const dist::DistMatrix& sample,
                           int iterations = 15, uint64_t seed = 1);

/// The paper plots "percentage of the ideal accuracy achieved". Defined
/// here as 100 * ideal_error / error, clamped to [0, 100]: it reaches 100%
/// exactly when the algorithm's error matches the best achievable error,
/// and stays meaningful even when the relative 1-norm error exceeds 1
/// (which genuinely happens for very sparse binary matrices, where low-rank
/// reconstructions smear mass over the zero entries).
double AccuracyPercent(double error, double ideal_error);

}  // namespace spca::core

#endif  // SPCA_CORE_RECONSTRUCTION_ERROR_H_
