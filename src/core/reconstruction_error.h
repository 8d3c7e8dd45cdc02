#ifndef SPCA_CORE_RECONSTRUCTION_ERROR_H_
#define SPCA_CORE_RECONSTRUCTION_ERROR_H_

#include <cstdint>
#include <vector>

#include "dist/cluster_spec.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"

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
/// use SubspaceIdealError for the paper's metric.
double IdealReconstructionError(const dist::DistMatrix& sample, size_t d);

/// The ideal-accuracy anchor as an EM fit: fits PPCA on `y` for
/// `iterations` EM iterations on a throwaway engine (same cluster
/// spec, so numerics match; no cost is charged to the caller's engine) and
/// returns its sampled reconstruction error on `sample`. Not converged;
/// the benchmarks pin it as their accuracy reference so that their
/// recorded accuracy figures stay comparable across versions. The solvers'
/// own default anchor is SubspaceIdealError.
double ConvergedIdealError(const dist::ClusterSpec& spec,
                           const dist::DistMatrix& y, size_t d,
                           const dist::DistMatrix& sample,
                           int iterations = 15, uint64_t seed = 1);

/// SubspaceIdealFit's stop: no top-d Ritz value moved by more than this
/// fraction of itself since the previous round. On 200k x 4000
/// Tweets-shape data (d = 50) that takes 10-14 rounds and lands within
/// 0.03% of the error of a 40-round, k = 2d subspace; on small inputs with
/// slow eigenvalue decay it can stop up to ~0.1% away (tests/anchor_test).
inline constexpr double kAnchorRitzTolerance = 5e-4;
/// Sketch columns beyond d: k = min(d + kAnchorOversample, D).
inline constexpr size_t kAnchorOversample = 10;

/// What SubspaceIdealFit computed and how.
struct SubspaceAnchor {
  double ideal_error = 0.0;
  /// Sketch passes run (at most max_rounds).
  int rounds = 0;
  /// Columns of the subspace iterate, k.
  size_t sketch_dim = 0;
};

/// The paper's ideal-accuracy anchor (Section 5: "the ideal accuracy that
/// can be achieved with 50 principal components after a large number of
/// iterations"), computed as the sampled error of the converged top-d
/// subspace of the centered `y` by block subspace iteration (Halko et al.;
/// Li-Kluger-Tygert's distributed form), all on `engine`:
///   - the mean by MeanJob, then Z = orth(Gaussian D x k) drawn from `seed`;
///   - per round one SketchJob, W = Yc' * (Yc * Z), and RayleighRitz on
///     the driver, T = Z'W = V diag(lambda) V';
///   - stop when no top-d Ritz value moved by more than
///     kAnchorRitzTolerance of itself since the previous round, or after
///     max(1, max_rounds) rounds; otherwise Z = orth(W) by
///     DriverCholeskyQr2, or by linalg::OrthonormalizeColumns when W is
///     numerically rank-deficient (k > N - 1 included);
///   - return SampledReconstructionError(sample, Z * V_top-d, mean).
/// Needs 1 <= d <= D; d may exceed N. The result does not depend on the
/// engine's worker count or FaultPlan.
SubspaceAnchor SubspaceIdealFit(dist::Engine* engine,
                                const dist::DistMatrix& y, size_t d,
                                const dist::DistMatrix& sample,
                                int max_rounds, uint64_t seed);

/// The solvers' default anchor: SubspaceIdealFit(...).ideal_error on a
/// throwaway engine (same cluster spec; none of its jobs, flops, bytes or
/// simulated seconds reach the caller's engine). When `registry` is
/// non-null the call is a wall-track "spca.anchor" span there, with
/// attributes rounds, sketch_dim and ideal_error.
double SubspaceIdealError(const dist::ClusterSpec& spec,
                          const dist::DistMatrix& y, size_t d,
                          const dist::DistMatrix& sample, int max_rounds,
                          uint64_t seed, obs::Registry* registry = nullptr);

/// The paper plots "percentage of the ideal accuracy achieved". Defined
/// here as 100 * ideal_error / error, clamped to [0, 100]: it reaches 100%
/// exactly when the algorithm's error matches the best achievable error,
/// and stays meaningful even when the relative 1-norm error exceeds 1
/// (which genuinely happens for very sparse binary matrices, where low-rank
/// reconstructions smear mass over the zero entries).
double AccuracyPercent(double error, double ideal_error);

}  // namespace spca::core

#endif  // SPCA_CORE_RECONSTRUCTION_ERROR_H_
