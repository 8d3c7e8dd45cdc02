#ifndef SPCA_SKETCH_RAND_SVD_H_
#define SPCA_SKETCH_RAND_SVD_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "core/solver.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"

namespace spca::sketch {

/// Options for the randomized range-finder solver.
struct RandSvdOptions {
  /// Number of principal components d.
  size_t num_components = 50;
  /// Sketch width k (columns of Omega). 0 means num_components +
  /// oversampling, clamped to the matrix dimensions.
  size_t sketch_dim = 0;
  /// Extra sketch columns when sketch_dim is 0 (Halko et al. recommend
  /// 5-10).
  size_t oversampling = 10;
  /// Additional subspace (power) iterations after the first pass. Each one
  /// sharpens the captured spectrum at the cost of one more distributed
  /// pass over Y.
  int power_iterations = 1;
  /// Seed for the Gaussian test matrix Omega.
  uint64_t seed = 1;
  /// Stop once this fraction of the ideal accuracy is reached (> 1
  /// disables the target and runs every round).
  double target_accuracy_fraction = 2.0;
  /// Rows in the reconstruction-error sample.
  size_t error_sample_rows = 1000;
  /// Record an accuracy trace point per round.
  bool compute_accuracy_trace = true;
  /// When > 0, skip the automatic anchor (core::SubspaceIdealError) and
  /// use this one (benchmarks share one anchor across solvers).
  double ideal_error_override = 0.0;
  /// Cap on the automatic anchor's subspace-iteration rounds.
  int ideal_fit_iterations = 15;
};

/// Single-pass randomized range-finder PCA (Halko/Martinsson/Tropp via
/// Li-Kluger-Tygert's distributed formulation): the cluster computes the
/// sketch W = Yc' * (Yc * Z) in ONE consolidated job per round — each task
/// ships only a (D x k + k)-double partial, never the N x k projection —
/// and the driver finishes with the k x k Rayleigh-Ritz problem
/// T = Z' W. Contrast with ssvd (Mahout), which materializes N x k
/// intermediates and runs 3+ jobs per power round: rand_svd trades a
/// slightly weaker per-round accuracy step for a fraction of the shipped
/// bytes and job count, which is exactly where it lands on the Figure 4/5
/// crossover.
///
/// Determinism: Omega is drawn from Rng(seed) via DrawOmega, every round
/// is a pure function of (Z, Y), and checkpoints store the next round's Z
/// — resuming re-runs the remaining rounds bit-identically.
///
/// The incremental Solver surface comes from core::BatchSolver: Step
/// buffers batches and Result runs one Solve over everything ingested.
class RandSvdPca : public core::BatchSolver {
 public:
  /// `engine` must outlive this object.
  RandSvdPca(dist::Engine* engine, const RandSvdOptions& options)
      : BatchSolver("rand_svd"), engine_(engine), options_(options) {}

  /// The seeded Gaussian test matrix Omega (D x k). Exposed so the
  /// determinism golden can pin the draws the solver consumes.
  static linalg::DenseMatrix DrawOmega(size_t dim, size_t sketch_dim,
                                       uint64_t seed);

  /// Effective sketch width for a D-column, N-row input.
  size_t EffectiveSketchDim(size_t rows, size_t cols) const;

  /// Single-shot fit.
  StatusOr<core::SolveResult> Solve(
      const dist::DistMatrix& y,
      const core::FitOptions& fit = {}) const override;

  /// Also forgets any restored basis.
  Status Init(const core::FitOptions& options) override;

  /// Restores a checkpoint written during a previous (possibly killed)
  /// solve. The checkpoint carries the orthonormal basis Z the *next*
  /// round would consume; the restored solver runs its configured number
  /// of rounds from that basis, so a resume configured with the remaining
  /// power iterations is bit-identical to the uninterrupted run.
  Status Restore(const core::PcaModel& model,
                 const core::SolverCheckpoint& checkpoint) override;

  const RandSvdOptions& options() const { return options_; }

 private:
  dist::Engine* engine_;
  RandSvdOptions options_;

  // Restored mid-run basis (orthonormal, D x k) and the number of rounds
  // already completed when it was checkpointed.
  std::optional<linalg::DenseMatrix> restored_basis_;
  uint64_t restored_rounds_ = 0;
};

}  // namespace spca::sketch

#endif  // SPCA_SKETCH_RAND_SVD_H_
