#ifndef SPCA_CORE_SPCA_OPTIONS_H_
#define SPCA_CORE_SPCA_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace spca::core {

/// Configuration for Spca::Solve. The optimization toggles exist so the
/// effect of each design decision can be measured in isolation (the paper's
/// Section 5.4 / Table 3); production use leaves them all enabled. With
/// every toggle disabled, the algorithm degenerates to the naive
/// distributed PPCA of Algorithm 1 / Figure 1.
struct SpcaOptions {
  /// Number of principal components d (the paper evaluates with d = 50).
  size_t num_components = 50;

  /// Maximum EM iterations (the paper limits experiments to 10).
  int max_iterations = 10;

  /// STOP_CONDITION: stop once the achieved accuracy reaches this fraction
  /// of the ideal accuracy (the paper reports time to 95%). Set above 1.0
  /// to always run max_iterations.
  double target_accuracy_fraction = 0.95;

  /// Number of rows in the random sample used to measure reconstruction
  /// error (the paper measures error "only on a random subset of the rows").
  size_t error_sample_rows = 256;

  /// Seed for C/ss initialization and the error-row sample.
  uint64_t seed = 1;

  // ---- Optimization toggles (Section 3) -------------------------------

  /// §3.1 Mean propagation: keep Y sparse and propagate Ym through the
  /// algebra. Disabled: every row is densified (Yc = Y - Ym) before use.
  bool mean_propagation = true;

  /// §3.2 Minimizing intermediate data: recompute X on demand inside each
  /// consumer job. Disabled: X is materialized as an N x d intermediate
  /// dataset that every consumer job re-reads.
  bool minimize_intermediate_data = true;

  /// §3.2 Job consolidation: compute XtX and YtX in one distributed job.
  /// Disabled: separate XtX and YtX jobs (one more job launch, and X is
  /// produced/consumed once more).
  bool consolidate_jobs = true;

  /// §3.4 Frobenius norm over non-zeros only (Algorithm 3). Disabled:
  /// Algorithm 2 (densify each row, then sum squares).
  bool efficient_frobenius = true;

  /// §4.1 Associativity in ss3: compute X_i * (C' * Y_i') instead of
  /// (X_i * C') * Y_i'. Disabled: the inefficient left-to-right order.
  bool ss3_associativity = true;

  // ---- Smart-guess initialization (sPCA-SG, Section 5.2) ---------------

  /// Fit first on a small random row sample and use the resulting C and ss
  /// as the starting point for the full run.
  bool smart_guess = false;
  size_t smart_guess_rows = 1000;
  int smart_guess_iterations = 10;

  /// Record the per-iteration accuracy/time trace (costs one error
  /// evaluation per iteration on the sampled rows).
  bool compute_accuracy_trace = true;

  /// Ideal-accuracy anchor (Section 5): the error of the converged top-d
  /// subspace, against which per-iteration accuracy percentages are
  /// reported. When 0, the anchor is computed automatically by
  /// core::SubspaceIdealError on a throwaway engine; benchmarks comparing
  /// several algorithms on one dataset compute it once and pass it here.
  double ideal_error_override = 0.0;
  /// Cap on the automatic anchor's subspace-iteration rounds (one sketch
  /// pass each); it usually stops earlier, on kAnchorRitzTolerance.
  int ideal_fit_iterations = 15;

  // ---- Sparse loadings (the "spca_sparse" preset) ----------------------

  /// L1 soft threshold applied entrywise to C after every EM update:
  /// c <- sign(c) * max(|c| - l1_threshold, 0). Each column's
  /// largest-magnitude entry is exempt so no component collapses to zero.
  /// 0 disables it (plain sPCA); > 0 makes the solver "spca_sparse".
  double l1_threshold = 0.0;
};

}  // namespace spca::core

#endif  // SPCA_CORE_SPCA_OPTIONS_H_
