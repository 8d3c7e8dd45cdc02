#ifndef SPCA_STREAM_STREAM_SOLVER_H_
#define SPCA_STREAM_STREAM_SOLVER_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "core/solver.h"
#include "dist/comm_stats.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"

namespace spca::stream {

/// Options shared by the streaming solvers.
struct StreamSolverOptions {
  size_t num_components = 50;
  uint64_t seed = 1;
  /// EMA weight for the running sufficient statistics (mini-batch EM) and
  /// the running residual estimates (Oja). 0 selects the flat average
  /// rho_t = 1/t — the right choice for a stationary stream; a fixed
  /// rho in (0, 1] forgets exponentially and tracks drifting streams.
  double decay = 0.2;
  /// Oja learning-rate schedule eta_t = eta0 / (1 + t / tau). The default
  /// is sized so a random orthonormal init separates signal from noise
  /// directions within a handful of unit-variance mini-batches; halving it
  /// roughly doubles the steps to convergence.
  double eta0 = 2.0;
  double tau = 50.0;
  /// Lazy reorthonormalization period, in mini-batch steps, for the Oja
  /// solver: the basis is allowed to shear for this many gradient steps
  /// before one QR pass restores orthonormality ("lazy" per Lazy
  /// stochastic PCA). Snapshot() always returns an orthonormal basis
  /// regardless. Mini-batch EM ignores this — its M-step solve keeps C
  /// conditioned without explicit reorthogonalization.
  size_t reorth_every = 8;
};

/// Mini-batch stochastic EM for PPCA on an unbounded row stream.
///
/// State between batches is exactly the servable triple (mean, C, ss) plus
/// EMA-blended per-row sufficient statistics (E[x x'], E[y' x], E||yc||^2).
/// Each Step runs one EM iteration whose E-step statistics come from the
/// current batch (through the same distributed jobs — and hence the same
/// cost accounting and replayable traces — as the batch solver), blended
/// into the running statistics before the M-step. With decay = 0 and a
/// single Step over all rows this is one batch EM iteration up to
/// roundoff, not bit for bit: the statistics are divided by the batch size
/// and multiplied back, so C differs from Spca's in the last bits (max
/// relative error 8e-14 on 2000 x 300 Tweets, 2.3e-11 on Diabetes, d = 6).
class MiniBatchEmSolver : public core::Solver {
 public:
  /// `engine` must outlive this object.
  MiniBatchEmSolver(dist::Engine* engine, const StreamSolverOptions& options)
      : engine_(engine), options_(options) {}

  std::string_view name() const override { return "minibatch_em"; }
  Status Init(const core::FitOptions& options) override;
  Status Step(const dist::DistMatrix& batch) override;
  StatusOr<core::PcaModel> Snapshot() const override;
  StatusOr<core::SolveResult> Result() override;

  /// Full resume state: the EMA-blended sufficient statistics plus the
  /// exact mean accumulator. Restoring (Snapshot(), Checkpoint()) into a
  /// freshly Init()ed solver makes subsequent Steps bit-identical to the
  /// uninterrupted run.
  StatusOr<core::SolverCheckpoint> Checkpoint() const override;
  Status Restore(const core::PcaModel& model,
                 const core::SolverCheckpoint& checkpoint) override;

  size_t steps() const { return steps_; }
  uint64_t rows_seen() const { return rows_seen_; }
  double noise_variance() const { return ss_; }

 private:
  dist::Engine* engine_;
  StreamSolverOptions options_;

  obs::Registry* registry_ = nullptr;
  std::function<Status(const core::PcaModel&, const core::SolverCheckpoint&)>
      on_checkpoint_;
  size_t dim_ = 0;  // fixed by the first batch
  size_t steps_ = 0;
  uint64_t rows_seen_ = 0;
  linalg::DenseVector mean_sum_;  // running column sums (exact mean)
  linalg::DenseVector mean_;
  linalg::DenseMatrix c_;  // D x d
  double ss_ = 1.0;
  // EMA-blended per-row sufficient statistics.
  linalg::DenseMatrix s_xtx_;  // d x d
  linalg::DenseMatrix s_ytx_;  // D x d
  double s_ss1_ = 0.0;
  double s_ss3_ = 0.0;
  std::vector<core::IterationTrace> trace_;
  dist::CommStats stats_before_;
  double sim_before_ = 0.0;
  size_t first_job_index_ = 0;
  Stopwatch wall_;
};

/// Oja / streaming power iteration with lazy reorthonormalization.
///
/// Each Step takes one gradient step C += eta_t * Yc' (Yc C) / b on the
/// mini-batch (a consolidated distributed job; mean-propagated so sparse
/// rows stay sparse) and reorthonormalizes only every reorth_every steps.
/// The running mean is exact; ss is estimated from the EMA of the residual
/// energy per row, so Snapshot() yields a complete servable PPCA model.
class OjaSolver : public core::Solver {
 public:
  /// `engine` must outlive this object.
  OjaSolver(dist::Engine* engine, const StreamSolverOptions& options)
      : engine_(engine), options_(options) {}

  std::string_view name() const override { return "oja"; }
  Status Init(const core::FitOptions& options) override;
  Status Step(const dist::DistMatrix& batch) override;
  StatusOr<core::PcaModel> Snapshot() const override;
  StatusOr<core::SolveResult> Result() override;

  /// Resume state including the *raw* (possibly sheared) basis — the
  /// published model's orthonormalized components are not sufficient to
  /// continue the lazy-reorthonormalization schedule bit-identically.
  StatusOr<core::SolverCheckpoint> Checkpoint() const override;
  Status Restore(const core::PcaModel& model,
                 const core::SolverCheckpoint& checkpoint) override;

  size_t steps() const { return steps_; }
  uint64_t rows_seen() const { return rows_seen_; }

 private:
  dist::Engine* engine_;
  StreamSolverOptions options_;

  obs::Registry* registry_ = nullptr;
  std::function<Status(const core::PcaModel&, const core::SolverCheckpoint&)>
      on_checkpoint_;
  size_t dim_ = 0;
  size_t steps_ = 0;
  uint64_t rows_seen_ = 0;
  size_t steps_since_reorth_ = 0;
  linalg::DenseVector mean_sum_;
  linalg::DenseVector mean_;
  linalg::DenseMatrix c_;  // D x d, approximately orthonormal
  // EMA of per-row total and projected energy, for the ss estimate.
  double s_norm_ = 0.0;
  double s_proj_ = 0.0;
  std::vector<core::IterationTrace> trace_;
  dist::CommStats stats_before_;
  double sim_before_ = 0.0;
  size_t first_job_index_ = 0;
  Stopwatch wall_;
};

}  // namespace spca::stream

#endif  // SPCA_STREAM_STREAM_SOLVER_H_
