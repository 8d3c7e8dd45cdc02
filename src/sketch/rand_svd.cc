#include "sketch/rand_svd.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/driver_algebra.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace spca::sketch {

using dist::CommStats;
using dist::DistMatrix;
using dist::EngineMode;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// One task's sketch partial: W_p = sum_i Y_i' * t_i (D x k, touching only
/// the stored entries of each row) and the projection column sums needed
/// for the driver-side mean correction.
struct SketchPartial {
  DenseMatrix w;
  DenseVector t_sum;
};

/// Routes a partial's bytes per platform, matching core/jobs.cc: MapReduce
/// mapper output is intermediate data through the DFS; Spark accumulator
/// partials return straight to the driver.
void EmitPartial(const dist::Engine& engine, TaskContext* ctx,
                 uint64_t bytes) {
  if (engine.mode() == EngineMode::kMapReduce) {
    ctx->EmitIntermediate(bytes);
  } else {
    ctx->EmitResult(bytes);
  }
}

}  // namespace

DenseMatrix RandSvdPca::DrawOmega(size_t dim, size_t sketch_dim,
                                  uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::GaussianRandom(dim, sketch_dim, &rng);
}

size_t RandSvdPca::EffectiveSketchDim(size_t rows, size_t cols) const {
  size_t k = options_.sketch_dim > 0
                 ? options_.sketch_dim
                 : options_.num_components + options_.oversampling;
  return std::min(k, std::min(rows, cols));
}

StatusOr<core::SolveResult> RandSvdPca::Solve(
    const DistMatrix& y, const core::FitOptions& fit) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (d == 0) return Status::InvalidArgument("num_components must be positive");
  if (dim < d) {
    return Status::InvalidArgument(
        "num_components exceeds the input dimensionality");
  }
  if (n < 2) return Status::InvalidArgument("need at least 2 rows");
  const size_t k = EffectiveSketchDim(n, dim);
  if (k < d) {
    return Status::InvalidArgument("sketch_dim smaller than num_components");
  }

  obs::Registry* registry =
      fit.registry != nullptr ? fit.registry : engine_->registry();
  obs::Span fit_span(registry, "randsvd.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(n));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(dim));
  fit_span.SetAttribute("components", static_cast<uint64_t>(d));
  fit_span.SetAttribute("sketch_dim", static_cast<uint64_t>(k));
  if (restored_rounds_ > 0) {
    fit_span.SetAttribute("resumed_after_rounds", restored_rounds_);
  }

  // Driver working set: Z, W, T and the merged partials — all D x k or
  // smaller, linear in D like sPCA's (never the N x k projection).
  constexpr double kDriverObjectOverhead = 10.0;
  const uint64_t driver_bytes =
      static_cast<uint64_t>(engine_->spec().driver_baseline_bytes) +
      static_cast<uint64_t>(kDriverObjectOverhead * 4.0 *
                            static_cast<double>(dim) * k * sizeof(double));
  SPCA_RETURN_IF_ERROR(
      engine_->AllocateDriverMemory("rand_svd driver state", driver_bytes));
  struct DriverMemoryGuard {
    dist::Engine* engine;
    uint64_t bytes;
    ~DriverMemoryGuard() { engine->ReleaseDriverMemory(bytes); }
  } driver_memory_guard{engine_, driver_bytes};

  const CommStats stats_before = engine_->stats();
  const double sim_before = engine_->SimulatedSeconds();
  Stopwatch wall;

  core::SolveResult result;
  result.first_job_index = engine_->traces().size();
  result.model.mean = core::MeanJob(engine_, y);
  const DenseVector& ym = result.model.mean;
  const double ss1 = core::FrobeniusNormJob(engine_, y, ym, true);
  if (!(ss1 > 0.0)) {
    return Status::FailedPrecondition(
        "input matrix is constant (zero variance)");
  }

  const bool needs_errors = options_.compute_accuracy_trace ||
                            options_.target_accuracy_fraction <= 1.0;
  DistMatrix sample;
  if (needs_errors) {
    const auto indices = core::SampleRowIndices(n, options_.error_sample_rows,
                                                core::kErrorSampleSeed);
    sample = y.SampleRows(indices, 1);
    result.ideal_error =
        options_.ideal_error_override > 0.0
            ? options_.ideal_error_override
            : core::SubspaceIdealError(engine_->spec(), y, d, sample,
                                       options_.ideal_fit_iterations,
                                       options_.seed, registry);
  }

  // Round-1 basis: orth(Omega) on a cold start, the checkpointed Z on a
  // resume (already orthonormal — each round is pure in (Z, Y), so the
  // remaining rounds replay bit-identically).
  DenseMatrix z;
  if (restored_basis_.has_value()) {
    z = *restored_basis_;
  } else {
    z = linalg::OrthonormalizeColumns(DrawOmega(dim, k, options_.seed));
    engine_->CountDriverFlops(2ull * dim * k * k);
  }

  const int total_rounds = 1 + std::max(0, options_.power_iterations);
  for (int round = 1; round <= total_rounds; ++round) {
    obs::Span round_span(registry, "randsvd.power_round", "iteration");
    round_span.SetAttribute("round", static_cast<uint64_t>(round));
    registry->counter("randsvd.rounds")->Increment();

    // The consolidated sketch job: W = Yc' * (Yc * Z) in one pass. Each
    // task projects its rows (t_i = Y_i*Z - Ym'Z) and folds them straight
    // into a local D x k accumulator, so only (D*k + k) doubles per task
    // ever ship — never the N x k projection Mahout's ssvd materializes.
    engine_->Broadcast(z.ByteSize() + ym.size() * sizeof(double));
    const DenseVector mean_proj = core::MeanProjection(ym, z);  // Ym' * Z
    engine_->CountDriverFlops(2ull * dim * k);

    const char* phase = round == 1 ? "projection" : "power_iteration";
    auto partials = engine_->RunMap<std::unique_ptr<SketchPartial>>(
        dist::JobDesc{"randsvd.sketchJob", phase}, y,
        [&](const RowRange& range, TaskContext* ctx) {
          auto partial = std::make_unique<SketchPartial>();
          partial->w = DenseMatrix(dim, k);
          partial->t_sum = DenseVector(k);
          DenseVector t(k);
          uint64_t flops = 0;
          for (size_t i = range.begin; i < range.end; ++i) {
            y.RowTimesMatrix(i, z, &t);
            t.Subtract(mean_proj);
            y.AddRowOuterProduct(i, t, &partial->w);
            partial->t_sum.Add(t);
            flops += 4ull * y.RowNnz(i) * k + 2ull * k;
          }
          ctx->CountFlops(flops);
          EmitPartial(*engine_, ctx,
                      (static_cast<uint64_t>(dim) * k + k) * sizeof(double));
          return partial;
        });

    DenseMatrix w(dim, k);
    DenseVector t_sum(k);
    for (const auto& partial : partials) {
      w.Add(partial->w);
      t_sum.Add(partial->t_sum);
    }
    // Mean correction: W -= Ym (x) t_sum (the -Ym' part of the left Yc').
    for (size_t r = 0; r < dim; ++r) {
      const double m = ym[r];
      if (m == 0.0) continue;
      for (size_t j = 0; j < k; ++j) w(r, j) -= m * t_sum[j];
    }
    engine_->CountDriverFlops(partials.size() * (dim * k + k) +
                              2ull * dim * k);

    // Rayleigh-Ritz on the k-dimensional subspace: the top-d eigenpairs of
    // T = Z'W = Z'Yc'YcZ give the components and the captured variance.
    auto ritz = core::RayleighRitz(z, w, d);
    if (!ritz.ok()) return ritz.status();
    engine_->CountDriverFlops(2ull * dim * k * k + 9ull * k * k * k);

    double captured = 0.0;
    for (size_t j = 0; j < d; ++j) {
      captured += std::max(0.0, ritz.value().values[j]);
    }
    result.model.components = linalg::Multiply(z, ritz.value().top);
    result.model.noise_variance =
        dim > d ? std::max((ss1 - captured) / (static_cast<double>(n) *
                                               static_cast<double>(dim - d)),
                           1e-12)
                : 1e-12;
    engine_->CountDriverFlops(2ull * dim * k * d);
    result.iterations_run = round;

    // Next round's basis (also the checkpoint payload): orth(W).
    DenseMatrix z_next = linalg::OrthonormalizeColumns(w);
    engine_->CountDriverFlops(2ull * dim * k * k);

    if (fit.on_checkpoint) {
      core::SolverCheckpoint checkpoint;
      checkpoint.solver = "rand_svd";
      checkpoint.step = static_cast<uint64_t>(round);
      checkpoint.rows_seen = n;
      checkpoint.SetScalar("sketch_dim", static_cast<double>(k));
      checkpoint.SetMatrix("Z", z_next);
      SPCA_RETURN_IF_ERROR(fit.on_checkpoint(result.model, checkpoint));
    }

    if (needs_errors) {
      core::IterationTrace trace;
      trace.iteration = round;
      trace.error = core::SampledReconstructionError(
          sample, result.model.components, ym);
      trace.accuracy_percent =
          core::AccuracyPercent(trace.error, result.ideal_error);
      trace.simulated_seconds = engine_->SimulatedSeconds() - sim_before;
      trace.wall_seconds = wall.ElapsedSeconds();
      trace.ss = result.model.noise_variance;
      trace.jobs_completed = engine_->traces().size();
      result.trace.push_back(trace);
      round_span.SetAttribute("error", trace.error);
      round_span.SetAttribute("accuracy_percent", trace.accuracy_percent);
      registry->SetSpanAttribute(round_span.id(), "sim_seconds",
                                 trace.simulated_seconds);
      registry->SetSpanAttribute(round_span.id(), "wall_seconds",
                                 trace.wall_seconds);
      if (options_.target_accuracy_fraction <= 1.0 &&
          trace.accuracy_percent >=
              options_.target_accuracy_fraction * 100.0) {
        result.reached_target = true;
        break;
      }
    }

    z = std::move(z_next);
  }

  CommStats stats_after = engine_->stats();
  stats_after.wall_seconds = wall.ElapsedSeconds() + stats_before.wall_seconds;
  result.stats = dist::StatsDiff(stats_after, stats_before);
  fit_span.SetAttribute("iterations",
                        static_cast<uint64_t>(result.iterations_run));
  return result;
}

Status RandSvdPca::Init(const core::FitOptions& options) {
  restored_basis_.reset();
  restored_rounds_ = 0;
  return BatchSolver::Init(options);
}

Status RandSvdPca::Restore(const core::PcaModel& model,
                           const core::SolverCheckpoint& checkpoint) {
  if (checkpoint.solver != name()) {
    return Status::InvalidArgument("checkpoint was written by solver '" +
                                   checkpoint.solver + "', not 'rand_svd'");
  }
  const DenseMatrix* z = checkpoint.FindMatrix("Z");
  if (z == nullptr) {
    return Status::InvalidArgument("rand_svd checkpoint is missing Z");
  }
  if (model.components.rows() != 0 && z->rows() != model.components.rows()) {
    return Status::InvalidArgument(
        "checkpoint basis does not match the model dimensionality");
  }
  if (z->cols() < options_.num_components) {
    return Status::InvalidArgument(
        "checkpoint basis is narrower than num_components");
  }
  restored_basis_ = *z;
  restored_rounds_ = checkpoint.step;
  return Status::Ok();
}

}  // namespace spca::sketch
