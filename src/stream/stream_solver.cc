#include "stream/stream_solver.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/jobs.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"

namespace spca::stream {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

// Same platform routing as the batch jobs (core/jobs.cc): MapReduce mapper
// output is intermediate data; Spark accumulator partials go to the driver.
void EmitPartial(const Engine& engine, TaskContext* ctx, uint64_t bytes) {
  if (engine.mode() == EngineMode::kMapReduce) {
    ctx->EmitIntermediate(bytes);
  } else {
    ctx->EmitResult(bytes);
  }
}

/// Distributed per-batch column-sum job. Unlike core::MeanJob it returns
/// raw sums, so the driver can fold them into the running stream mean
/// exactly (mean = sum of all batch sums / rows seen).
DenseVector StreamSumJob(Engine* engine, const DistMatrix& batch) {
  const size_t dim = batch.cols();
  auto partials = engine->RunMap<DenseVector>(
      dist::JobDesc{"stream.sumJob", "stream"}, batch,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector sums(dim);
        uint64_t entries = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          batch.ForEachEntry(i, [&](size_t k, double v) { sums[k] += v; });
          entries += batch.RowNnz(i);
        }
        ctx->CountFlops(entries);
        EmitPartial(*engine, ctx, dim * sizeof(double));
        return sums;
      });
  DenseVector total(dim);
  for (const auto& partial : partials) total.Add(partial);
  engine->CountDriverFlops(partials.size() * dim);
  return total;
}

double BlendRho(size_t steps_done, double decay) {
  if (steps_done == 0) return 1.0;
  if (decay > 0.0) return decay;
  return 1.0 / static_cast<double>(steps_done + 1);
}

// Checkpoint plumbing: vectors travel as n x 1 matrices in the
// solver-agnostic SolverCheckpoint.
DenseMatrix VectorAsMatrix(const DenseVector& v) {
  DenseMatrix m(v.size(), 1);
  for (size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

DenseVector MatrixAsVector(const DenseMatrix& m) {
  DenseVector v(m.rows() * m.cols());
  for (size_t i = 0; i < v.size(); ++i) v[i] = m.data()[i];
  return v;
}

Status MissingCheckpointField(const char* solver, const char* key) {
  return Status::InvalidArgument(std::string(solver) +
                                 " checkpoint is missing field '" + key + "'");
}

}  // namespace

Status MiniBatchEmSolver::Init(const core::FitOptions& options) {
  registry_ = options.registry != nullptr ? options.registry
                                          : engine_->registry();
  on_checkpoint_ = options.on_checkpoint;
  dim_ = 0;
  steps_ = 0;
  rows_seen_ = 0;
  mean_sum_ = DenseVector();
  mean_ = DenseVector();
  s_xtx_ = DenseMatrix();
  s_ytx_ = DenseMatrix();
  s_ss1_ = 0.0;
  s_ss3_ = 0.0;
  trace_.clear();
  if (options.components.has_value()) {
    c_ = *options.components;
    if (c_.cols() != options_.num_components) {
      return Status::InvalidArgument("warm-start components have the wrong "
                                     "number of columns");
    }
    ss_ = options.noise_variance.value_or(1.0);
  } else {
    c_ = DenseMatrix();
    ss_ = options.noise_variance.value_or(0.0);  // 0 = draw at first Step
  }
  if (options.noise_variance.has_value() && !(*options.noise_variance > 0.0)) {
    return Status::InvalidArgument("initial ss must be positive");
  }
  stats_before_ = engine_->stats();
  sim_before_ = engine_->SimulatedSeconds();
  first_job_index_ = engine_->traces().size();
  wall_.Reset();
  return Status::Ok();
}

Status MiniBatchEmSolver::Step(const DistMatrix& batch) {
  const size_t d = options_.num_components;
  if (batch.rows() == 0) return Status::InvalidArgument("empty batch");
  if (dim_ == 0) {
    dim_ = batch.cols();
    if (dim_ < d) {
      return Status::InvalidArgument(
          "num_components exceeds the input dimensionality");
    }
    if (c_.rows() == 0) {
      // Cold start: the same draw order as the batch solver's cold start.
      Rng rng(options_.seed);
      c_ = DenseMatrix::GaussianRandom(dim_, d, &rng);
      if (!(ss_ > 0.0)) ss_ = std::fabs(rng.NextGaussian(1.0, 1.0)) + 1e-3;
    } else if (c_.rows() != dim_) {
      return Status::InvalidArgument("warm-start components have the wrong "
                                     "number of rows");
    }
    mean_sum_ = DenseVector(dim_);
    mean_ = DenseVector(dim_);
    s_xtx_ = DenseMatrix(d, d);
    s_ytx_ = DenseMatrix(dim_, d);
  }
  if (batch.cols() != dim_) {
    return Status::InvalidArgument("batch dimensionality changed mid-stream");
  }
  const double b = static_cast<double>(batch.rows());

  obs::Span step_span(registry_, "stream.step", "stream");
  step_span.SetAttribute("solver", std::string(name()));
  step_span.SetAttribute("step", static_cast<uint64_t>(steps_ + 1));
  step_span.SetAttribute("batch_rows", static_cast<uint64_t>(batch.rows()));
  Stopwatch step_wall;

  // Running exact mean from per-batch column sums.
  mean_sum_.Add(StreamSumJob(engine_, batch));
  rows_seen_ += batch.rows();
  mean_ = mean_sum_;
  mean_.Scale(1.0 / static_cast<double>(rows_seen_));
  engine_->CountDriverFlops(2ull * dim_);

  const double ss1_b =
      core::FrobeniusNormJob(engine_, batch, mean_, /*efficient=*/true);

  // E-step driver algebra — identical to the batch EM iteration.
  DenseMatrix m = linalg::Gram(c_);
  m.AddScaledIdentity(ss_);
  auto m_inverse = linalg::Inverse(m);
  if (!m_inverse.ok()) return m_inverse.status();
  const DenseMatrix cm = linalg::Multiply(c_, m_inverse.value());
  DenseVector xm(d);
  for (size_t k = 0; k < dim_; ++k) {
    const double mk = mean_[k];
    if (mk == 0.0) continue;
    for (size_t j = 0; j < d; ++j) xm[j] += mk * cm(k, j);
  }
  engine_->CountDriverFlops(2ull * dim_ * d * d + 2ull * d * d * d +
                            2ull * dim_ * d * d + 2ull * dim_ * d);

  core::JobToggles toggles;  // all optimizations on for stream batches
  core::YtXResult ytx =
      core::YtXJob(engine_, batch, mean_, xm, cm, nullptr, toggles);

  // Blend per-row-averaged sufficient statistics (stochastic EM).
  const double rho = BlendRho(steps_, options_.decay);
  s_xtx_.Scale(1.0 - rho);
  s_xtx_.AddScaled(rho / b, ytx.xtx);
  s_ytx_.Scale(1.0 - rho);
  s_ytx_.AddScaled(rho / b, ytx.ytx);
  s_ss1_ = (1.0 - rho) * s_ss1_ + rho * ss1_b / b;
  engine_->CountDriverFlops(2ull * (dim_ * d + d * d));

  // M-step on the blended statistics, materialized at the current batch's
  // scale so rho = 1 reproduces one batch EM iteration up to the roundoff
  // of the divide-by-b and multiply-back (see the class comment).
  DenseMatrix xtx_hat(d, d);
  xtx_hat.AddScaled(b, s_xtx_);
  xtx_hat.AddScaled(ss_, m_inverse.value());
  DenseMatrix ytx_hat(dim_, d);
  ytx_hat.AddScaled(b, s_ytx_);
  auto c_new = linalg::SolveRight(ytx_hat, xtx_hat);
  if (!c_new.ok()) return c_new.status();
  engine_->CountDriverFlops(2ull * d * d * d + 2ull * dim_ * d * d);

  const DenseMatrix ctc = linalg::Gram(c_new.value());
  double ss2 = 0.0;
  for (size_t a = 0; a < d; ++a) {
    for (size_t q = 0; q < d; ++q) ss2 += xtx_hat(a, q) * ctc(q, a);
  }
  engine_->CountDriverFlops(2ull * dim_ * d * d + 2ull * d * d);

  const double ss3_b = core::Ss3Job(engine_, batch, mean_, xm, cm,
                                    c_new.value(), nullptr, toggles);
  s_ss3_ = (1.0 - rho) * s_ss3_ + rho * ss3_b / b;

  c_ = std::move(c_new.value());
  ss_ = std::max((b * s_ss1_ + ss2 - 2.0 * b * s_ss3_) / (b * dim_), 1e-12);
  steps_ += 1;

  core::IterationTrace point;
  point.iteration = static_cast<int>(steps_);
  point.ss = ss_;
  point.simulated_seconds = engine_->SimulatedSeconds() - sim_before_;
  point.wall_seconds = wall_.ElapsedSeconds();
  point.jobs_completed = engine_->traces().size();
  trace_.push_back(point);

  registry_->counter("stream.steps")->Increment();
  registry_->counter("stream.rows_ingested")
      ->Add(static_cast<double>(batch.rows()));
  registry_->histogram("stream.step_sec")->Observe(step_wall.ElapsedSeconds());
  step_span.SetAttribute("ss", ss_);
  registry_->SetSpanAttribute(step_span.id(), "sim_seconds",
                              point.simulated_seconds);

  if (on_checkpoint_) {
    auto model = Snapshot();
    if (!model.ok()) return model.status();
    auto checkpoint = Checkpoint();
    if (!checkpoint.ok()) return checkpoint.status();
    SPCA_RETURN_IF_ERROR(on_checkpoint_(model.value(), checkpoint.value()));
  }
  return Status::Ok();
}

StatusOr<core::SolverCheckpoint> MiniBatchEmSolver::Checkpoint() const {
  if (steps_ == 0) {
    return Status::FailedPrecondition("no rows ingested; nothing to "
                                      "checkpoint");
  }
  core::SolverCheckpoint checkpoint;
  checkpoint.solver = std::string(name());
  checkpoint.step = steps_;
  checkpoint.rows_seen = rows_seen_;
  checkpoint.SetScalar("dim", static_cast<double>(dim_));
  checkpoint.SetScalar("ss", ss_);
  checkpoint.SetScalar("s_ss1", s_ss1_);
  checkpoint.SetScalar("s_ss3", s_ss3_);
  checkpoint.SetMatrix("mean_sum", VectorAsMatrix(mean_sum_));
  checkpoint.SetMatrix("s_xtx", s_xtx_);
  checkpoint.SetMatrix("s_ytx", s_ytx_);
  return checkpoint;
}

Status MiniBatchEmSolver::Restore(const core::PcaModel& model,
                                  const core::SolverCheckpoint& checkpoint) {
  if (checkpoint.solver != name()) {
    return Status::InvalidArgument("checkpoint was written by solver '" +
                                   checkpoint.solver + "', not '" +
                                   std::string(name()) + "'");
  }
  const double* dim = checkpoint.FindScalar("dim");
  const double* ss = checkpoint.FindScalar("ss");
  const double* s_ss1 = checkpoint.FindScalar("s_ss1");
  const double* s_ss3 = checkpoint.FindScalar("s_ss3");
  const DenseMatrix* mean_sum = checkpoint.FindMatrix("mean_sum");
  const DenseMatrix* s_xtx = checkpoint.FindMatrix("s_xtx");
  const DenseMatrix* s_ytx = checkpoint.FindMatrix("s_ytx");
  if (dim == nullptr) return MissingCheckpointField("minibatch_em", "dim");
  if (ss == nullptr) return MissingCheckpointField("minibatch_em", "ss");
  if (s_ss1 == nullptr) return MissingCheckpointField("minibatch_em", "s_ss1");
  if (s_ss3 == nullptr) return MissingCheckpointField("minibatch_em", "s_ss3");
  if (mean_sum == nullptr) {
    return MissingCheckpointField("minibatch_em", "mean_sum");
  }
  if (s_xtx == nullptr) return MissingCheckpointField("minibatch_em", "s_xtx");
  if (s_ytx == nullptr) return MissingCheckpointField("minibatch_em", "s_ytx");
  const size_t d = options_.num_components;
  const size_t restored_dim = static_cast<size_t>(*dim);
  if (model.components.rows() != restored_dim ||
      model.components.cols() != d || mean_sum->rows() != restored_dim ||
      s_xtx->rows() != d || s_xtx->cols() != d ||
      s_ytx->rows() != restored_dim || s_ytx->cols() != d) {
    return Status::InvalidArgument(
        "minibatch_em checkpoint shapes do not match the solver options");
  }
  if (!(*ss > 0.0)) {
    return Status::InvalidArgument("checkpoint noise variance must be > 0");
  }
  dim_ = restored_dim;
  steps_ = checkpoint.step;
  rows_seen_ = checkpoint.rows_seen;
  mean_sum_ = MatrixAsVector(*mean_sum);
  mean_ = mean_sum_;
  if (rows_seen_ > 0) mean_.Scale(1.0 / static_cast<double>(rows_seen_));
  c_ = model.components;
  ss_ = *ss;
  s_xtx_ = *s_xtx;
  s_ytx_ = *s_ytx;
  s_ss1_ = *s_ss1;
  s_ss3_ = *s_ss3;
  return Status::Ok();
}

StatusOr<core::PcaModel> MiniBatchEmSolver::Snapshot() const {
  if (steps_ == 0) {
    return Status::FailedPrecondition("no rows ingested; call Step first");
  }
  core::PcaModel model;
  model.components = c_;
  model.mean = mean_;
  model.noise_variance = ss_;
  return model;
}

StatusOr<core::SolveResult> MiniBatchEmSolver::Result() {
  auto model = Snapshot();
  if (!model.ok()) return model.status();
  core::SolveResult result;
  result.model = std::move(model).value();
  result.trace = trace_;
  result.iterations_run = static_cast<int>(steps_);
  result.first_job_index = first_job_index_;
  dist::CommStats stats_after = engine_->stats();
  stats_after.wall_seconds =
      wall_.ElapsedSeconds() + stats_before_.wall_seconds;
  result.stats = dist::StatsDiff(stats_after, stats_before_);
  return result;
}

namespace {

/// Per-partition partial of the consolidated Oja job.
struct OjaPartial {
  DenseMatrix a;     // D x d: sum_i Y_i' (x) p_i
  DenseVector s;     // d: sum_i p_i
  double proj_sq = 0.0;
  double norm_sq = 0.0;
  size_t touched_rows = 0;
};

}  // namespace

Status OjaSolver::Init(const core::FitOptions& options) {
  registry_ = options.registry != nullptr ? options.registry
                                          : engine_->registry();
  on_checkpoint_ = options.on_checkpoint;
  dim_ = 0;
  steps_ = 0;
  rows_seen_ = 0;
  steps_since_reorth_ = 0;
  mean_sum_ = DenseVector();
  mean_ = DenseVector();
  s_norm_ = 0.0;
  s_proj_ = 0.0;
  trace_.clear();
  if (options.components.has_value()) {
    c_ = linalg::OrthonormalizeColumns(*options.components);
    if (c_.cols() != options_.num_components) {
      return Status::InvalidArgument("warm-start components have the wrong "
                                     "number of columns");
    }
  } else {
    c_ = DenseMatrix();
  }
  stats_before_ = engine_->stats();
  sim_before_ = engine_->SimulatedSeconds();
  first_job_index_ = engine_->traces().size();
  wall_.Reset();
  return Status::Ok();
}

Status OjaSolver::Step(const DistMatrix& batch) {
  const size_t d = options_.num_components;
  if (batch.rows() == 0) return Status::InvalidArgument("empty batch");
  if (dim_ == 0) {
    dim_ = batch.cols();
    if (dim_ < d) {
      return Status::InvalidArgument(
          "num_components exceeds the input dimensionality");
    }
    if (c_.rows() == 0) {
      Rng rng(options_.seed);
      c_ = linalg::OrthonormalizeColumns(
          DenseMatrix::GaussianRandom(dim_, d, &rng));
    } else if (c_.rows() != dim_) {
      return Status::InvalidArgument("warm-start components have the wrong "
                                     "number of rows");
    }
    mean_sum_ = DenseVector(dim_);
    mean_ = DenseVector(dim_);
  }
  if (batch.cols() != dim_) {
    return Status::InvalidArgument("batch dimensionality changed mid-stream");
  }
  const double b = static_cast<double>(batch.rows());

  obs::Span step_span(registry_, "stream.step", "stream");
  step_span.SetAttribute("solver", std::string(name()));
  step_span.SetAttribute("step", static_cast<uint64_t>(steps_ + 1));
  step_span.SetAttribute("batch_rows", static_cast<uint64_t>(batch.rows()));
  Stopwatch step_wall;

  mean_sum_.Add(StreamSumJob(engine_, batch));
  rows_seen_ += batch.rows();
  mean_ = mean_sum_;
  mean_.Scale(1.0 / static_cast<double>(rows_seen_));
  engine_->CountDriverFlops(2ull * dim_);

  // Driver precomputes C' * mean (mean propagation: p_i = Y_i C - C'm) and
  // ||m||^2 (for the per-row centered energy).
  DenseVector cm0(d);
  for (size_t k = 0; k < dim_; ++k) {
    const double mk = mean_[k];
    if (mk == 0.0) continue;
    linalg::kernels::AxpyRow(mk, c_.RowPtr(k), d, cm0.data());
  }
  const double msq = mean_.SquaredNorm();
  engine_->CountDriverFlops(2ull * dim_ * d + 2ull * dim_);
  engine_->Broadcast(c_.ByteSize() + (mean_.size() + cm0.size()) *
                                         sizeof(double));

  // Consolidated Oja job: one pass accumulating the gradient partial
  // A_p = sum Y_i' (x) p_i, the projection sum s_p = sum p_i, and the
  // per-row energies for the ss estimate.
  auto partials = engine_->RunMap<std::unique_ptr<OjaPartial>>(
      dist::JobDesc{"stream.ojaJob", "stream"}, batch,
      [&](const RowRange& range, TaskContext* ctx) {
        auto partial = std::make_unique<OjaPartial>();
        partial->a = DenseMatrix(dim_, d);
        partial->s = DenseVector(d);
        std::vector<uint8_t> touched(dim_, 0);
        DenseVector p(d);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          // p_i = Yc_i * C = Y_i * C - C'm (mean propagation keeps the
          // sparse row sparse).
          batch.RowTimesMatrix(i, c_, &p);
          p.Subtract(cm0);
          flops += 2ull * batch.RowNnz(i) * d + d;
          // Gradient partial: Yc_i' (x) p_i, split as the sparse outer
          // product here plus the -m (x) sum(p) term on the driver.
          batch.ForEachEntry(i, [&](size_t k, double v) {
            touched[k] = 1;
            linalg::kernels::AxpyRow(v, p.data(), d, partial->a.RowPtr(k));
          });
          partial->s.Add(p);
          flops += 2ull * batch.RowNnz(i) * d + d;
          // Residual bookkeeping: ||Yc_i||^2 and ||p_i||^2.
          partial->norm_sq += batch.RowSquaredNorm(i) -
                              2.0 * batch.RowDot(i, mean_) + msq;
          partial->proj_sq += p.SquaredNorm();
          flops += 4ull * batch.RowNnz(i) + 2ull * d + 3;
        }
        for (uint8_t t : touched) partial->touched_rows += t;
        ctx->CountFlops(flops);
        uint64_t bytes;
        if (engine_->mode() == EngineMode::kSpark && batch.is_sparse()) {
          bytes = partial->touched_rows * d *
                  (sizeof(double) + sizeof(uint32_t));
        } else {
          bytes = dim_ * d * sizeof(double);
        }
        bytes += d * sizeof(double) + 2 * sizeof(double);
        EmitPartial(*engine_, ctx, bytes);
        return partial;
      });

  DenseMatrix grad(dim_, d);
  DenseVector s_total(d);
  double norm_sq = 0.0;
  double proj_sq = 0.0;
  for (const auto& partial : partials) {
    grad.Add(partial->a);
    s_total.Add(partial->s);
    norm_sq += partial->norm_sq;
    proj_sq += partial->proj_sq;
  }
  // The -m (x) sum(p) half of the centered outer product.
  for (size_t k = 0; k < dim_; ++k) {
    const double mk = mean_[k];
    if (mk == 0.0) continue;
    linalg::kernels::AxpyRow(-mk, s_total.data(), d, grad.RowPtr(k));
  }
  // Gradient ascent on the batch-averaged Rayleigh objective.
  const double eta =
      options_.eta0 / (1.0 + static_cast<double>(steps_) / options_.tau);
  c_.AddScaled(eta / b, grad);
  engine_->CountDriverFlops(partials.size() * (dim_ * d + d) +
                            2ull * dim_ * d + 2ull * dim_ * d);

  // Lazy reorthonormalization: let the basis shear for reorth_every steps,
  // then restore orthonormality with one QR pass.
  steps_since_reorth_ += 1;
  if (options_.reorth_every > 0 &&
      steps_since_reorth_ >= options_.reorth_every) {
    c_ = linalg::OrthonormalizeColumns(c_);
    steps_since_reorth_ = 0;
    engine_->CountDriverFlops(2ull * dim_ * d * d);
    registry_->counter("stream.reorthonormalizations")->Increment();
  }

  const double rho = BlendRho(steps_, options_.decay);
  s_norm_ = (1.0 - rho) * s_norm_ + rho * norm_sq / b;
  s_proj_ = (1.0 - rho) * s_proj_ + rho * proj_sq / b;
  steps_ += 1;

  core::IterationTrace point;
  point.iteration = static_cast<int>(steps_);
  point.ss = std::max((s_norm_ - s_proj_) /
                          static_cast<double>(std::max<size_t>(dim_ - d, 1)),
                      1e-12);
  point.simulated_seconds = engine_->SimulatedSeconds() - sim_before_;
  point.wall_seconds = wall_.ElapsedSeconds();
  point.jobs_completed = engine_->traces().size();
  trace_.push_back(point);

  registry_->counter("stream.steps")->Increment();
  registry_->counter("stream.rows_ingested")
      ->Add(static_cast<double>(batch.rows()));
  registry_->histogram("stream.step_sec")->Observe(step_wall.ElapsedSeconds());
  step_span.SetAttribute("ss", point.ss);
  registry_->SetSpanAttribute(step_span.id(), "sim_seconds",
                              point.simulated_seconds);

  if (on_checkpoint_) {
    auto model = Snapshot();
    if (!model.ok()) return model.status();
    auto checkpoint = Checkpoint();
    if (!checkpoint.ok()) return checkpoint.status();
    SPCA_RETURN_IF_ERROR(on_checkpoint_(model.value(), checkpoint.value()));
  }
  return Status::Ok();
}

StatusOr<core::SolverCheckpoint> OjaSolver::Checkpoint() const {
  if (steps_ == 0) {
    return Status::FailedPrecondition("no rows ingested; nothing to "
                                      "checkpoint");
  }
  core::SolverCheckpoint checkpoint;
  checkpoint.solver = std::string(name());
  checkpoint.step = steps_;
  checkpoint.rows_seen = rows_seen_;
  checkpoint.SetScalar("dim", static_cast<double>(dim_));
  checkpoint.SetScalar("s_norm", s_norm_);
  checkpoint.SetScalar("s_proj", s_proj_);
  checkpoint.SetScalar("steps_since_reorth",
                       static_cast<double>(steps_since_reorth_));
  checkpoint.SetMatrix("mean_sum", VectorAsMatrix(mean_sum_));
  // The raw basis, not the published orthonormalized one: restoring it
  // keeps the lazy-reorthonormalization schedule bit-identical.
  checkpoint.SetMatrix("c_raw", c_);
  return checkpoint;
}

Status OjaSolver::Restore(const core::PcaModel& model,
                          const core::SolverCheckpoint& checkpoint) {
  if (checkpoint.solver != name()) {
    return Status::InvalidArgument("checkpoint was written by solver '" +
                                   checkpoint.solver + "', not '" +
                                   std::string(name()) + "'");
  }
  const double* dim = checkpoint.FindScalar("dim");
  const double* s_norm = checkpoint.FindScalar("s_norm");
  const double* s_proj = checkpoint.FindScalar("s_proj");
  const double* since_reorth = checkpoint.FindScalar("steps_since_reorth");
  const DenseMatrix* mean_sum = checkpoint.FindMatrix("mean_sum");
  const DenseMatrix* c_raw = checkpoint.FindMatrix("c_raw");
  if (dim == nullptr) return MissingCheckpointField("oja", "dim");
  if (s_norm == nullptr) return MissingCheckpointField("oja", "s_norm");
  if (s_proj == nullptr) return MissingCheckpointField("oja", "s_proj");
  if (since_reorth == nullptr) {
    return MissingCheckpointField("oja", "steps_since_reorth");
  }
  if (mean_sum == nullptr) return MissingCheckpointField("oja", "mean_sum");
  if (c_raw == nullptr) return MissingCheckpointField("oja", "c_raw");
  const size_t restored_dim = static_cast<size_t>(*dim);
  if (c_raw->rows() != restored_dim ||
      c_raw->cols() != options_.num_components ||
      mean_sum->rows() != restored_dim || model.components.rows() !=
                                              restored_dim) {
    return Status::InvalidArgument(
        "oja checkpoint shapes do not match the solver options");
  }
  dim_ = restored_dim;
  steps_ = checkpoint.step;
  rows_seen_ = checkpoint.rows_seen;
  steps_since_reorth_ = static_cast<size_t>(*since_reorth);
  mean_sum_ = MatrixAsVector(*mean_sum);
  mean_ = mean_sum_;
  if (rows_seen_ > 0) mean_.Scale(1.0 / static_cast<double>(rows_seen_));
  c_ = *c_raw;
  s_norm_ = *s_norm;
  s_proj_ = *s_proj;
  return Status::Ok();
}

StatusOr<core::PcaModel> OjaSolver::Snapshot() const {
  if (steps_ == 0) {
    return Status::FailedPrecondition("no rows ingested; call Step first");
  }
  core::PcaModel model;
  // Published bases are always orthonormal even mid-way through a lazy
  // reorthonormalization window.
  model.components = linalg::OrthonormalizeColumns(c_);
  model.mean = mean_;
  model.noise_variance =
      std::max((s_norm_ - s_proj_) /
                   static_cast<double>(
                       std::max<size_t>(dim_ - options_.num_components, 1)),
               1e-12);
  return model;
}

StatusOr<core::SolveResult> OjaSolver::Result() {
  auto model = Snapshot();
  if (!model.ok()) return model.status();
  core::SolveResult result;
  result.model = std::move(model).value();
  result.trace = trace_;
  result.iterations_run = static_cast<int>(steps_);
  result.first_job_index = first_job_index_;
  dist::CommStats stats_after = engine_->stats();
  stats_after.wall_seconds =
      wall_.ElapsedSeconds() + stats_before_.wall_seconds;
  result.stats = dist::StatsDiff(stats_after, stats_before_);
  return result;
}

}  // namespace spca::stream
