#include "core/spca.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "linalg/ops.h"
#include "linalg/solve.h"

namespace spca::core {

using dist::CommStats;
using dist::DistMatrix;
using linalg::DenseMatrix;
using linalg::DenseVector;

double Spca::Shrink(double value, double threshold) {
  if (value > threshold) return value - threshold;
  if (value < -threshold) return value + threshold;
  return 0.0;
}

namespace {

/// Soft-thresholds C in place, protecting each column's largest-magnitude
/// entry (so no component ever collapses to the zero vector, which would
/// make C'C + ss*I ill-conditioned). Returns the number of non-zero
/// loadings remaining.
uint64_t ThresholdLoadings(DenseMatrix* c, double threshold) {
  const size_t dim = c->rows();
  const size_t d = c->cols();
  uint64_t nnz = 0;
  for (size_t j = 0; j < d; ++j) {
    size_t keep = 0;
    double best = -1.0;
    for (size_t i = 0; i < dim; ++i) {
      const double magnitude = std::fabs((*c)(i, j));
      if (magnitude > best) {
        best = magnitude;
        keep = i;
      }
    }
    for (size_t i = 0; i < dim; ++i) {
      if (i == keep) {
        if ((*c)(i, j) != 0.0) ++nnz;
        continue;
      }
      const double shrunk = Spca::Shrink((*c)(i, j), threshold);
      (*c)(i, j) = shrunk;
      if (shrunk != 0.0) ++nnz;
    }
  }
  return nnz;
}

/// C'C with the triangle's output rows split across the engine's pool.
DenseMatrix DriverGram(dist::Engine* engine, const DenseMatrix& c,
                       size_t parts) {
  DenseMatrix ctc(c.cols(), c.cols());
  const std::vector<size_t> blocks = linalg::GramRowBlocks(c.cols(), parts);
  engine->DriverParallelFor(parts, [&](size_t p) {
    linalg::GramRows(c, blocks[p], blocks[p + 1], &ctc);
  });
  linalg::MirrorUpper(&ctc);
  return ctc;
}

}  // namespace

StatusOr<SolveResult> Spca::Solve(const DistMatrix& y,
                                  const FitOptions& init) const {
  if (options_.num_components == 0) {
    return Status::InvalidArgument("num_components must be positive");
  }
  if (y.cols() < options_.num_components) {
    return Status::InvalidArgument(
        "num_components exceeds the input dimensionality");
  }
  if (y.rows() < 2) {
    return Status::InvalidArgument("need at least 2 rows");
  }
  if (!(options_.l1_threshold >= 0.0)) {  // also rejects NaN
    return Status::InvalidArgument("l1_threshold must be non-negative");
  }

  obs::Registry* registry =
      init.registry != nullptr ? init.registry : engine_->registry();
  obs::Span fit_span(registry, "spca.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(y.rows()));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(y.cols()));
  fit_span.SetAttribute("components",
                        static_cast<uint64_t>(options_.num_components));
  if (options_.l1_threshold > 0.0) {
    fit_span.SetAttribute("l1_threshold", options_.l1_threshold);
  }

  const bool warm_start = init.components.has_value();
  DenseMatrix c;
  double ss;
  if (warm_start) {
    c = *init.components;
    ss = init.noise_variance.value_or(1.0);
  } else {
    // Cold start: seeded random C, then ss = |normrnd(1,1)| (a variance).
    // The draw order matches the original single-method Fit exactly so
    // seeded runs stay bit-for-bit reproducible.
    Rng rng(options_.seed);
    c = DenseMatrix::GaussianRandom(y.cols(), options_.num_components, &rng);
    ss = init.noise_variance.value_or(std::fabs(rng.NextGaussian(1.0, 1.0)) +
                                      1e-3);
  }

  CommStats guess_stats;
  if (!warm_start && options_.smart_guess &&
      y.rows() > options_.smart_guess_rows * 2) {
    // sPCA-SG (Section 5.2): fit on a small random row sample first; its
    // C and ss seed the full run. Works because C is D x d — independent
    // of the number of rows (unlike Mahout-PCA's N-row random matrix).
    obs::Span guess_span(registry, "spca.smart_guess", "algorithm");
    guess_span.SetAttribute("sample_rows",
                            static_cast<uint64_t>(options_.smart_guess_rows));
    const auto indices = SampleRowIndices(y.rows(), options_.smart_guess_rows,
                                          options_.seed + 101);
    const DistMatrix sample =
        y.SampleRows(indices, std::max<size_t>(1, y.num_partitions() / 4));
    SpcaOptions sample_options = options_;
    sample_options.smart_guess = false;
    sample_options.max_iterations = options_.smart_guess_iterations;
    sample_options.compute_accuracy_trace = false;
    sample_options.target_accuracy_fraction = 2.0;  // run all iterations
    Spca sample_fit(engine_, sample_options);
    auto guess = sample_fit.RunEm(sample, std::move(c), ss, registry);
    if (!guess.ok()) return guess.status();
    c = std::move(guess.value().model.components);
    ss = guess.value().model.noise_variance;
    guess_stats = guess.value().stats;
  }

  auto result = RunEm(y, std::move(c), ss, registry, init.on_checkpoint);
  if (result.ok() && guess_stats.simulated_seconds > 0.0) {
    // The sample pre-fit is part of sPCA-SG's cost: shift the trace so
    // accuracy-vs-time curves (Figure 5) include the initialization delay.
    for (auto& point : result.value().trace) {
      point.simulated_seconds += guess_stats.simulated_seconds;
      point.wall_seconds += guess_stats.wall_seconds;
    }
    result.value().stats.Add(guess_stats);
  }
  if (result.ok()) {
    fit_span.SetAttribute(
        "iterations", static_cast<uint64_t>(result.value().iterations_run));
  }
  return result;
}

Status Spca::Restore(const PcaModel& model,
                     const SolverCheckpoint& checkpoint) {
  if (checkpoint.solver != name()) {
    return Status::InvalidArgument("checkpoint was written by solver '" +
                                   checkpoint.solver + "', not '" +
                                   std::string(name()) + "'");
  }
  if (model.components.rows() == 0 || model.components.cols() == 0) {
    return Status::InvalidArgument("checkpoint model has no components");
  }
  if (!(model.noise_variance > 0.0)) {
    return Status::InvalidArgument("checkpoint noise variance must be > 0");
  }
  fit_options().components = model.components;
  fit_options().noise_variance = model.noise_variance;
  return Status::Ok();
}

StatusOr<SolveResult> Spca::RunEm(
    const DistMatrix& y, DenseMatrix initial_components, double initial_ss,
    obs::Registry* registry,
    const std::function<Status(const PcaModel&, const SolverCheckpoint&)>&
        on_checkpoint) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (initial_components.rows() != dim || initial_components.cols() != d) {
    return Status::InvalidArgument("initial components have the wrong shape");
  }
  if (!(initial_ss > 0.0)) {
    return Status::InvalidArgument("initial ss must be positive");
  }

  // Driver-resident working set: the runtime baseline plus the D x d
  // matrices the driver holds (C, CM, YtX, and the merged partials), with
  // a JVM-style object overhead factor. Unlike MLlib-PCA's D x D
  // covariance, this is linear in D — the reason sPCA's driver memory stays
  // nearly flat in Figure 8.
  constexpr double kDriverObjectOverhead = 10.0;
  const uint64_t driver_bytes =
      static_cast<uint64_t>(engine_->spec().driver_baseline_bytes) +
      static_cast<uint64_t>(kDriverObjectOverhead * 4.0 *
                            static_cast<double>(dim) * d * sizeof(double));
  SPCA_RETURN_IF_ERROR(
      engine_->AllocateDriverMemory("sPCA driver state", driver_bytes));
  struct DriverMemoryGuard {
    dist::Engine* engine;
    uint64_t bytes;
    ~DriverMemoryGuard() { engine->ReleaseDriverMemory(bytes); }
  } driver_memory_guard{engine_, driver_bytes};

  const CommStats stats_before = engine_->stats();
  const double sim_before = engine_->SimulatedSeconds();
  Stopwatch wall;

  JobToggles toggles;
  toggles.mean_propagation = options_.mean_propagation;
  toggles.minimize_intermediate_data = options_.minimize_intermediate_data;
  toggles.consolidate_jobs = options_.consolidate_jobs;
  toggles.ss3_associativity = options_.ss3_associativity;

  SolveResult result;
  result.first_job_index = engine_->traces().size();
  result.model.components = std::move(initial_components);
  result.model.noise_variance = initial_ss;

  // The two lightweight pre-loop jobs (Algorithm 4 lines 3-4).
  result.model.mean = MeanJob(engine_, y);
  const double ss1 =
      FrobeniusNormJob(engine_, y, result.model.mean, options_.efficient_frobenius);
  if (!(ss1 > 0.0)) {
    return Status::FailedPrecondition(
        "input matrix is constant (zero variance)");
  }

  // Evaluation sample for the stop condition / accuracy trace.
  const bool needs_errors = options_.compute_accuracy_trace ||
                            options_.target_accuracy_fraction <= 1.0;
  DistMatrix sample;
  if (needs_errors) {
    const auto indices =
        SampleRowIndices(n, options_.error_sample_rows, kErrorSampleSeed);
    sample = y.SampleRows(indices, 1);
    result.ideal_error =
        options_.ideal_error_override > 0.0
            ? options_.ideal_error_override
            : ConvergedIdealError(engine_->spec(), y, d, sample,
                                  options_.ideal_fit_iterations,
                                  options_.seed);
  }

  DenseMatrix& c = result.model.components;
  double& ss = result.model.noise_variance;
  const DenseVector& ym = result.model.mean;

  // The driver's D x d products run in row blocks on the engine's pool;
  // every output row sees the same operations for any block count.
  const size_t parts = engine_->DriverParts(uint64_t{dim} * d * d);
  // C'C of the current C. Each iteration's ss2 step computes it for the
  // next one, so only the first is computed here (a resumed run starts
  // from its restored C, as a fresh one does).
  DenseMatrix ctc = DriverGram(engine_, c, parts);
  // The YtX partials, allocated by the first YtXJob and reused after.
  YtXWorkspace ytx_workspace;

  for (int iteration = 1; iteration <= options_.max_iterations; ++iteration) {
    obs::Span iter_span(registry, "spca.em_iteration", "iteration");
    iter_span.SetAttribute("iteration", static_cast<uint64_t>(iteration));
    registry->counter("spca.em_iterations")->Increment();

    // Driver-side small algebra (Algorithm 4 lines 6-8).
    DenseMatrix m = std::move(ctc);  // d x d
    m.AddScaledIdentity(ss);
    auto m_inverse = linalg::Inverse(m);
    if (!m_inverse.ok()) return m_inverse.status();
    DenseMatrix cm(dim, d);  // C * M^-1
    engine_->DriverForRowBlocks(dim, parts, [&](size_t begin, size_t end) {
      linalg::MultiplyRows(c, m_inverse.value(), begin, end, &cm);
    });
    DenseVector xm(d);
    for (size_t k = 0; k < dim; ++k) {
      const double mk = ym[k];
      if (mk == 0.0) continue;
      for (size_t j = 0; j < d; ++j) xm[j] += mk * cm(k, j);
    }
    // C'C is charged here although the previous iteration computed it:
    // as in jobs.cc's XtX update, the flop count stays the cost model's
    // (the algorithm's work, not this implementation's shortcuts).
    engine_->CountDriverFlops(2ull * dim * d * d +  // C'C
                              2ull * d * d * d +    // inverse
                              2ull * dim * d * d +  // C * M^-1
                              2ull * dim * d);      // Xm

    // The unoptimized path materializes X once per iteration and feeds it
    // to the consumer jobs (Figure 1); the optimized path regenerates X on
    // demand inside each job (Figure 3).
    DenseMatrix materialized_x;
    const DenseMatrix* x_ptr = nullptr;
    if (!toggles.minimize_intermediate_data) {
      materialized_x = MaterializeXJob(engine_, y, ym, xm, cm, toggles);
      x_ptr = &materialized_x;
    }

    // Distributed YtXJob (computes XtX and YtX; Algorithm 4 line 9).
    YtXResult ytx_result =
        YtXJob(engine_, y, ym, xm, cm, x_ptr, toggles, &ytx_workspace);

    // XtX += ss * M^-1 (line 10), then C = YtX / XtX (line 11).
    ytx_result.xtx.AddScaled(ss, m_inverse.value());
    auto xtx_lu = linalg::LuFactor(ytx_result.xtx.Transpose());
    if (!xtx_lu.ok()) return xtx_lu.status();
    DenseMatrix c_new = std::move(ytx_result.ytx);  // solved in place
    engine_->DriverForRowBlocks(dim, parts, [&](size_t begin, size_t end) {
      linalg::LuSolveRows(xtx_lu.value(), &c_new, begin, end);
    });
    engine_->CountDriverFlops(2ull * d * d * d + 2ull * dim * d * d);

    // spca_sparse: lasso-style soft-threshold on the fresh C *before* the
    // variance update, so (C, ss) stay mutually consistent and the
    // checkpointed model is the complete resume state.
    uint64_t nnz_loadings = 0;
    if (options_.l1_threshold > 0.0) {
      nnz_loadings = ThresholdLoadings(&c_new, options_.l1_threshold);
      engine_->CountDriverFlops(2ull * dim * d);
    }

    // ss2 = trace(XtX * C' * C) (line 12).
    ctc = DriverGram(engine_, c_new, parts);
    double ss2 = 0.0;
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = 0; b < d; ++b) ss2 += ytx_result.xtx(a, b) * ctc(b, a);
    }
    engine_->CountDriverFlops(2ull * dim * d * d + 2ull * d * d);

    // Distributed ss3 job (line 13), then the variance update (line 14).
    const double ss3 = Ss3Job(engine_, y, ym, xm, cm, c_new, x_ptr, toggles);
    const double ss_new =
        (ss1 + ss2 - 2.0 * ss3) / static_cast<double>(n) /
        static_cast<double>(dim);

    c = std::move(c_new);
    ss = std::max(ss_new, 1e-12);
    result.iterations_run = iteration;
    iter_span.SetAttribute("ss", ss);
    if (options_.l1_threshold > 0.0) {
      iter_span.SetAttribute("nnz_loadings", nnz_loadings);
      registry->counter("spca.loadings.zeroed")
          ->Add(static_cast<double>(static_cast<uint64_t>(dim) * d -
                                    nnz_loadings));
      registry->gauge("spca.loadings.nnz")
          ->Set(static_cast<double>(nnz_loadings));
    }

    if (on_checkpoint) {
      // result.model already aliases (C, ss, mean) — the complete resume
      // state: warm-starting from it re-runs the remaining iterations
      // bit-identically (each iteration is pure in the model and Y).
      SolverCheckpoint checkpoint;
      checkpoint.solver = std::string(name());
      checkpoint.step = static_cast<uint64_t>(iteration);
      checkpoint.rows_seen = n;
      SPCA_RETURN_IF_ERROR(on_checkpoint(result.model, checkpoint));
    }

    if (needs_errors) {
      IterationTrace trace;
      trace.iteration = iteration;
      trace.error = SampledReconstructionError(sample, c, ym);
      trace.accuracy_percent = AccuracyPercent(trace.error, result.ideal_error);
      trace.simulated_seconds = engine_->SimulatedSeconds() - sim_before;
      trace.wall_seconds = wall.ElapsedSeconds();
      trace.ss = ss;
      trace.jobs_completed = engine_->traces().size();
      result.trace.push_back(trace);
      iter_span.SetAttribute("error", trace.error);
      iter_span.SetAttribute("accuracy_percent", trace.accuracy_percent);
      // Written so trace files alone can regenerate the accuracy-vs-time
      // tables (tools/trace_report) without rerunning the benchmark.
      registry->SetSpanAttribute(iter_span.id(), "sim_seconds",
                                 trace.simulated_seconds);
      registry->SetSpanAttribute(iter_span.id(), "wall_seconds",
                                 trace.wall_seconds);
      if (options_.target_accuracy_fraction <= 1.0 &&
          trace.accuracy_percent >=
              options_.target_accuracy_fraction * 100.0) {
        result.reached_target = true;
        break;
      }
    }
  }

  CommStats stats_after = engine_->stats();
  stats_after.wall_seconds = wall.ElapsedSeconds() + stats_before.wall_seconds;
  result.stats = dist::StatsDiff(stats_after, stats_before);
  return result;
}

}  // namespace spca::core
