#include "fit_layers.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/solve.h"
#include "linalg/sparse_matrix.h"

namespace repobench {

using spca::dist::ClusterSpec;
using spca::dist::DistMatrix;
using spca::dist::Engine;
using spca::dist::EngineMode;
using spca::linalg::DenseMatrix;
using spca::linalg::DenseVector;

namespace {

bool BitEqual(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BitEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         BitEqual(a.data(), b.data(), a.rows() * a.cols());
}

bool BitEqual(const DenseVector& a, const DenseVector& b) {
  return a.size() == b.size() && BitEqual(a.data(), b.data(), a.size());
}

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// One EM iteration of Algorithm 4 driven through the public core/jobs.h
/// and linalg calls in the order Spca::Solve makes them, each call timed
/// in its own span.
struct DecomposedEm {
  DecomposedEm(const DistMatrix& y, const spca::core::SpcaOptions& options,
               spca::obs::Registry* registry)
      : y(y), registry(registry) {
    toggles.mean_propagation = options.mean_propagation;
    toggles.minimize_intermediate_data = options.minimize_intermediate_data;
    toggles.consolidate_jobs = options.consolidate_jobs;
    toggles.ss3_associativity = options.ss3_associativity;
  }

  const DistMatrix& y;
  spca::obs::Registry* registry;
  spca::core::JobToggles toggles;
  Engine engine{ClusterSpec{}, EngineMode::kSpark};

  DenseVector ym;
  double ss1 = 0.0;
  // Broadcast inputs of the last iteration (reused by the pool probe).
  DenseVector xm;
  DenseMatrix cm;

  double mean_s = 0.0;
  double fnorm_s = 0.0;
  std::vector<double> driver_s, ytx_s, ss3_s;

  void Prepare(bool efficient_frobenius) {
    mean_s = TimeLayer(registry, "jobs.mean", "core.jobs",
                       [&] { ym = spca::core::MeanJob(&engine, y); });
    fnorm_s = TimeLayer(registry, "jobs.fnorm", "core.jobs", [&] {
      ss1 = spca::core::FrobeniusNormJob(&engine, y, ym, efficient_frobenius);
    });
  }

  /// Advances (c, ss) by one iteration; false when a solve fails.
  bool Iterate(DenseMatrix* c, double* ss) {
    const size_t d = c->cols();
    const size_t dim = y.cols();
    DenseMatrix m_inverse;
    bool ok = true;
    const double pre_s = TimeLayer(registry, "driver.pre_ytx", "core.driver", [&] {
      DenseMatrix m = spca::linalg::TransposeMultiply(*c, *c);
      m.AddScaledIdentity(*ss);
      auto inverse = spca::linalg::Inverse(m);
      if (!inverse.ok()) {
        ok = false;
        return;
      }
      m_inverse = std::move(inverse.value());
      cm = spca::linalg::Multiply(*c, m_inverse);
      xm = DenseVector(d);
      for (size_t k = 0; k < dim; ++k) {
        const double mk = ym[k];
        if (mk == 0.0) continue;
        for (size_t j = 0; j < d; ++j) xm[j] += mk * cm(k, j);
      }
    });
    if (!ok) return false;

    spca::core::YtXResult ytx;
    ytx_s.push_back(TimeLayer(registry, "jobs.ytx", "core.jobs", [&] {
      ytx = spca::core::YtXJob(&engine, y, ym, xm, cm, nullptr, toggles);
    }));

    DenseMatrix c_new;
    double ss2 = 0.0;
    const double post_s = TimeLayer(registry, "driver.post_ytx", "core.driver", [&] {
      ytx.xtx.AddScaled(*ss, m_inverse);
      auto solved = spca::linalg::SolveRight(ytx.ytx, ytx.xtx);
      if (!solved.ok()) {
        ok = false;
        return;
      }
      c_new = std::move(solved.value());
      const DenseMatrix ctc = spca::linalg::TransposeMultiply(c_new, c_new);
      for (size_t a = 0; a < d; ++a) {
        for (size_t b = 0; b < d; ++b) ss2 += ytx.xtx(a, b) * ctc(b, a);
      }
    });
    if (!ok) return false;
    driver_s.push_back(pre_s + post_s);

    double ss3 = 0.0;
    ss3_s.push_back(TimeLayer(registry, "jobs.ss3", "core.jobs", [&] {
      ss3 = spca::core::Ss3Job(&engine, y, ym, xm, cm, c_new, nullptr, toggles);
    }));
    const double ss_new = (ss1 + ss2 - 2.0 * ss3) /
                          static_cast<double>(y.rows()) /
                          static_cast<double>(dim);
    *c = std::move(c_new);
    *ss = std::max(ss_new, 1e-12);
    return true;
  }
};

}  // namespace

spca::workload::Dataset Generate(const Spec& spec, uint64_t seed) {
  return spca::workload::MakeDataset(spec.kind, spec.rows, spec.cols,
                                     kPartitions, seed);
}

FitResult FitOnce(const Spec& spec, const DistMatrix& y, uint64_t init_seed,
                  spca::obs::Registry* registry) {
  FitResult result;
  spca::Stopwatch watch;
  Engine engine(ClusterSpec{}, EngineMode::kSpark, registry);
  spca::core::SpcaOptions options = spec.fit;
  options.seed = init_seed;
  auto fit = spca::core::Spca(&engine, options).Solve(y);
  result.wall_s = watch.ElapsedSeconds();
  if (!fit.ok()) {
    result.error = fit.status().ToString();
    return result;
  }
  result.ok = true;
  result.iterations = fit.value().iterations_run;
  result.stats = fit.value().stats;
  result.model = std::move(fit.value().model);
  return result;
}

AccuracyReference::AccuracyReference(const Spec& spec, const DistMatrix& y) {
  const auto rows = spca::core::SampleRowIndices(
      y.rows(), kReferenceSampleRows, spca::core::kErrorSampleSeed);
  sample_ = y.SampleRows(rows, 1);
  ideal_error_ = spca::core::ConvergedIdealError(
      ClusterSpec{}, y, spec.fit.num_components, sample_,
      kAnchorIterations, spec.fit.seed);
}

double AccuracyReference::Percent(const spca::core::PcaModel& model) const {
  const double error = spca::core::SampledReconstructionError(
      sample_, model.components, model.mean);
  return 100.0 * ideal_error_ / error;
}

spca::core::PcaModel MeasureFitLayers(const Spec& spec, const DistMatrix& y,
                                      spca::obs::Registry* registry,
                                      Outcome* out) {
  SPCA_CHECK_MSG(spec.fit.minimize_intermediate_data && !spec.fit.smart_guess,
                 "the decomposition mirrors the default EM path only");
  const size_t d = spec.fit.num_components;
  const size_t dim = y.cols();
  const bool needs_errors = spec.fit.compute_accuracy_trace ||
                            spec.fit.target_accuracy_fraction <= 1.0;
  const bool uses_anchor = needs_errors && spec.fit.ideal_error_override <= 0.0;

  // Whole fits: plain (telemetry into the engine's own registry, as in the
  // timed run) alternating with traced (into this run's registry, so the
  // program's own spca.fit / spca.em_iteration / job spans land in the
  // trace file beside the layer spans).
  std::vector<double> plain_s, traced_s;
  FitResult plain;
  for (int round = 0; round < 2; ++round) {
    plain = FitOnce(spec, y, spec.fit.seed, nullptr);
    FitResult traced;
    {
      spca::obs::Span span(registry, "fit.traced", "core");
      traced = FitOnce(spec, y, spec.fit.seed, registry);
    }
    out->attempted += 2;
    for (const FitResult* fit : {&plain, &traced}) {
      if (!fit->ok) {
        ++out->failed;
        out->Fail("fit failed: " + fit->error);
      }
    }
    plain_s.push_back(plain.wall_s);
    traced_s.push_back(traced.wall_s);
  }
  if (!plain.ok) return {};
  const double fit_wall_s = Median(plain_s);

  // core.anchor: the hidden converged fit the stop condition pays for.
  double anchor_s = 0.0;
  // core.eval: one sampled-error evaluation per EM iteration.
  double eval_setup_s = 0.0;
  double eval_s = 0.0;
  int eval_calls = 0;
  if (needs_errors) {
    DistMatrix sample;
    eval_setup_s = TimeLayer(registry, "eval.sample_rows", "core.eval", [&] {
      const auto rows = spca::core::SampleRowIndices(
          y.rows(), spec.fit.error_sample_rows, spca::core::kErrorSampleSeed);
      sample = y.SampleRows(rows, 1);
    });
    if (uses_anchor) {
      anchor_s = TimeLayer(registry, "anchor.converged_ideal_error",
                           "core.anchor", [&] {
        spca::core::ConvergedIdealError(ClusterSpec{}, y, d, sample,
                                        spec.fit.ideal_fit_iterations,
                                        spec.fit.seed);
      });
    }
    std::vector<double> calls;
    for (int i = 0; i < plain.iterations; ++i) {
      calls.push_back(TimeLayer(registry, "eval.sampled_error", "core.eval", [&] {
        spca::core::SampledReconstructionError(sample, plain.model.components,
                                               plain.model.mean);
      }));
    }
    eval_s = Median(calls);
    eval_calls = plain.iterations;
  }
  out->Add("anchor.s", anchor_s, "s");
  out->Add("eval.s_per_call", eval_s, "s");
  out->Add("eval.calls", eval_calls, "count");

  // core (EM loop), from the program's own spans of the traced fits.
  std::vector<double> iteration_s;
  for (const auto& span : registry->spans()) {
    if (span.name == "spca.em_iteration") iteration_s.push_back(span.duration_sec());
  }
  out->Add("em.iterations", plain.iterations, "count");
  out->Add("em.iter_s", Median(iteration_s), "s");

  // core.driver + core.jobs: the iterations replayed call by call from the
  // plain fit's model; the first is checked bit for bit against a
  // one-iteration warm-started Spca::Solve from the same (C, ss).
  DecomposedEm em(y, spec.fit, registry);
  em.Prepare(spec.fit.efficient_frobenius);
  DenseMatrix c = plain.model.components;
  double ss = plain.model.noise_variance;
  const int iterations = std::max(1, plain.iterations);
  ++out->attempted;
  bool decomposed_ok = true;
  for (int it = 1; it <= iterations && decomposed_ok; ++it) {
    decomposed_ok = em.Iterate(&c, &ss);
    if (it != 1 || !decomposed_ok) continue;
    spca::core::SpcaOptions one = spec.fit;
    one.max_iterations = 1;
    one.target_accuracy_fraction = 2.0;
    one.compute_accuracy_trace = false;
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    spca::core::FitOptions warm;
    warm.components = plain.model.components;
    warm.noise_variance = plain.model.noise_variance;
    auto reference = spca::core::Spca(&engine, one).Solve(y, warm);
    decomposed_ok = reference.ok() &&
                    BitEqual(reference.value().model.components, c) &&
                    BitEqual(&reference.value().model.noise_variance, &ss, 1) &&
                    BitEqual(reference.value().model.mean, em.ym);
  }
  if (!decomposed_ok) {
    ++out->failed;
    out->Fail("decomposed EM iteration differs from Spca::Solve");
  }
  const double driver_s = Median(em.driver_s);
  const double ytx_s = Median(em.ytx_s);
  const double ss3_s = Median(em.ss3_s);
  const double jobs_wall_s =
      em.mean_s + em.fnorm_s + plain.iterations * (ytx_s + ss3_s);
  const uint64_t dd = d;
  out->Add("driver.s_per_iter", driver_s, "s");
  out->Add("driver.flops_per_iter",
           static_cast<double>(2 * dim * dd * dd + 2 * dd * dd * dd +
                               2 * dim * dd * dd + 2 * dim * dd +
                               2 * dd * dd * dd + 2 * dim * dd * dd +
                               2 * dim * dd * dd + 2 * dd * dd),
           "flop");
  out->Add("jobs.mean_s", em.mean_s, "s");
  out->Add("jobs.fnorm_s", em.fnorm_s, "s");
  out->Add("jobs.ytx_s", ytx_s, "s");
  out->Add("jobs.ss3_s", ss3_s, "s");
  out->Add("jobs.wall_s", jobs_wall_s, "s");

  // dist.engine: exact accounting of the plain fit.
  out->Add("engine.jobs", static_cast<double>(plain.stats.jobs_launched), "count");
  out->Add("engine.task_flops", static_cast<double>(plain.stats.task_flops), "flop");
  out->Add("engine.shipped_bytes", static_cast<double>(plain.stats.ShippedBytes()),
           "bytes");

  // dist.pool: an empty RunMap over the workload's partitions, and YtXJob
  // at one worker versus every hardware thread.
  const size_t threads = HardwareThreads();
  double dispatch_us = 0.0;
  TimeLayer(registry, "pool.empty_run_map", "dist.pool", [&] {
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    std::vector<double> samples;
    for (int i = 0; i < 400; ++i) {
      spca::Stopwatch watch;
      engine.RunMap<int>("bench.empty", y,
                         [](const spca::dist::RowRange&,
                            spca::dist::TaskContext*) { return 0; });
      samples.push_back(watch.ElapsedSeconds() * 1e6);
    }
    dispatch_us = Median(samples);
  });
  auto ytx_seconds = [&](size_t workers) {
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    engine.SetLocalWorkers(workers);
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
      samples.push_back(TimeLayer(registry, "pool.ytx_scaling", "dist.pool", [&] {
        spca::core::YtXJob(&engine, y, em.ym, em.xm, em.cm, nullptr, em.toggles);
      }));
    }
    return Median(samples);
  };
  const double one_worker_s = ytx_seconds(1);
  out->Add("pool.dispatch_us", dispatch_us, "us");
  out->Add("pool.scaling", one_worker_s / ytx_seconds(threads), "x");

  // linalg.kernels at the workload's shapes: rows of the input against the
  // D x d model.
  const auto kernel_rows = spca::core::SampleRowIndices(
      y.rows(), std::min<size_t>(y.rows(), 64), 99);
  const DistMatrix rows = y.SampleRows(kernel_rows, 1);
  const DenseMatrix dense_rows = rows.ToDenseSlice(0, rows.rows());
  std::vector<spca::linalg::SparseVector> sparse_rows;
  double nnz_total = 0.0;
  for (size_t i = 0; i < rows.rows(); ++i) {
    DenseVector row(dim);
    std::memcpy(row.data(), dense_rows.RowPtr(i), dim * sizeof(double));
    sparse_rows.push_back(spca::linalg::SparseVector::FromDense(row));
    nnz_total += static_cast<double>(sparse_rows.back().nnz());
  }
  const double n_rows = static_cast<double>(rows.rows());
  const DenseMatrix& b = plain.model.components;
  DenseVector out_row(d);
  DenseMatrix out_block(dim, d);
  const double word = sizeof(double);
  double sparse_ns = 0.0, rank1_ns = 0.0, gemm_ns = 0.0;
  TimeLayer(registry, "kernels.sparse_row_gemv", "linalg.kernels", [&] {
    sparse_ns = NanosPerCall(sparse_rows.size(), [&](size_t i) {
      const auto& row = sparse_rows[i];
      spca::linalg::kernels::SparseRowGemv(row.entries().data(), row.nnz(),
                                           b.data(), b.row_stride(), d,
                                           out_row.data());
    });
  });
  TimeLayer(registry, "kernels.rank1_update", "linalg.kernels", [&] {
    rank1_ns = NanosPerCall(rows.rows(), [&](size_t i) {
      spca::linalg::kernels::Rank1Update(dense_rows.RowPtr(i), dim,
                                         b.RowPtr(0), d, out_block.data(),
                                         out_block.row_stride());
    });
  });
  TimeLayer(registry, "kernels.row_gemm", "linalg.kernels", [&] {
    gemm_ns = NanosPerCall(rows.rows(), [&](size_t i) {
      spca::linalg::kernels::RowGemm(dense_rows.RowPtr(i), dim, b.data(),
                                     b.row_stride(), d, out_row.data());
    });
  });
  const double dd_f = static_cast<double>(d);
  const double dim_f = static_cast<double>(dim);
  out->Add("kernels.sparse_row_gemv_ns", sparse_ns, "ns");
  out->Add("kernels.sparse_row_gemv.flops_per_byte",
           (2.0 * nnz_total * dd_f) /
               (nnz_total * 16.0 + nnz_total * dd_f * word +
                n_rows * 2.0 * dd_f * word),
           "flop/byte");
  out->Add("kernels.rank1_update_ns", rank1_ns, "ns");
  out->Add("kernels.rank1_update.flops_per_byte",
           (2.0 * nnz_total * dd_f) /
               (n_rows * (dim_f + dd_f) * word +
                2.0 * nnz_total * dd_f * word),
           "flop/byte");
  out->Add("kernels.row_gemm_ns", gemm_ns, "ns");
  out->Add("kernels.row_gemm.flops_per_byte",
           (2.0 * dim_f * dd_f) /
               ((dim_f + dim_f * dd_f + 2.0 * dd_f) * word),
           "flop/byte");

  // obs: how much of the fit's wall the layer calls above account for,
  // and what recording the program's spans into this trace cost.
  const double covered =
      anchor_s + eval_setup_s + eval_calls * eval_s + jobs_wall_s +
      plain.iterations * driver_s;
  out->Add("trace.unattributed_share", 1.0 - covered / fit_wall_s, "share");
  out->Add("trace.overhead_pct",
           100.0 * (Median(traced_s) - fit_wall_s) / fit_wall_s, "%");
  std::printf("%s: fit wall %.4f s (median of %zu plain fits); layers cover "
              "%.4f s, unattributed share %.4f\n",
              spec.name.c_str(), fit_wall_s, plain_s.size(), covered,
              1.0 - covered / fit_wall_s);
  return std::move(plain.model);
}

}  // namespace repobench
