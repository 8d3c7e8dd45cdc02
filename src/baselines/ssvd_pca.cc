#include "baselines/ssvd_pca.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "linalg/svd.h"

namespace spca::baselines {

using dist::DistMatrix;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// Distributed product Yc * B for a broadcast D x k matrix B, with the
/// mean kept separate (Mahout's PCA option): row i is Y_i*B - Ym'*B. The
/// N x k dense result is *materialized intermediate data* between phases —
/// the crux of SSVD's communication cost.
DistMatrix TimesJob(dist::Engine* engine, const DistMatrix& y,
                    const DenseMatrix& b, const DenseVector& ym,
                    const dist::JobDesc& job) {
  const size_t k = b.cols();
  const size_t dim = y.cols();
  engine->Broadcast(b.ByteSize() + ym.size() * sizeof(double));
  DenseVector mean_proj(k);  // Ym' * B, computed on the driver
  for (size_t r = 0; r < dim; ++r) {
    const double m = ym[r];
    if (m == 0.0) continue;
    for (size_t j = 0; j < k; ++j) mean_proj[j] += m * b(r, j);
  }
  engine->CountDriverFlops(2ull * dim * k);

  DenseMatrix result(y.rows(), k);
  engine->RunMap<int>(job, y, [&](const RowRange& range, TaskContext* ctx) {
    DenseVector row(k);
    uint64_t flops = 0;
    for (size_t i = range.begin; i < range.end; ++i) {
      y.RowTimesMatrix(i, b, &row);
      flops += 2ull * y.RowNnz(i) * k + k;
      for (size_t j = 0; j < k; ++j) result(i, j) = row[j] - mean_proj[j];
    }
    ctx->CountFlops(flops);
    ctx->EmitIntermediate(range.size() * k * sizeof(double));
    return 0;
  });
  return DistMatrix::FromDense(std::move(result), y.num_partitions());
}

/// Distributed Z = Yc' * Q for a materialized N x k dense Q partitioned
/// like y (map-side join): per-partition k x D-transposed partials shipped
/// between phases — Mahout's Bt-job mapper-output explosion. Returns the
/// D x k result with the -Ym (x) sum(Q) mean correction applied.
DenseMatrix TransposeTimesJob(dist::Engine* engine, const DistMatrix& y,
                              const DistMatrix& q, const DenseVector& ym,
                              const dist::JobDesc& job) {
  SPCA_CHECK_EQ(y.rows(), q.rows());
  const size_t k = q.cols();
  const size_t dim = y.cols();

  struct Partial {
    DenseMatrix ytq;
    DenseVector q_sum;
  };
  auto partials = engine->RunMap<std::unique_ptr<Partial>>(
      job, y, [&](const RowRange& range, TaskContext* ctx) {
        auto partial = std::make_unique<Partial>();
        partial->ytq = DenseMatrix(dim, k);
        partial->q_sum = DenseVector(k);
        DenseVector q_row(k);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          for (size_t j = 0; j < k; ++j) q_row[j] = q.dense()(i, j);
          y.AddRowOuterProduct(i, q_row, &partial->ytq);
          partial->q_sum.Add(q_row);
          flops += 2ull * y.RowNnz(i) * k + k;
        }
        ctx->CountFlops(flops);
        // Dense k x D partial written out by each mapper.
        ctx->EmitIntermediate(static_cast<uint64_t>(dim) * k *
                                  sizeof(double) +
                              k * sizeof(double));
        return partial;
      });

  DenseMatrix z(dim, k);
  DenseVector q_sum(k);
  for (const auto& p : partials) {
    z.Add(p->ytq);
    q_sum.Add(p->q_sum);
  }
  for (size_t r = 0; r < dim; ++r) {
    const double m = ym[r];
    if (m == 0.0) continue;
    for (size_t j = 0; j < k; ++j) z(r, j) -= m * q_sum[j];
  }
  engine->CountDriverFlops(partials.size() * dim * k + 2ull * dim * k);
  return z;
}

/// Distributed thin QR of a materialized N x k matrix via Cholesky-QR
/// (Mahout's QJob): one job accumulates the k x k Gram, the driver factors
/// it, a second job materializes Q = Y * R^{-1}. Returns Q; fails if the
/// Gram matrix is numerically rank-deficient.
StatusOr<DistMatrix> DistributedQr(dist::Engine* engine,
                                   const DistMatrix& y_in,
                                   const std::string& phase) {
  const size_t k = y_in.cols();
  auto grams = engine->RunMap<std::unique_ptr<DenseMatrix>>(
      dist::JobDesc{"qrGramJob", phase}, y_in,
      [&](const RowRange& range, TaskContext* ctx) {
        auto gram = std::make_unique<DenseMatrix>(k, k);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          const auto row = y_in.dense().Row(i);
          for (size_t a = 0; a < k; ++a) {
            const double va = row[a];
            for (size_t b = 0; b < k; ++b) (*gram)(a, b) += va * row[b];
          }
          flops += 2ull * k * k;
        }
        ctx->CountFlops(flops);
        ctx->EmitResult(k * k * sizeof(double));
        return gram;
      });
  DenseMatrix gram(k, k);
  for (const auto& g : grams) gram.Add(*g);
  // Tiny ridge keeps borderline-rank-deficient projections factorable.
  gram.AddScaledIdentity(1e-12 * std::max(1.0, gram.Trace()));
  auto chol = linalg::CholeskyFactor(gram);
  if (!chol.ok()) return chol.status();
  // R = L'; Q = Y * R^{-1} = Y * (L')^{-1}.
  auto r_inverse = linalg::Inverse(chol.value().Transpose());
  if (!r_inverse.ok()) return r_inverse.status();
  engine->CountDriverFlops(grams.size() * k * k + 2ull * k * k * k);
  engine->Broadcast(k * k * sizeof(double));

  DenseMatrix q(y_in.rows(), k);
  engine->RunMap<int>(
      dist::JobDesc{"qrQJob", phase}, y_in,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector q_row(k);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          y_in.RowTimesMatrix(i, r_inverse.value(), &q_row);
          flops += 2ull * k * k;
          for (size_t j = 0; j < k; ++j) q(i, j) = q_row[j];
        }
        ctx->CountFlops(flops);
        ctx->EmitIntermediate(range.size() * k * sizeof(double));
        return 0;
      });
  return DistMatrix::FromDense(std::move(q), y_in.num_partitions());
}

}  // namespace

StatusOr<SsvdResult> SsvdPca::Fit(const DistMatrix& y) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (d == 0 || d > dim) {
    return Status::InvalidArgument("invalid num_components");
  }
  if (n < 2) return Status::InvalidArgument("need at least 2 rows");
  const size_t k = std::min(d + options_.oversampling, std::min(n, dim));
  if (k < d) return Status::InvalidArgument("rank larger than the matrix");

  const auto stats_before = engine_->stats();
  const double sim_before = engine_->SimulatedSeconds();
  Stopwatch wall;

  obs::Span fit_span(engine_->registry(), "ssvd.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(n));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(dim));
  fit_span.SetAttribute("components", static_cast<uint64_t>(d));

  SsvdResult result;
  result.model.mean = core::MeanJob(engine_, y);
  const DenseVector& ym = result.model.mean;

  const bool needs_errors = options_.compute_accuracy_trace ||
                            options_.target_accuracy_fraction <= 1.0;
  DistMatrix sample;
  if (needs_errors) {
    const auto indices = core::SampleRowIndices(
        n, options_.error_sample_rows, core::kErrorSampleSeed);
    sample = y.SampleRows(indices, 1);
    result.ideal_error =
        options_.ideal_error_override > 0.0
            ? options_.ideal_error_override
            : core::SubspaceIdealError(engine_->spec(), y, d, sample,
                                       options_.ideal_fit_iterations,
                                       options_.seed, engine_->registry());
  }

  // Random projection (the driver broadcasts Omega inside TimesJob).
  Rng rng(options_.seed);
  const DenseMatrix omega = DenseMatrix::GaussianRandom(dim, k, &rng);
  DistMatrix y0 = TimesJob(engine_, y, omega, ym,
                           dist::JobDesc{"ssvd.QJob", "projection"});
  auto q = DistributedQr(engine_, y0, "projection");
  if (!q.ok()) return q.status();

  for (int round = 0;; ++round) {
    obs::Span round_span(engine_->registry(), "ssvd.power_round", "iteration");
    round_span.SetAttribute("round", static_cast<uint64_t>(round));
    if (round > 0) {
      // One power iteration: Q <- qr(Yc * orth(Yc' * Q)).
      DenseMatrix z = TransposeTimesJob(
          engine_, y, q.value(), ym,
          dist::JobDesc{"ssvd.powerBtJob", "power_iteration"});
      z = linalg::OrthonormalizeColumns(z);
      engine_->CountDriverFlops(2ull * dim * k * k);
      DistMatrix yz = TimesJob(engine_, y, z, ym,
                               dist::JobDesc{"ssvd.powerYJob", "power_iteration"});
      q = DistributedQr(engine_, yz, "power_iteration");
      if (!q.ok()) return q.status();
    }

    // B' = Yc' * Q (D x k); PCA components are the top right singular
    // vectors of B = Q' * Yc, i.e. the top left singular vectors of B'.
    DenseMatrix bt = TransposeTimesJob(engine_, y, q.value(), ym,
                                       dist::JobDesc{"ssvd.BtJob", "finalize"});
    auto svd = linalg::SvdWideViaGram(bt.Transpose());
    if (!svd.ok()) return svd.status();
    engine_->CountDriverFlops(2ull * dim * k * k + 9ull * k * k * k);

    DenseMatrix components(dim, d);
    for (size_t j = 0; j < d; ++j) {
      for (size_t i = 0; i < dim; ++i) components(i, j) = svd.value().v(i, j);
    }
    result.model.components = std::move(components);
    result.model.noise_variance = 0.0;
    result.iterations_run = round + 1;

    if (needs_errors) {
      core::IterationTrace trace;
      trace.iteration = round + 1;
      trace.error =
          core::SampledReconstructionError(sample, result.model.components,
                                           ym);
      trace.accuracy_percent =
          core::AccuracyPercent(trace.error, result.ideal_error);
      trace.simulated_seconds = engine_->SimulatedSeconds() - sim_before;
      trace.wall_seconds = wall.ElapsedSeconds();
      trace.jobs_completed = engine_->traces().size();
      result.trace.push_back(trace);
      if (options_.target_accuracy_fraction <= 1.0 &&
          trace.accuracy_percent >=
              options_.target_accuracy_fraction * 100.0) {
        result.reached_target = true;
        break;
      }
    }
    if (round >= options_.max_power_iterations) break;
  }

  result.stats = dist::StatsDiff(engine_->stats(), stats_before);
  result.stats.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace spca::baselines
