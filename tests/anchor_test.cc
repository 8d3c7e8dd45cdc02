// The ideal-accuracy anchor computed by block subspace iteration
// (core::SubspaceIdealFit / SubspaceIdealError).
//
// SketchJob, the anchor's one pass per round, is memcmp-checked against
// YtXJob's YtX. The anchor itself is checked against the exact top-d
// subspace from a dense covariance eigendecomposition, for independence
// from the engine's worker count and FaultPlan, for its round cap and
// sketch-width clamp, for the CholeskyQR2 fallback on rank-deficient
// input, and for staying off the caller's engine while showing up as a
// "spca.anchor" span in the caller's registry.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <variant>

#include "common/rng.h"
#include "core/driver_algebra.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "workload/datasets.h"

namespace spca {
namespace {

using dist::ClusterSpec;
using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using linalg::DenseVector;

bool BitEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

DistMatrix ErrorSample(const DistMatrix& y) {
  return y.SampleRows(core::SampleRowIndices(y.rows(), 256,
                                             core::kErrorSampleSeed),
                      1);
}

/// The sampled error of the exact top-d subspace of the centered data:
/// eigenvectors of the dense D x D covariance.
double ExactIdealError(const DistMatrix& y, size_t d,
                       const DistMatrix& sample) {
  const DenseMatrix dense = y.ToDenseSlice(0, y.rows());
  const DenseVector mean = linalg::ColumnMeans(dense);
  const DenseMatrix centered = linalg::MeanCenter(dense, mean);
  auto eigen = linalg::SymmetricEigen(linalg::Gram(centered));
  EXPECT_TRUE(eigen.ok());
  DenseMatrix top(y.cols(), d);
  for (size_t i = 0; i < y.cols(); ++i) {
    for (size_t j = 0; j < d; ++j) top(i, j) = eigen.value().vectors(i, j);
  }
  return core::SampledReconstructionError(sample, top, mean);
}

core::SubspaceAnchor FitOn(Engine* engine, const DistMatrix& y, size_t d,
                           int max_rounds) {
  return core::SubspaceIdealFit(engine, y, d, ErrorSample(y), max_rounds,
                                /*seed=*/3);
}

TEST(SketchJobTest, MatchesYtXJobBitForBit) {
  for (const auto kind :
       {workload::DatasetKind::kTweets, workload::DatasetKind::kDiabetes}) {
    const DistMatrix y =
        workload::MakeDataset(kind, 300, 90, 6, /*seed=*/5).matrix;
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    engine.SetLocalWorkers(4);
    const DenseVector ym = core::MeanJob(&engine, y);
    Rng rng(8);
    const DenseMatrix z = DenseMatrix::GaussianRandom(y.cols(), 13, &rng);
    DenseVector zm(z.cols());
    for (size_t r = 0; r < y.cols(); ++r) {
      for (size_t j = 0; j < z.cols(); ++j) zm[j] += ym[r] * z(r, j);
    }
    const core::YtXResult ytx = core::YtXJob(&engine, y, ym, zm, z, nullptr,
                                             core::JobToggles{});
    core::YtXWorkspace workspace;
    for (int call = 0; call < 2; ++call) {  // fresh, then reused partials
      const DenseMatrix w = core::SketchJob(&engine, y, ym, zm, z, &workspace);
      EXPECT_TRUE(BitEqual(w, ytx.ytx))
          << workload::DatasetKindToString(kind) << " call " << call;
    }
    EXPECT_EQ(engine.traces().back().name, "sketchJob");
  }
}

struct Shape {
  workload::DatasetKind kind;
  size_t rows, cols, d;
};

const Shape kShapes[] = {
    {workload::DatasetKind::kTweets, 3000, 200, 10},
    {workload::DatasetKind::kDiabetes, 150, 400, 12},
};

TEST(SubspaceAnchorTest, StopsNearTheExactTopSubspace) {
  // With a round cap that never binds, the kAnchorRitzTolerance stop
  // decides. It trades the last digits for rounds: over seeds 1-10 these
  // shapes stopped at most 0.082% (Tweets, whose lambda_{k+1} / lambda_d is
  // about 0.6) and 0.015% (Diabetes) away from the exact error.
  const double bounds[] = {1e-3, 5e-4};
  for (size_t s = 0; s < std::size(kShapes); ++s) {
    const Shape& shape = kShapes[s];
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      const DistMatrix y =
          workload::MakeDataset(shape.kind, shape.rows, shape.cols, 8, seed)
              .matrix;
      const DistMatrix sample = ErrorSample(y);
      const double exact = ExactIdealError(y, shape.d, sample);
      Engine engine(ClusterSpec{}, EngineMode::kSpark);
      const core::SubspaceAnchor anchor =
          core::SubspaceIdealFit(&engine, y, shape.d, sample, 1000, 3);
      EXPECT_LT(anchor.rounds, 1000);
      EXPECT_EQ(anchor.sketch_dim, shape.d + core::kAnchorOversample);
      EXPECT_NEAR(anchor.ideal_error, exact, bounds[s] * exact)
          << workload::DatasetKindToString(shape.kind) << " seed " << seed
          << " after " << anchor.rounds << " rounds";
    }
  }
}

TEST(SubspaceAnchorTest, IndependentOfWorkersAndFaults) {
  const DistMatrix y =
      workload::MakeDataset(workload::DatasetKind::kTweets, 1200, 150, 12, 4)
          .matrix;
  const size_t d = 8;
  Engine one(ClusterSpec{}, EngineMode::kSpark);
  one.SetLocalWorkers(1);
  const core::SubspaceAnchor reference = FitOn(&one, y, d, 40);

  Engine four(ClusterSpec{}, EngineMode::kSpark);
  four.SetLocalWorkers(4);
  const core::SubspaceAnchor pooled = FitOn(&four, y, d, 40);
  EXPECT_TRUE(BitEqual(pooled.ideal_error, reference.ideal_error));
  EXPECT_EQ(pooled.rounds, reference.rounds);

  dist::FaultSpec spec;
  spec.seed = 77;
  spec.task_failure_probability = 0.3;
  spec.max_task_attempts = 6;
  spec.straggler_probability = 0.4;
  spec.straggler_slowdown = 6.0;
  spec.num_workers = 4;
  spec.speculation.enabled = true;
  Engine faulted(ClusterSpec{}, EngineMode::kSpark);
  faulted.SetLocalWorkers(4);
  faulted.SetFaultPlan(dist::FaultPlan(spec));
  const core::SubspaceAnchor recovered = FitOn(&faulted, y, d, 40);
  EXPECT_TRUE(BitEqual(recovered.ideal_error, reference.ideal_error));
  EXPECT_EQ(recovered.rounds, reference.rounds);
  const obs::Registry& registry = *faulted.registry();
  ASSERT_NE(registry.FindCounter("engine.retries.tasks"), nullptr);
  EXPECT_GT(registry.FindCounter("engine.retries.tasks")->AsUint64(), 0u);
  ASSERT_NE(registry.FindCounter("engine.speculation.launched"), nullptr);
  EXPECT_GT(registry.FindCounter("engine.speculation.launched")->AsUint64(),
            0u);

  // The private-engine entry point computes the same value.
  EXPECT_TRUE(BitEqual(core::SubspaceIdealError(ClusterSpec{}, y, d,
                                                ErrorSample(y), 40, 3),
                       reference.ideal_error));
}

TEST(SubspaceAnchorTest, HonoursTheRoundCap) {
  const DistMatrix y =
      workload::MakeDataset(workload::DatasetKind::kTweets, 800, 120, 4, 9)
          .matrix;
  for (const int cap : {1, 2, 3}) {
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    const core::SubspaceAnchor anchor = FitOn(&engine, y, 6, cap);
    EXPECT_EQ(anchor.rounds, cap);
    // MeanJob plus one sketch pass per round.
    EXPECT_EQ(engine.traces().size(), 1u + static_cast<size_t>(cap));
    EXPECT_TRUE(std::isfinite(anchor.ideal_error));
  }
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  EXPECT_EQ(FitOn(&engine, y, 6, 0).rounds, 1);  // at least one pass
}

TEST(SubspaceAnchorTest, SketchWidthClampsToTheMatrix) {
  // d + 10 > D: k = D.
  const DistMatrix narrow =
      workload::MakeDataset(workload::DatasetKind::kDiabetes, 200, 12, 4, 2)
          .matrix;
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  const core::SubspaceAnchor wide = FitOn(&engine, narrow, 5, 30);
  EXPECT_EQ(wide.sketch_dim, 12u);
  EXPECT_NEAR(wide.ideal_error, ExactIdealError(narrow, 5, ErrorSample(narrow)),
              1e-9);

  // d + 10 > N, and d > N: k stays d + 10 although W has rank at most
  // N - 1, so every re-orthonormalization takes the MGS fallback; the
  // top-d subspace holds every centered row and the error is roundoff.
  const DistMatrix short_rows =
      workload::MakeDataset(workload::DatasetKind::kDiabetes, 9, 60, 3, 2)
          .matrix;
  for (const size_t d : {4, 12}) {
    const core::SubspaceAnchor tall = FitOn(&engine, short_rows, d, 30);
    EXPECT_EQ(tall.sketch_dim, d + core::kAnchorOversample);
    const double exact =
        ExactIdealError(short_rows, d, ErrorSample(short_rows));
    EXPECT_TRUE(std::isfinite(tall.ideal_error)) << "d = " << d;
    EXPECT_NEAR(tall.ideal_error, exact, 1e-9) << "d = " << d;
  }
}

TEST(SubspaceAnchorTest, SolversFitMoreComponentsThanRows) {
  // d > N is a valid fit (Spca::Solve needs d <= D and N >= 2); its
  // default anchor must not refuse it.
  const DistMatrix y =
      workload::MakeDataset(workload::DatasetKind::kTweets, 5, 80, 4, 1)
          .matrix;
  core::SpcaOptions options;
  options.num_components = 10;
  options.max_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  auto fit = core::Spca(&engine, options).Solve(y);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_TRUE(std::isfinite(fit.value().ideal_error));
}

TEST(SubspaceAnchorTest, RankDeficientInputFallsBackToGramSchmidt) {
  // Rank 3 (plus the mean): W = Yc'Yc Z has rank 3 < k = 12, so
  // CholeskyQR2 must refuse it.
  const size_t rows = 120, cols = 30;
  Rng rng(17);
  const DenseMatrix basis = DenseMatrix::GaussianRandom(3, cols, &rng);
  DenseMatrix dense(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t b = 0; b < 3; ++b) {
      const double coefficient = rng.NextGaussian();
      for (size_t j = 0; j < cols; ++j) {
        dense(i, j) += coefficient * basis(b, j);
      }
    }
    for (size_t j = 0; j < cols; ++j) dense(i, j) += 1.0;
  }
  const DistMatrix y = DistMatrix::FromDense(dense, 4);
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  const DenseVector ym = core::MeanJob(&engine, y);
  Rng z_rng(5);
  const DenseMatrix z = linalg::OrthonormalizeColumns(
      DenseMatrix::GaussianRandom(cols, 12, &z_rng));
  DenseMatrix w =
      core::SketchJob(&engine, y, ym, core::MeanProjection(ym, z), z);
  const DenseMatrix unchanged = w;
  EXPECT_FALSE(core::DriverCholeskyQr2(&engine, &w));
  EXPECT_TRUE(BitEqual(w, unchanged));

  const core::SubspaceAnchor anchor = FitOn(&engine, y, 2, 20);
  EXPECT_EQ(anchor.sketch_dim, 12u);
  EXPECT_TRUE(std::isfinite(anchor.ideal_error));
  EXPECT_NEAR(anchor.ideal_error, ExactIdealError(y, 2, ErrorSample(y)),
              1e-6);
}

TEST(SubspaceAnchorTest, SpcaRunsItOffTheCallersEngineInASpan) {
  const DistMatrix y =
      workload::MakeDataset(workload::DatasetKind::kTweets, 1000, 120, 8, 6)
          .matrix;
  core::SpcaOptions options;
  options.num_components = 6;
  options.max_iterations = 3;
  options.target_accuracy_fraction = 2.0;

  obs::Registry registry;
  Engine engine(ClusterSpec{}, EngineMode::kSpark, &registry);
  auto fit = core::Spca(&engine, options).Solve(y);
  ASSERT_TRUE(fit.ok());

  Engine overridden_engine(ClusterSpec{}, EngineMode::kSpark);
  core::SpcaOptions overridden = options;
  overridden.ideal_error_override = fit.value().ideal_error;
  auto same = core::Spca(&overridden_engine, overridden).Solve(y);
  ASSERT_TRUE(same.ok());
  // Nothing of the anchor reaches the caller's engine: same jobs, same
  // accounting as a fit handed the anchor value.
  EXPECT_EQ(engine.traces().size(), overridden_engine.traces().size());
  EXPECT_EQ(fit.value().stats.task_flops, same.value().stats.task_flops);
  EXPECT_EQ(fit.value().stats.simulated_seconds,
            same.value().stats.simulated_seconds);
  for (const auto& job : engine.traces()) EXPECT_NE(job.name, "sketchJob");

  EXPECT_TRUE(BitEqual(
      fit.value().ideal_error,
      core::SubspaceIdealError(ClusterSpec{}, y, 6, ErrorSample(y),
                               options.ideal_fit_iterations, options.seed)));
  int anchors = 0;
  for (const auto& span : registry.spans()) {
    if (span.name != "spca.anchor") continue;
    ++anchors;
    EXPECT_EQ(span.track, obs::Track::kWall);
    const auto* rounds = span.FindAttribute("rounds");
    const auto* width = span.FindAttribute("sketch_dim");
    const auto* ideal = span.FindAttribute("ideal_error");
    ASSERT_TRUE(rounds != nullptr && width != nullptr && ideal != nullptr);
    EXPECT_GE(std::get<uint64_t>(*rounds), 1u);
    EXPECT_LE(std::get<uint64_t>(*rounds),
              static_cast<uint64_t>(options.ideal_fit_iterations));
    EXPECT_EQ(std::get<uint64_t>(*width), 16u);
    EXPECT_TRUE(BitEqual(std::get<double>(*ideal), fit.value().ideal_error));
  }
  EXPECT_EQ(anchors, 1);
}

}  // namespace
}  // namespace spca
