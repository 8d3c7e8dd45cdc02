// Randomized property tests for the distributed jobs and the metric
// layer: invariants that must hold for any data, density, partitioning,
// and engine mode.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"

namespace spca::core {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::FaultPlan;
using dist::FaultSpec;
using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseMatrix;

struct RandomCase {
  DistMatrix matrix;
  DenseMatrix dense;
  DenseVector mean;
  DenseMatrix centered;
};

RandomCase MakeCase(uint64_t seed, bool sparse_storage) {
  Rng rng(seed);
  const size_t rows = 5 + rng.NextUint64Below(40);
  const size_t cols = 3 + rng.NextUint64Below(20);
  const double density = 0.1 + 0.6 * rng.NextDouble();
  const size_t partitions = 1 + rng.NextUint64Below(7);

  DenseMatrix dense(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextDouble() < density) dense(i, j) = rng.NextGaussian();
    }
  }
  RandomCase c;
  c.dense = dense;
  c.mean = linalg::ColumnMeans(dense);
  c.centered = linalg::MeanCenter(dense, c.mean);
  c.matrix = sparse_storage
                 ? DistMatrix::FromSparse(SparseMatrix::FromDense(dense),
                                          partitions)
                 : DistMatrix::FromDense(dense, partitions);
  return c;
}

class JobsPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  uint64_t seed() const { return 4000 + std::get<0>(GetParam()); }
  bool sparse_storage() const { return std::get<1>(GetParam()); }
};

TEST_P(JobsPropertySweep, MeanJobMatchesReferenceForAnyPartitioning) {
  const RandomCase c = MakeCase(seed(), sparse_storage());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const DenseVector mean = MeanJob(&engine, c.matrix);
  for (size_t j = 0; j < c.mean.size(); ++j) {
    EXPECT_NEAR(mean[j], c.mean[j], 1e-12);
  }
}

TEST_P(JobsPropertySweep, FrobeniusVariantsAgreeWithReference) {
  const RandomCase c = MakeCase(seed() + 100, sparse_storage());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const double reference = c.centered.FrobeniusNorm2();
  const double fast =
      FrobeniusNormJob(&engine, c.matrix, c.mean, /*efficient=*/true);
  const double simple =
      FrobeniusNormJob(&engine, c.matrix, c.mean, /*efficient=*/false);
  const double tol = 1e-9 * std::max(1.0, reference);
  EXPECT_NEAR(fast, reference, tol);
  EXPECT_NEAR(simple, reference, tol);
}

TEST_P(JobsPropertySweep, YtXJobMatchesDenseReferenceBothModes) {
  const RandomCase c = MakeCase(seed() + 200, sparse_storage());
  Rng rng(seed() + 201);
  const size_t d = 1 + rng.NextUint64Below(4);
  const DenseMatrix cmat =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.3);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(c.mean, cm);

  const DenseMatrix x_ref = linalg::Multiply(c.centered, cm);
  const DenseMatrix xtx_ref = linalg::TransposeMultiply(x_ref, x_ref);
  const DenseMatrix ytx_ref = linalg::TransposeMultiply(c.centered, x_ref);

  for (const EngineMode mode : {EngineMode::kSpark, EngineMode::kMapReduce}) {
    Engine engine(dist::ClusterSpec{}, mode);
    const YtXResult result =
        YtXJob(&engine, c.matrix, c.mean, xm, cm, nullptr, JobToggles{});
    EXPECT_LT(result.xtx.MaxAbsDiff(xtx_ref), 1e-9);
    EXPECT_LT(result.ytx.MaxAbsDiff(ytx_ref), 1e-9);
  }
}

TEST_P(JobsPropertySweep, Ss3JobMatchesTraceIdentity) {
  // ss3 = sum_n Xc_n * C' * Yc_n' == tr(C' * Yc'Xc).
  const RandomCase c = MakeCase(seed() + 300, sparse_storage());
  Rng rng(seed() + 301);
  const size_t d = 1 + rng.NextUint64Below(4);
  const DenseMatrix cmat =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.4);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(c.mean, cm);

  const DenseMatrix x_ref = linalg::Multiply(c.centered, cm);
  const DenseMatrix ytx_ref = linalg::TransposeMultiply(c.centered, x_ref);
  double expected = 0.0;
  for (size_t i = 0; i < cmat.rows(); ++i) {
    for (size_t j = 0; j < d; ++j) expected += cmat(i, j) * ytx_ref(i, j);
  }

  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const double ss3 =
      Ss3Job(&engine, c.matrix, c.mean, xm, cm, cmat, nullptr, JobToggles{});
  EXPECT_NEAR(ss3, expected, 1e-8 * std::max(1.0, std::fabs(expected)));
}

TEST_P(JobsPropertySweep, ReconstructionErrorIsScaleInvariant) {
  // The relative 1-norm error is invariant to scaling the data (same
  // basis; the mean scales with the data).
  const RandomCase c = MakeCase(seed() + 400, sparse_storage());
  Rng rng(seed() + 401);
  const size_t d = 1 + rng.NextUint64Below(3);
  const DenseMatrix basis =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);

  const double error = SampledReconstructionError(c.matrix, basis, c.mean);

  DenseMatrix scaled_dense = c.dense;
  scaled_dense.Scale(5.0);
  DenseVector scaled_mean = c.mean;
  scaled_mean.Scale(5.0);
  const DistMatrix scaled =
      DistMatrix::FromDense(std::move(scaled_dense), 2);
  const double scaled_error =
      SampledReconstructionError(scaled, basis, scaled_mean);
  EXPECT_NEAR(error, scaled_error, 1e-9 * std::max(1.0, error));
}

TEST_P(JobsPropertySweep, PerfectBasisMeansZeroError) {
  // Projecting onto a full orthonormal basis reconstructs exactly.
  const RandomCase c = MakeCase(seed() + 500, sparse_storage());
  const DenseMatrix eye = DenseMatrix::Identity(c.matrix.cols());
  const double error = SampledReconstructionError(c.matrix, eye, c.mean);
  EXPECT_NEAR(error, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, JobsPropertySweep,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Bool()));

// ---- Row-block paths vs the per-row loops ---------------------------------
// The jobs run X, XtX, YtX and ss3's C' * Y' in row blocks (k-chunked
// kernels for dense rows, register-resident per-row kernels for sparse
// ones) and merge the YtX partials on the pool. Their results must equal,
// byte for byte, the per-row loops below (the jobs as they were written
// row by row), for both storage kinds, both engine modes, any thread count
// and any dispatched ISA.

bool BytesEqual(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BytesEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         BytesEqual(a.data(), b.data(), a.size());
}

// X_i = Y_i * CM - Xm for one row.
DenseVector ReferenceXRow(const DistMatrix& y, size_t i, const DenseMatrix& cm,
                          const DenseVector& xm) {
  DenseVector x_row(cm.cols());
  y.RowTimesMatrix(i, cm, &x_row);
  x_row.Subtract(xm);
  return x_row;
}

YtXResult ReferenceYtX(const DistMatrix& y, const DenseVector& ym,
                       const DenseVector& xm, const DenseMatrix& cm) {
  const size_t d = cm.cols();
  const size_t dim = y.cols();
  YtXResult result;
  result.xtx = DenseMatrix(d, d);
  result.ytx = DenseMatrix(dim, d);
  DenseVector xc_sum(d);
  for (const auto& range : y.partitions()) {
    DenseMatrix xtx(d, d);
    DenseMatrix ytx(dim, d);
    DenseVector xc(d);
    for (size_t i = range.begin; i < range.end; ++i) {
      const DenseVector x_row = ReferenceXRow(y, i, cm, xm);
      xc.Add(x_row);
      linalg::kernels::SymRank1Update(x_row.data(), d, xtx.data(), d);
      y.ForEachEntry(i, [&](size_t k, double v) {
        linalg::kernels::AxpyRow(v, x_row.data(), d, ytx.RowPtr(k));
      });
    }
    linalg::kernels::SymMirrorLower(xtx.data(), d, d);
    result.xtx.Add(xtx);
    result.ytx.Add(ytx);
    xc_sum.Add(xc);
  }
  for (size_t k = 0; k < dim; ++k) {
    if (ym[k] == 0.0) continue;
    linalg::kernels::AxpyRow(-ym[k], xc_sum.data(), d, result.ytx.RowPtr(k));
  }
  return result;
}

double ReferenceSs3(const DistMatrix& y, const DenseVector& ym,
                    const DenseVector& xm, const DenseMatrix& cm,
                    const DenseMatrix& c) {
  const size_t d = c.cols();
  DenseVector ctym(d);
  for (size_t k = 0; k < y.cols(); ++k) {
    if (ym[k] == 0.0) continue;
    linalg::kernels::AxpyRow(ym[k], c.RowPtr(k), d, ctym.data());
  }
  double ss3 = 0.0;
  for (const auto& range : y.partitions()) {
    double sum = 0.0;
    for (size_t i = range.begin; i < range.end; ++i) {
      const DenseVector x_row = ReferenceXRow(y, i, cm, xm);
      DenseVector v(d);
      y.ForEachEntry(i, [&](size_t k, double val) {
        linalg::kernels::AxpyRow(val, c.RowPtr(k), d, v.data());
      });
      v.Subtract(ctym);
      sum += x_row.Dot(v);
    }
    ss3 += sum;
  }
  return ss3;
}

struct DenseCase {
  DistMatrix y;
  DenseVector ym;
  DenseMatrix c;
  DenseMatrix cm;
  DenseVector xm;
};

// Y with partitions of more than one row block; C, CM = C * M^-1 and Xm
// as the EM driver forms them. Dense storage carries exact +0.0 / -0.0
// entries; sparse storage keeps about a tenth of the entries, with some
// rows empty.
DenseCase MakeDenseCase(uint64_t seed, size_t rows, size_t cols, size_t d,
                        size_t partitions, bool sparse = false) {
  Rng rng(seed);
  DenseMatrix dense(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const double u = rng.NextDouble();
      if (sparse) {
        if (i % 7 != 3 && u < 0.1) dense(i, j) = 1.0 + rng.NextGaussian();
        continue;
      }
      dense(i, j) = u < 0.1 ? 0.0 : u < 0.15 ? -0.0 : 1.0 + rng.NextGaussian();
    }
  }
  DenseCase c;
  c.ym = linalg::ColumnMeans(dense);
  c.ym[0] = 0.0;  // the driver fix-ups skip zero means
  c.y = sparse ? DistMatrix::FromSparse(SparseMatrix::FromDense(dense),
                                        partitions)
               : DistMatrix::FromDense(std::move(dense), partitions);
  c.c = DenseMatrix::GaussianRandom(cols, d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(c.c, c.c);
  m.AddScaledIdentity(0.3);
  auto minv = linalg::Inverse(m);
  SPCA_CHECK(minv.ok());
  c.cm = linalg::Multiply(c.c, minv.value());
  c.xm = linalg::RowTimesMatrix(c.ym, c.cm);
  return c;
}

struct DenseShape {
  size_t rows, cols, d, partitions;
};

constexpr DenseShape kDenseShapes[] = {
    {70, 37, 3, 2},
    {90, 333, 5, 3},
    {41, 120, 50, 1},
    {100, 400, 100, 4},
    {9, 11, 1, 5},
};

void ExpectJobsMatchPerRowReference(bool sparse) {
  uint64_t seed = sparse ? 8200 : 8000;
  for (const DenseShape& s : kDenseShapes) {
    const DenseCase c =
        MakeDenseCase(++seed, s.rows, s.cols, s.d, s.partitions, sparse);
    const YtXResult ytx_ref = ReferenceYtX(c.y, c.ym, c.xm, c.cm);
    const double ss3_ref = ReferenceSs3(c.y, c.ym, c.xm, c.cm, c.c);
    for (const EngineMode mode : {EngineMode::kSpark, EngineMode::kMapReduce}) {
      SCOPED_TRACE(std::string(sparse ? "sparse" : "dense") + " rows=" +
                   std::to_string(s.rows) + " D=" +
                   std::to_string(s.cols) + " d=" + std::to_string(s.d) +
                   (mode == EngineMode::kSpark ? " spark" : " mapreduce"));
      Engine engine(dist::ClusterSpec{}, mode);
      engine.SetLocalWorkers(3);

      const DenseMatrix x =
          MaterializeXJob(&engine, c.y, c.ym, c.xm, c.cm, JobToggles{});
      for (size_t i = 0; i < c.y.rows(); ++i) {
        const DenseVector x_row = ReferenceXRow(c.y, i, c.cm, c.xm);
        EXPECT_TRUE(BytesEqual(x.RowPtr(i), x_row.data(), s.d))
            << "X row " << i;
      }

      const DenseMatrix* no_x = nullptr;
      for (const DenseMatrix* materialized : {no_x, &x}) {
        for (const bool consolidate : {true, false}) {
          JobToggles toggles;
          toggles.consolidate_jobs = consolidate;
          const YtXResult ytx =
              YtXJob(&engine, c.y, c.ym, c.xm, c.cm, materialized, toggles);
          EXPECT_TRUE(BytesEqual(ytx.ytx, ytx_ref.ytx))
              << "YtX consolidate=" << consolidate;
          EXPECT_TRUE(BytesEqual(ytx.xtx, ytx_ref.xtx))
              << "XtX consolidate=" << consolidate;
        }
        const double ss3 = Ss3Job(&engine, c.y, c.ym, c.xm, c.cm, c.c,
                                  materialized, JobToggles{});
        EXPECT_TRUE(BytesEqual(&ss3, &ss3_ref, 1)) << ss3 << " vs " << ss3_ref;
      }
    }
  }
}

TEST(DenseRowBlockJobsTest, MatchPerRowReferenceBitForBit) {
  ExpectJobsMatchPerRowReference(/*sparse=*/false);
}

TEST(SparseRowBlockJobsTest, MatchPerRowReferenceBitForBit) {
  ExpectJobsMatchPerRowReference(/*sparse=*/true);
}

TEST(DenseRowBlockJobsTest, OneAndFourWorkersAreBitEqual) {
  uint64_t seed = 8100;
  for (const DenseShape& s : kDenseShapes) {
    const DenseCase c =
        MakeDenseCase(++seed, s.rows, s.cols, s.d, s.partitions);
    std::vector<YtXResult> ytx;
    std::vector<double> ss3;
    std::vector<DenseMatrix> x;
    for (const size_t workers : {1u, 4u}) {
      Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
      engine.SetLocalWorkers(workers);
      x.push_back(
          MaterializeXJob(&engine, c.y, c.ym, c.xm, c.cm, JobToggles{}));
      ytx.push_back(
          YtXJob(&engine, c.y, c.ym, c.xm, c.cm, nullptr, JobToggles{}));
      ss3.push_back(
          Ss3Job(&engine, c.y, c.ym, c.xm, c.cm, c.c, nullptr, JobToggles{}));
    }
    EXPECT_TRUE(BytesEqual(x[0], x[1])) << "d=" << s.d;
    EXPECT_TRUE(BytesEqual(ytx[0].ytx, ytx[1].ytx)) << "d=" << s.d;
    EXPECT_TRUE(BytesEqual(ytx[0].xtx, ytx[1].xtx)) << "d=" << s.d;
    EXPECT_TRUE(BytesEqual(&ss3[0], &ss3[1], 1)) << "d=" << s.d;
  }
}

// ---- The YtX workspace -----------------------------------------------------
// The EM driver keeps one D x d YtX partial per partition alive across
// iterations. Reused buffers (dirtied by an earlier call, or of another
// shape) must give the bits of fresh ones, also when faults re-run task
// attempts or launch speculative copies into the same buffer.

TEST(YtXWorkspaceTest, ReusedBuffersGiveFreshAllocationBits) {
  for (const bool sparse : {false, true}) {
    const DenseCase c = MakeDenseCase(8300, 150, 70, 6, 4, sparse);
    const DenseCase other = MakeDenseCase(8301, 150, 70, 9, 4, sparse);
    for (const bool consolidate : {true, false}) {
      JobToggles toggles;
      toggles.consolidate_jobs = consolidate;
      Engine fresh_engine(dist::ClusterSpec{}, EngineMode::kSpark);
      fresh_engine.SetLocalWorkers(1);
      const YtXResult fresh =
          YtXJob(&fresh_engine, c.y, c.ym, c.xm, c.cm, nullptr, toggles);

      DenseMatrix doubled_cm = c.cm;
      doubled_cm.Scale(2.0);
      FaultSpec spec;
      spec.seed = 17;
      spec.task_failure_probability = 0.4;
      spec.straggler_probability = 0.5;
      spec.straggler_slowdown = 6.0;
      spec.speculation.enabled = true;
      for (const size_t workers : {1u, 4u}) {
        for (const bool faulted : {false, true}) {
          SCOPED_TRACE(std::string(sparse ? "sparse" : "dense") +
                       " consolidate=" + std::to_string(consolidate) +
                       " workers=" + std::to_string(workers) +
                       " faulted=" + std::to_string(faulted));
          Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
          engine.SetLocalWorkers(workers);
          if (faulted) engine.SetFaultPlan(FaultPlan(spec));
          YtXWorkspace workspace;
          // Another d first (reallocated), then the same shape with other
          // inputs (dirty buffers of the right shape), then twice as is.
          YtXJob(&engine, other.y, other.ym, other.xm, other.cm, nullptr,
                 toggles, &workspace);
          YtXJob(&engine, c.y, c.ym, c.xm, doubled_cm, nullptr, toggles,
                 &workspace);
          for (int call = 0; call < 2; ++call) {
            const YtXResult reused = YtXJob(&engine, c.y, c.ym, c.xm, c.cm,
                                            nullptr, toggles, &workspace);
            EXPECT_TRUE(BytesEqual(reused.ytx, fresh.ytx)) << "call " << call;
            EXPECT_TRUE(BytesEqual(reused.xtx, fresh.xtx)) << "call " << call;
          }
          ASSERT_EQ(workspace.partials.size(), c.y.num_partitions());
          if (faulted) {
            const obs::Counter* retries =
                engine.registry()->FindCounter("engine.retries.attempts");
            const obs::Counter* copies =
                engine.registry()->FindCounter("engine.speculation.launched");
            ASSERT_NE(retries, nullptr);
            ASSERT_NE(copies, nullptr);
            EXPECT_GT(retries->AsUint64(), 0u);
            EXPECT_GT(copies->AsUint64(), 0u);
          }
        }
      }
    }
  }
}

// ---- Evaluation loop -------------------------------------------------------

// SampledReconstructionError as written element by element: one chain
// mean[k] + B(k, 0) p[0] + ... per reconstructed element.
double ReferenceReconstructionError(const DistMatrix& sample,
                                    const DenseMatrix& components,
                                    const DenseVector& mean) {
  const DenseMatrix basis = linalg::OrthonormalizeColumns(components);
  const size_t d = basis.cols();
  const size_t dim = sample.cols();
  DenseVector mean_projection(d);
  for (size_t k = 0; k < dim; ++k) {
    if (mean[k] == 0.0) continue;
    for (size_t j = 0; j < d; ++j) mean_projection[j] += mean[k] * basis(k, j);
  }
  double error_norm = 0.0;
  double data_norm = 0.0;
  DenseVector projected(d);
  DenseVector reconstructed(dim);
  for (size_t i = 0; i < sample.rows(); ++i) {
    sample.RowTimesMatrix(i, basis, &projected);
    projected.Subtract(mean_projection);
    for (size_t k = 0; k < dim; ++k) {
      double value = mean[k];
      for (size_t j = 0; j < d; ++j) value += basis(k, j) * projected[j];
      reconstructed[k] = value;
    }
    double absent = 0.0;
    for (size_t k = 0; k < dim; ++k) absent += std::fabs(reconstructed[k]);
    double present = 0.0;
    double row_norm = 0.0;
    sample.ForEachEntry(i, [&](size_t k, double v) {
      present += std::fabs(v - reconstructed[k]) - std::fabs(reconstructed[k]);
      row_norm += std::fabs(v);
    });
    error_norm += absent + present;
    data_norm += row_norm;
  }
  return data_norm == 0.0 ? 0.0 : error_norm / data_norm;
}

TEST(ReconstructionErrorTest, ReconstructRowMatchesPerElementChains) {
  Rng rng(8500);
  for (const size_t dim : {1u, 3u, 8u, 13u, 17u, 45u, 64u, 101u}) {
    for (const size_t d : {1u, 3u, 10u}) {
      const DenseMatrix basis = DenseMatrix::GaussianRandom(dim, d, &rng);
      const DenseVector mean = linalg::ColumnMeans(
          DenseMatrix::GaussianRandom(3, dim, &rng));
      DenseVector projected(d);
      for (size_t j = 0; j < d; ++j) projected[j] = rng.NextGaussian();
      DenseVector out(dim);
      ReconstructRow(basis.Transpose(), mean, projected, &out);
      for (size_t k = 0; k < dim; ++k) {
        double value = mean[k];
        for (size_t j = 0; j < d; ++j) value += basis(k, j) * projected[j];
        EXPECT_TRUE(BytesEqual(&out[k], &value, 1))
            << "D=" << dim << " d=" << d << " element " << k;
      }
    }
  }
}

TEST(ReconstructionErrorTest, MatchesPerElementReferenceBitForBit) {
  uint64_t seed = 8400;
  for (const bool sparse : {false, true}) {
    for (const size_t dim : {3u, 8u, 13u, 17u, 45u, 64u, 101u}) {
      for (const size_t d : {1u, 3u, 10u}) {
        if (d > dim) continue;
        const DenseCase c = MakeDenseCase(++seed, 40, dim, d, 2, sparse);
        const double error = SampledReconstructionError(c.y, c.c, c.ym);
        const double reference = ReferenceReconstructionError(c.y, c.c, c.ym);
        EXPECT_TRUE(BytesEqual(&error, &reference, 1))
            << (sparse ? "sparse" : "dense") << " D=" << dim << " d=" << d
            << ": " << error << " vs " << reference;
      }
    }
  }
}

// ---- Engine-mode invariants -------------------------------------------------

TEST(JobsModeTest, SparkAndMapReduceProduceIdenticalNumbers) {
  for (int trial = 0; trial < 5; ++trial) {
    const RandomCase c = MakeCase(6000 + trial, trial % 2 == 0);
    Engine spark(dist::ClusterSpec{}, EngineMode::kSpark);
    Engine mapreduce(dist::ClusterSpec{}, EngineMode::kMapReduce);
    const DenseVector m1 = MeanJob(&spark, c.matrix);
    const DenseVector m2 = MeanJob(&mapreduce, c.matrix);
    for (size_t j = 0; j < m1.size(); ++j) EXPECT_EQ(m1[j], m2[j]);
    const double f1 = FrobeniusNormJob(&spark, c.matrix, m1, true);
    const double f2 = FrobeniusNormJob(&mapreduce, c.matrix, m2, true);
    EXPECT_EQ(f1, f2);
    // Costs differ: MapReduce pays launch + DFS round trips.
    EXPECT_GT(mapreduce.SimulatedSeconds(), spark.SimulatedSeconds());
  }
}

TEST(JobsModeTest, IntermediateDataRoutingConvention) {
  // MapReduce: partials are intermediate (DFS); Spark: partials are
  // accumulator results. Scalars are results in both modes.
  const RandomCase c = MakeCase(7000, /*sparse_storage=*/true);
  Rng rng(7001);
  const size_t d = 3;
  const DenseMatrix cmat =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.3);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(c.mean, cm);

  Engine spark(dist::ClusterSpec{}, EngineMode::kSpark);
  Engine mapreduce(dist::ClusterSpec{}, EngineMode::kMapReduce);
  YtXJob(&spark, c.matrix, c.mean, xm, cm, nullptr, JobToggles{});
  YtXJob(&mapreduce, c.matrix, c.mean, xm, cm, nullptr, JobToggles{});
  EXPECT_EQ(spark.stats().intermediate_bytes, 0u);
  EXPECT_GT(spark.stats().result_bytes, 0u);
  EXPECT_GT(mapreduce.stats().intermediate_bytes, 0u);
}

TEST(JobsModeTest, SparseAccumulatorBytesUndercutDensePartials) {
  // On very sparse data the Spark accumulator passes only the touched
  // rows of each YtX partial (Section 4.2): the accounted bytes must be
  // far below the dense D x d partial a MapReduce mapper writes.
  const size_t rows = 60;
  const size_t cols = 500;
  SparseMatrix sparse(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    // Two non-zeros per row, confined to the first 20 columns.
    const uint32_t a = static_cast<uint32_t>(i % 10);
    sparse.AppendRow(i, std::vector<linalg::SparseEntry>{{a, 1.0},
                                                         {a + 10, 1.0}});
  }
  const DistMatrix matrix = DistMatrix::FromSparse(std::move(sparse), 2);
  const DenseVector mean = matrix.ColumnMeans();

  Rng rng(7100);
  const size_t d = 4;
  const DenseMatrix cmat = DenseMatrix::GaussianRandom(cols, d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.3);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(mean, cm);

  Engine spark(dist::ClusterSpec{}, EngineMode::kSpark);
  Engine mapreduce(dist::ClusterSpec{}, EngineMode::kMapReduce);
  YtXJob(&spark, matrix, mean, xm, cm, nullptr, JobToggles{});
  YtXJob(&mapreduce, matrix, mean, xm, cm, nullptr, JobToggles{});
  // Only 20 of 500 rows of the partial are touched: the sparse-aware
  // Spark accounting must be well under half of the dense MapReduce one.
  EXPECT_LT(2 * spark.stats().result_bytes,
            mapreduce.stats().intermediate_bytes);
}

}  // namespace
}  // namespace spca::core
