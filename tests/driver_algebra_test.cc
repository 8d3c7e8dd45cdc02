// Exactness of the EM driver's dense algebra.
//
// Each routine the driver step runs (SolveRight and the LU behind it,
// Gram / TransposeMultiply(a, a), Multiply and their row-range pieces,
// OrthonormalizeColumns) is compared with memcmp against a reference loop
// kept in this file: the column-at-a-time textbook code these routines
// replaced, or for the kernel-backed products the whole-matrix kernel loop.
// The references are compiled with -ffp-contract=off (tests/CMakeLists.txt)
// so they round every multiply and subtract on every platform. The tier-1
// run repeats the whole binary under SPCA_KERNEL_ISA=scalar, so both the
// dispatched ISA and the exact scalar kernels are covered.
//
// SpcaDriverParallelTest then checks that splitting those products across
// the engine's worker pool changes no bit of a fit and none of its
// accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"

namespace spca {
namespace {

using linalg::DenseMatrix;

bool BitEqual(const DenseMatrix& a, const DenseMatrix& b) {
  // memcmp must not see the null data() of an empty matrix.
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Random matrix with roughly `zero_fraction` exact zeros.
DenseMatrix RandomMatrix(size_t rows, size_t cols, Rng* rng,
                         double zero_fraction = 0.0) {
  DenseMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m(i, j) = rng->NextDouble() < zero_fraction ? 0.0 : rng->NextGaussian();
    }
  }
  return m;
}

/// Zero diagonal: partial pivoting must swap rows at the first step (and
/// usually at later ones).
DenseMatrix PivotForcingMatrix(size_t d, Rng* rng) {
  DenseMatrix a = RandomMatrix(d, d, rng);
  for (size_t i = 0; i < d; ++i) a(i, i) = 0.0;
  if (d == 1) a(0, 0) = 0.5;
  return a;
}

// ---- References -----------------------------------------------------------

/// The column-at-a-time LU solve of A * X = B.
DenseMatrix NaiveSolveLu(const DenseMatrix& a, const DenseMatrix& b) {
  const size_t n = a.rows();
  DenseMatrix lu = a;
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t k = 0; k < n; ++k) {
    size_t pivot = k;
    double max_abs = std::fabs(lu(k, k));
    for (size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > max_abs) {
        max_abs = v;
        pivot = i;
      }
    }
    if (pivot != k) {
      for (size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(pivot, j));
      std::swap(perm[k], perm[pivot]);
    }
    for (size_t i = k + 1; i < n; ++i) {
      lu(i, k) /= lu(k, k);
      const double lik = lu(i, k);
      if (lik == 0.0) continue;
      for (size_t j = k + 1; j < n; ++j) lu(i, j) -= lik * lu(k, j);
    }
  }
  DenseMatrix x(n, b.cols());
  for (size_t col = 0; col < b.cols(); ++col) {
    for (size_t i = 0; i < n; ++i) {
      double sum = b(perm[i], col);
      for (size_t k = 0; k < i; ++k) sum -= lu(i, k) * x(k, col);
      x(i, col) = sum;
    }
    for (size_t ii = n; ii-- > 0;) {
      double sum = x(ii, col);
      for (size_t k = ii + 1; k < n; ++k) sum -= lu(ii, k) * x(k, col);
      x(ii, col) = sum / lu(ii, ii);
    }
  }
  return x;
}

/// X * A = B through the transposed column solve.
DenseMatrix NaiveSolveRight(const DenseMatrix& b, const DenseMatrix& a) {
  return NaiveSolveLu(a.Transpose(), b.Transpose()).Transpose();
}

/// A' * B as a full-rectangle rank-1 update per row.
DenseMatrix RectangleTransposeMultiply(const DenseMatrix& a,
                                       const DenseMatrix& b) {
  DenseMatrix c(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    linalg::kernels::Rank1Update(a.RowPtr(r), a.cols(), b.RowPtr(r), b.cols(),
                                 c.data(), c.row_stride());
  }
  return c;
}

/// A * B one kernel row at a time.
DenseMatrix RowLoopMultiply(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    linalg::kernels::RowGemm(a.RowPtr(i), a.cols(), b.data(), b.row_stride(),
                             b.cols(), c.RowPtr(i));
  }
  return c;
}

/// Two-pass modified Gram-Schmidt walking the columns of a row-major matrix.
DenseMatrix NaiveOrthonormalizeColumns(const DenseMatrix& a) {
  const size_t n = a.rows();
  const size_t m = a.cols();
  DenseMatrix q = a;
  for (size_t j = 0; j < m; ++j) {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t k = 0; k < j; ++k) {
        double dot = 0.0;
        for (size_t i = 0; i < n; ++i) dot += q(i, k) * q(i, j);
        for (size_t i = 0; i < n; ++i) q(i, j) -= dot * q(i, k);
      }
    }
    double norm = 0.0;
    for (size_t i = 0; i < n; ++i) norm += q(i, j) * q(i, j);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      for (size_t i = 0; i < n; ++i) q(i, j) = 0.0;
    } else {
      for (size_t i = 0; i < n; ++i) q(i, j) /= norm;
    }
  }
  return q;
}

// ---- Shapes ---------------------------------------------------------------

constexpr size_t kRows[] = {0, 1, 7, 8, 9, 4001};
constexpr size_t kDims[] = {1, 3, 5, 50, 100};

std::string Shape(size_t rows, size_t d) {
  return std::to_string(rows) + "x" + std::to_string(d);
}

/// Three uneven row blocks covering [0, rows).
std::vector<size_t> UnevenBlocks(size_t rows) {
  return {0, rows / 5, rows / 5 + (rows + 1) / 2, rows};
}

TEST(DriverAlgebraExactTest, SolveRightMatchesColumnSolve) {
  Rng rng(1301);
  for (size_t d : kDims) {
    for (bool pivot_forcing : {false, true}) {
      const DenseMatrix a = pivot_forcing ? PivotForcingMatrix(d, &rng)
                                          : RandomMatrix(d, d, &rng);
      for (size_t rows : kRows) {
        const std::string where =
            Shape(rows, d) + (pivot_forcing ? " pivot-forcing" : "");
        const DenseMatrix b = RandomMatrix(rows, d, &rng);
        auto solved = linalg::SolveRight(b, a);
        ASSERT_TRUE(solved.ok()) << where;
        const DenseMatrix reference = NaiveSolveRight(b, a);
        EXPECT_TRUE(BitEqual(solved.value(), reference)) << where;

        // The driver's path: factor once, substitute row blocks.
        auto factors = linalg::LuFactor(a.Transpose());
        ASSERT_TRUE(factors.ok()) << where;
        DenseMatrix blocked = b;
        const auto blocks = UnevenBlocks(rows);
        for (size_t p = 0; p + 1 < blocks.size(); ++p) {
          linalg::LuSolveRows(factors.value(), &blocked, blocks[p],
                              blocks[p + 1]);
        }
        EXPECT_TRUE(BitEqual(blocked, reference)) << where << " blocked";
      }
    }
  }
}

TEST(DriverAlgebraExactTest, SolveLuAndInverseMatchColumnSolve) {
  Rng rng(1302);
  for (size_t d : kDims) {
    for (bool pivot_forcing : {false, true}) {
      const DenseMatrix a = pivot_forcing ? PivotForcingMatrix(d, &rng)
                                          : RandomMatrix(d, d, &rng);
      const DenseMatrix b = RandomMatrix(d, 7, &rng);
      auto solved = linalg::SolveLu(a, b);
      ASSERT_TRUE(solved.ok());
      EXPECT_TRUE(BitEqual(solved.value(), NaiveSolveLu(a, b))) << d;
      auto inverse = linalg::Inverse(a);
      ASSERT_TRUE(inverse.ok());
      EXPECT_TRUE(BitEqual(inverse.value(),
                           NaiveSolveLu(a, DenseMatrix::Identity(d))))
          << d;
    }
  }
}

TEST(DriverAlgebraExactTest, SingularAndMisshapenInputsFail) {
  EXPECT_FALSE(linalg::LuFactor(DenseMatrix(3, 3)).ok());
  EXPECT_FALSE(linalg::LuFactor(DenseMatrix(3, 2)).ok());
  EXPECT_FALSE(linalg::SolveRight(DenseMatrix(4, 3), DenseMatrix(3, 3)).ok());
  EXPECT_FALSE(linalg::SolveRight(DenseMatrix(4, 2), DenseMatrix(3, 3)).ok());
  EXPECT_FALSE(
      linalg::SolveLu(DenseMatrix::Identity(3), DenseMatrix(2, 1)).ok());
}

TEST(DriverAlgebraExactTest, GramMatchesRectangleProduct) {
  Rng rng(1303);
  for (size_t d : kDims) {
    for (size_t rows : kRows) {
      // Dense, and zero-heavy like a soft-thresholded spca_sparse C.
      for (double zeros : {0.0, 0.7}) {
        const std::string where =
            Shape(rows, d) + " zeros " + std::to_string(zeros);
        const DenseMatrix c = RandomMatrix(rows, d, &rng, zeros);
        const DenseMatrix reference = RectangleTransposeMultiply(c, c);
        EXPECT_TRUE(BitEqual(linalg::Gram(c), reference)) << where;
        EXPECT_TRUE(BitEqual(linalg::TransposeMultiply(c, c), reference))
            << where;
        for (size_t parts : {2, 3, 4, 7}) {
          const auto blocks = linalg::GramRowBlocks(d, parts);
          ASSERT_EQ(blocks.size(), parts + 1);
          DenseMatrix blocked(d, d);
          for (size_t p = 0; p < parts; ++p) {
            linalg::GramRows(c, blocks[p], blocks[p + 1], &blocked);
          }
          linalg::MirrorUpper(&blocked);
          EXPECT_TRUE(BitEqual(blocked, reference))
              << where << " parts " << parts;
        }
      }
    }
  }
}

TEST(DriverAlgebraExactTest, GramRowBlocksCoverTheTriangleEvenly) {
  for (size_t d : {1, 2, 5, 50, 100, 257}) {
    for (size_t parts : {1, 2, 4, 8}) {
      const auto blocks = linalg::GramRowBlocks(d, parts);
      ASSERT_EQ(blocks.size(), parts + 1);
      EXPECT_EQ(blocks.front(), 0u);
      EXPECT_EQ(blocks.back(), d);
      const double total = 0.5 * static_cast<double>(d) * (d + 1);
      for (size_t p = 0; p < parts; ++p) {
        ASSERT_LE(blocks[p], blocks[p + 1]);
        double work = 0.0;
        for (size_t r = blocks[p]; r < blocks[p + 1]; ++r) work += d - r;
        // No block exceeds its share by more than one triangle row.
        EXPECT_LE(work, total / parts + d) << d << " " << parts;
      }
    }
  }
}

TEST(DriverAlgebraExactTest, MultiplyRowBlocksMatchRowLoop) {
  Rng rng(1304);
  for (size_t d : kDims) {
    const DenseMatrix m = RandomMatrix(d, d, &rng);
    for (size_t rows : kRows) {
      const DenseMatrix c = RandomMatrix(rows, d, &rng, 0.3);
      const DenseMatrix reference = RowLoopMultiply(c, m);
      EXPECT_TRUE(BitEqual(linalg::Multiply(c, m), reference))
          << Shape(rows, d);
      DenseMatrix blocked(rows, d);
      const auto blocks = UnevenBlocks(rows);
      for (size_t p = 0; p + 1 < blocks.size(); ++p) {
        linalg::MultiplyRows(c, m, blocks[p], blocks[p + 1], &blocked);
      }
      EXPECT_TRUE(BitEqual(blocked, reference)) << Shape(rows, d);
    }
  }
}

TEST(DriverAlgebraExactTest, OrthonormalizeColumnsMatchesColumnWalk) {
  Rng rng(1305);
  for (size_t d : kDims) {
    for (size_t rows : kRows) {
      if (rows < d) continue;  // a basis needs rows >= columns
      const DenseMatrix a = RandomMatrix(rows, d, &rng);
      EXPECT_TRUE(BitEqual(linalg::OrthonormalizeColumns(a),
                           NaiveOrthonormalizeColumns(a)))
          << Shape(rows, d);
    }
  }
  // A repeated column is numerically dependent: it must take the
  // norm < 1e-12 branch and come back as zeros.
  DenseMatrix a = RandomMatrix(40, 4, &rng);
  for (size_t i = 0; i < a.rows(); ++i) a(i, 2) = a(i, 0);
  const DenseMatrix q = linalg::OrthonormalizeColumns(a);
  EXPECT_TRUE(BitEqual(q, NaiveOrthonormalizeColumns(a)));
  for (size_t i = 0; i < q.rows(); ++i) EXPECT_EQ(q(i, 2), 0.0) << i;
}

// ---- Pool-split driver step -----------------------------------------------

dist::DistMatrix DenseInput(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix y(rows, cols);
  // A few strong directions plus noise, so EM has something to find.
  const DenseMatrix basis = RandomMatrix(4, cols, &rng);
  for (size_t i = 0; i < rows; ++i) {
    double* row = y.RowPtr(i);
    for (size_t k = 0; k < 4; ++k) {
      const double weight = 3.0 * rng.NextGaussian();
      for (size_t j = 0; j < cols; ++j) row[j] += weight * basis(k, j);
    }
    for (size_t j = 0; j < cols; ++j) row[j] += 0.1 * rng.NextGaussian();
  }
  return dist::DistMatrix::FromDense(std::move(y), 8);
}

struct FitOutcome {
  core::PcaModel model;
  dist::CommStats stats;
  size_t job_traces = 0;
  double simulated_seconds = 0.0;
};

FitOutcome FitWithWorkers(const dist::DistMatrix& y, size_t workers,
                          double l1_threshold) {
  dist::Engine engine(dist::ClusterSpec{}, dist::EngineMode::kSpark);
  engine.SetLocalWorkers(workers);
  core::SpcaOptions options;
  // D * d * d = 1024 * 16 * 16 is large enough for a four-way driver split.
  options.num_components = 16;
  options.max_iterations = 4;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  options.l1_threshold = l1_threshold;
  auto fit = core::Spca(&engine, options).Solve(y);
  SPCA_CHECK(fit.ok());
  FitOutcome outcome;
  outcome.model = std::move(fit.value().model);
  outcome.stats = engine.stats();
  outcome.job_traces = engine.traces().size();
  outcome.simulated_seconds = engine.SimulatedSeconds();
  return outcome;
}

TEST(SpcaDriverParallelTest, PoolSplitDriverStepIsBitIdentical) {
  const dist::DistMatrix y = DenseInput(96, 1024, 1306);
  for (double l1_threshold : {0.0, 0.05}) {
    const FitOutcome inline_fit = FitWithWorkers(y, 1, l1_threshold);
    const FitOutcome pooled_fit = FitWithWorkers(y, 4, l1_threshold);
    const std::string where = "l1_threshold " + std::to_string(l1_threshold);
    EXPECT_TRUE(
        BitEqual(inline_fit.model.components, pooled_fit.model.components))
        << where;
    EXPECT_EQ(std::memcmp(&inline_fit.model.noise_variance,
                          &pooled_fit.model.noise_variance, sizeof(double)),
              0)
        << where;
    EXPECT_EQ(inline_fit.stats.jobs_launched, pooled_fit.stats.jobs_launched)
        << where;
    EXPECT_EQ(inline_fit.stats.task_flops, pooled_fit.stats.task_flops)
        << where;
    EXPECT_EQ(inline_fit.simulated_seconds, pooled_fit.simulated_seconds)
        << where;
    EXPECT_EQ(inline_fit.job_traces, pooled_fit.job_traces) << where;
  }
}

/// Every engine.pool.* gauge and counter with its value.
std::vector<std::pair<std::string, double>> PoolMetrics(
    const obs::Registry& registry) {
  std::vector<std::pair<std::string, double>> out;
  for (const std::string& name : registry.GaugeNames()) {
    if (name.rfind("engine.pool.", 0) == 0) {
      out.emplace_back(name, registry.FindGauge(name)->value());
    }
  }
  for (const std::string& name : registry.CounterNames()) {
    if (name.rfind("engine.pool.", 0) == 0) {
      out.emplace_back(name, registry.FindCounter(name)->value());
    }
  }
  return out;
}

TEST(SpcaDriverParallelTest, DriverParallelForRunsEveryPartOnce) {
  const dist::DistMatrix m = DenseInput(16, 4, 7);
  for (size_t workers : {1, 3}) {
    dist::Engine engine(dist::ClusterSpec{}, dist::EngineMode::kSpark);
    engine.SetLocalWorkers(workers);
    std::vector<int> hits(37, 0);
    // No job has started the pool yet: the parts run inline and no pool
    // metric appears.
    engine.DriverParallelFor(hits.size(), [&](size_t p) { ++hits[p]; });
    for (size_t p = 0; p < hits.size(); ++p) EXPECT_EQ(hits[p], 1) << p;
    EXPECT_TRUE(PoolMetrics(*engine.registry()).empty());

    // Once a job has run, driver parts share its pool and leave the job
    // accounting and the pool metrics as they were.
    engine.RunMap<int>("test.job", m,
                       [](const dist::RowRange&, dist::TaskContext*) {
                         return 0;
                       });
    const auto pool_metrics = PoolMetrics(*engine.registry());
    const size_t traces = engine.traces().size();
    const double sim_s = engine.SimulatedSeconds();
    std::vector<int> again(37, 0);
    for (int round = 0; round < 3; ++round) {
      engine.DriverParallelFor(again.size(), [&](size_t p) { ++again[p]; });
    }
    for (size_t p = 0; p < again.size(); ++p) EXPECT_EQ(again[p], 3) << p;
    engine.DriverParallelFor(0, [](size_t) { FAIL() << "no part to run"; });
    EXPECT_EQ(PoolMetrics(*engine.registry()), pool_metrics);
    EXPECT_EQ(engine.traces().size(), traces);
    EXPECT_EQ(engine.stats().jobs_launched, 1u);
    EXPECT_EQ(engine.SimulatedSeconds(), sim_s);
  }
}

}  // namespace
}  // namespace spca
