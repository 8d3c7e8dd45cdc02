// Micro-benchmarks for the linear-algebra kernels underlying every PCA
// method in the repository: dense GEMM variants, the broadcast-style
// row-times-matrix product (Section 3.3's in-memory multiplication),
// sparse row products, the EM task step per row and in row blocks,
// the EM driver step's D x d products (SolveRight, Gram,
// OrthonormalizeColumns), and the small-matrix decompositions the drivers
// run (Cholesky solve, symmetric eigen, SVD).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "linalg/eigen_sym.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "linalg/svd.h"
#include "workload/synthetic.h"

namespace spca::linalg {
namespace {

DenseMatrix Random(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::GaussianRandom(rows, cols, &rng);
}

// ---- Naive references: the pre-kernel-layer scalar loops ---------------
//
// Verbatim copies of the element-indexed triple loops the kernel layer
// replaced, kept here so the naive-vs-kernel pairs below measure the
// before/after of the rewrite on the exact hot-loop shapes (tracked in
// BENCH_kernels.json via tools/bench_kernels.sh).

DenseVector NaiveSparseRowTimesMatrix(const SparseRowView& row,
                                      const DenseMatrix& b) {
  DenseVector out(b.cols());
  for (const auto& e : row) {
    for (size_t j = 0; j < b.cols(); ++j) out[j] += e.value * b(e.index, j);
  }
  return out;
}

void NaiveRank1Update(const DenseVector& a, const DenseVector& b,
                      DenseMatrix* out) {
  for (size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (size_t j = 0; j < b.size(); ++j) (*out)(i, j) += ai * b[j];
  }
}

void NaiveXtXUpdate(const DenseVector& x, DenseMatrix* xtx) {
  const size_t d = x.size();
  for (size_t a = 0; a < d; ++a) {
    const double xa = x[a];
    for (size_t b = 0; b < d; ++b) (*xtx)(a, b) += xa * x[b];
  }
}

DenseVector NaiveRowTimesMatrix(const DenseVector& row,
                                const DenseMatrix& b) {
  DenseVector out(b.cols());
  for (size_t k = 0; k < b.rows(); ++k) {
    const double v = row[k];
    if (v == 0.0) continue;
    for (size_t j = 0; j < b.cols(); ++j) out[j] += v * b(k, j);
  }
  return out;
}

SparseVector MakeSparseRow(size_t dim, size_t nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseEntry> entries;
  for (size_t k = 0; k < nnz; ++k) {
    entries.push_back({static_cast<uint32_t>(k * dim / nnz),
                       rng.NextGaussian()});
  }
  return SparseVector(std::move(entries), dim);
}

// ---- Naive-vs-kernel pairs (state.range(0) = nnz or d) -----------------

void BM_NaiveSparseRowDense(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const size_t dim = 16000, d = 50;
  const DenseMatrix b = Random(dim, d, 7);
  const SparseVector row = MakeSparseRow(dim, nnz, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveSparseRowTimesMatrix(row.View(), b));
  }
  state.SetItemsProcessed(state.iterations() * nnz * d);
}
BENCHMARK(BM_NaiveSparseRowDense)->Arg(10)->Arg(100);

void BM_KernelSparseRowDense(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const size_t dim = 16000, d = 50;
  const DenseMatrix b = Random(dim, d, 7);
  const SparseVector row = MakeSparseRow(dim, nnz, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SparseRowTimesMatrix(row.View(), b));
  }
  state.SetItemsProcessed(state.iterations() * nnz * d);
}
BENCHMARK(BM_KernelSparseRowDense)->Arg(10)->Arg(100);

void BM_NaiveRank1Update(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(22);
  DenseVector x(d);
  for (size_t i = 0; i < d; ++i) x[i] = rng.NextGaussian();
  DenseMatrix xtx(d, d);
  for (auto _ : state) {
    NaiveXtXUpdate(x, &xtx);
    benchmark::DoNotOptimize(xtx.data());
  }
  state.SetItemsProcessed(state.iterations() * d * d);
}
BENCHMARK(BM_NaiveRank1Update)->Arg(10)->Arg(50)->Arg(100);

// The kernel-layer XtX update: upper triangle per row, one mirror per
// partition (amortized here over the rows-per-partition of the paper's
// workloads; the mirror is outside the per-row loop in RunYtXPartition).
void BM_KernelRank1Update(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRowsPerMirror = 128;
  Rng rng(22);
  DenseVector x(d);
  for (size_t i = 0; i < d; ++i) x[i] = rng.NextGaussian();
  DenseMatrix xtx(d, d);
  size_t rows = 0;
  for (auto _ : state) {
    kernels::SymRank1Update(x.data(), d, xtx.data(), xtx.row_stride());
    if (++rows == kRowsPerMirror) {
      kernels::SymMirrorLower(xtx.data(), d, xtx.row_stride());
      rows = 0;
    }
    benchmark::DoNotOptimize(xtx.data());
  }
  state.SetItemsProcessed(state.iterations() * d * d);
}
BENCHMARK(BM_KernelRank1Update)->Arg(10)->Arg(50)->Arg(100);

void BM_NaiveDenseRowGemm(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 5);
  Rng rng(6);
  DenseVector row(dim);
  for (size_t i = 0; i < dim; ++i) row[i] = rng.NextGaussian();
  for (auto _ : state) benchmark::DoNotOptimize(NaiveRowTimesMatrix(row, b));
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_NaiveDenseRowGemm)->Arg(2000);

void BM_KernelDenseRowGemm(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 5);
  Rng rng(6);
  DenseVector row(dim);
  for (size_t i = 0; i < dim; ++i) row[i] = rng.NextGaussian();
  for (auto _ : state) benchmark::DoNotOptimize(RowTimesMatrix(row, b));
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_KernelDenseRowGemm)->Arg(2000);

void BM_NaiveDenseOuterProduct(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(23);
  DenseVector a(dim), b(50);
  for (size_t i = 0; i < dim; ++i) a[i] = rng.NextGaussian();
  for (size_t i = 0; i < 50; ++i) b[i] = rng.NextGaussian();
  DenseMatrix out(dim, 50);
  for (auto _ : state) {
    NaiveRank1Update(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_NaiveDenseOuterProduct)->Arg(2000);

void BM_KernelDenseOuterProduct(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(23);
  DenseVector a(dim), b(50);
  for (size_t i = 0; i < dim; ++i) a[i] = rng.NextGaussian();
  for (size_t i = 0; i < 50; ++i) b[i] = rng.NextGaussian();
  DenseMatrix out(dim, 50);
  for (auto _ : state) {
    AddOuterProduct(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_KernelDenseOuterProduct)->Arg(2000);

// One partition's dense EM task step at the fit_spectra shape (22 rows of
// a 8000-wide Y against the 8000 x 100 CM, C and YtX partial): per-row
// kernels versus the k-chunked row-block kernels that replaced them in
// core/jobs.cc. Args: rows, D, d.
struct TaskShape {
  explicit TaskShape(const benchmark::State& state)
      : y(Random(state.range(0), state.range(1), 20)),
        b(Random(state.range(1), state.range(2), 21)),
        x(Random(state.range(0), state.range(2), 22)),
        out(state.range(0), state.range(2)),
        partial(state.range(1), state.range(2)) {}
  DenseMatrix y, b, x, out, partial;
};

void BM_KernelPerRowGemm(benchmark::State& state) {
  TaskShape t(state);
  for (auto _ : state) {
    for (size_t r = 0; r < t.y.rows(); ++r) {
      kernels::RowGemm(t.y.RowPtr(r), t.y.cols(), t.b.data(),
                       t.b.row_stride(), t.b.cols(), t.out.RowPtr(r));
    }
    benchmark::DoNotOptimize(t.out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelPerRowGemm)->Args({22, 8000, 100});

void BM_KernelBlockGemm(benchmark::State& state) {
  TaskShape t(state);
  for (auto _ : state) {
    kernels::BlockGemm(t.y.data(), t.y.row_stride(), t.y.rows(), t.y.cols(),
                       t.b.data(), t.b.row_stride(), t.b.cols(), t.out.data(),
                       t.out.row_stride(), kernels::GemmOrder::kRowGemm);
    benchmark::DoNotOptimize(t.out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelBlockGemm)->Args({22, 8000, 100});

void BM_KernelPerRowRankUpdate(benchmark::State& state) {
  TaskShape t(state);
  for (auto _ : state) {
    for (size_t r = 0; r < t.y.rows(); ++r) {
      for (size_t k = 0; k < t.y.cols(); ++k) {
        kernels::AxpyRow(t.y(r, k), t.x.RowPtr(r), t.x.cols(),
                         t.partial.RowPtr(k));
      }
    }
    benchmark::DoNotOptimize(t.partial.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelPerRowRankUpdate)->Args({22, 8000, 100});

void BM_KernelBlockRankUpdate(benchmark::State& state) {
  TaskShape t(state);
  for (auto _ : state) {
    kernels::BlockRankUpdate(t.y.data(), t.y.row_stride(), t.y.rows(),
                             t.y.cols(), t.x.data(), t.x.row_stride(),
                             t.x.cols(), t.partial.data(),
                             t.partial.row_stride());
    benchmark::DoNotOptimize(t.partial.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelBlockRankUpdate)->Args({22, 8000, 100});

// One 32-row block's XtX update (the upper triangle of X_blk' X_blk): one
// SymRank1Update per row versus the register-tiled BlockSymRankUpdate.
// Args: rows, d.
void BM_KernelPerRowXtX(benchmark::State& state) {
  const DenseMatrix x = Random(state.range(0), state.range(1), 23);
  DenseMatrix xtx(x.cols(), x.cols());
  for (auto _ : state) {
    for (size_t r = 0; r < x.rows(); ++r) {
      kernels::SymRank1Update(x.RowPtr(r), x.cols(), xtx.data(),
                              xtx.row_stride());
    }
    benchmark::DoNotOptimize(xtx.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelPerRowXtX)->Args({32, 50})->Args({32, 100});

void BM_KernelBlockXtX(benchmark::State& state) {
  const DenseMatrix x = Random(state.range(0), state.range(1), 23);
  DenseMatrix xtx(x.cols(), x.cols());
  for (auto _ : state) {
    kernels::BlockSymRankUpdate(x.data(), x.row_stride(), x.rows(), x.cols(),
                                xtx.data(), xtx.row_stride());
    benchmark::DoNotOptimize(xtx.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelBlockXtX)->Args({32, 50})->Args({32, 100});

// ss3's C' * Y_i' for a 32-row block of Tweets-shape sparse rows (about 11
// stored entries of a 4000-wide row) against the 4000 x 50 C: AxpyRow per
// entry into each output row versus SparseRowAxpy, which holds the row's
// stripes in registers across its entries. Args: rows, D, d.
struct SparseCtYShape {
  explicit SparseCtYShape(const benchmark::State& state)
      : c(Random(state.range(1), state.range(2), 24)),
        v(state.range(0), state.range(2)) {
    Rng rng(25);
    for (size_t r = 0; r < v.rows(); ++r) {
      std::vector<SparseEntry> row;
      for (int e = 0; e < 11; ++e) {
        row.push_back({static_cast<uint32_t>(rng.NextUint64Below(c.rows())),
                       1.0});
      }
      rows.push_back(std::move(row));
    }
  }
  DenseMatrix c, v;
  std::vector<std::vector<SparseEntry>> rows;
};

void BM_KernelPerEntrySparseCtY(benchmark::State& state) {
  SparseCtYShape t(state);
  for (auto _ : state) {
    t.v.SetZero();
    for (size_t r = 0; r < t.rows.size(); ++r) {
      for (const SparseEntry& e : t.rows[r]) {
        kernels::AxpyRow(e.value, t.c.RowPtr(e.index), t.c.cols(),
                         t.v.RowPtr(r));
      }
    }
    benchmark::DoNotOptimize(t.v.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelPerEntrySparseCtY)->Args({32, 4000, 50});

void BM_KernelBlockSparseCtY(benchmark::State& state) {
  SparseCtYShape t(state);
  for (auto _ : state) {
    t.v.SetZero();
    for (size_t r = 0; r < t.rows.size(); ++r) {
      kernels::SparseRowAxpy(t.rows[r].data(), t.rows[r].size(), t.c.data(),
                             t.c.row_stride(), t.c.cols(), t.v.RowPtr(r));
    }
    benchmark::DoNotOptimize(t.v.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelBlockSparseCtY)->Args({32, 4000, 50});

void BM_Multiply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(n, n, 1);
  const DenseMatrix b = Random(n, n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(Multiply(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Multiply)->Arg(32)->Arg(64)->Arg(128);

void BM_TransposeMultiply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(n, 50, 3);
  const DenseMatrix b = Random(n, 50, 4);
  for (auto _ : state) benchmark::DoNotOptimize(TransposeMultiply(a, b));
}
BENCHMARK(BM_TransposeMultiply)->Arg(1000)->Arg(4000);

void BM_RowTimesMatrix(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 5);
  Rng rng(6);
  DenseVector row(dim);
  for (size_t i = 0; i < dim; ++i) row[i] = rng.NextGaussian();
  for (auto _ : state) benchmark::DoNotOptimize(RowTimesMatrix(row, b));
}
BENCHMARK(BM_RowTimesMatrix)->Arg(2000)->Arg(16000);

void BM_SparseRowTimesMatrix(benchmark::State& state) {
  // A ~10-non-zero row against a D x 50 broadcast matrix: the inner loop
  // of the on-demand X computation.
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 7);
  std::vector<SparseEntry> entries;
  for (uint32_t k = 0; k < 10; ++k) {
    entries.push_back({static_cast<uint32_t>(k * dim / 10), 1.0});
  }
  const SparseVector row(std::move(entries), dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SparseRowTimesMatrix(row.View(), b));
  }
}
BENCHMARK(BM_SparseRowTimesMatrix)->Arg(2000)->Arg(16000);

void BM_CholeskySolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DenseMatrix a = TransposeMultiply(Random(n, n, 8), Random(n, n, 8));
  a.AddScaledIdentity(static_cast<double>(n));
  const DenseMatrix b = Random(n, 10, 9);
  for (auto _ : state) benchmark::DoNotOptimize(SolveSpd(a, b));
}
BENCHMARK(BM_CholeskySolve)->Arg(50)->Arg(100);

void BM_LuInverse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(n, n, 10);
  for (auto _ : state) benchmark::DoNotOptimize(Inverse(a));
}
BENCHMARK(BM_LuInverse)->Arg(50)->Arg(100);

// The EM driver step's D x d products at the repobench shapes (fit_spectra
// 8000 x 100, fit_tweets 4000 x 50), single-threaded.
void BM_SolveRight(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const DenseMatrix ytx = Random(dim, d, 14);
  DenseMatrix xtx = TransposeMultiply(Random(d, d, 15), Random(d, d, 15));
  xtx.AddScaledIdentity(static_cast<double>(d));
  for (auto _ : state) benchmark::DoNotOptimize(SolveRight(ytx, xtx));
}
BENCHMARK(BM_SolveRight)->Args({8000, 100})->Args({4000, 50});

void BM_Gram(benchmark::State& state) {
  const DenseMatrix c = Random(state.range(0), state.range(1), 16);
  for (auto _ : state) benchmark::DoNotOptimize(Gram(c));
}
BENCHMARK(BM_Gram)->Args({8000, 100})->Args({4000, 50});

void BM_OrthonormalizeColumns(benchmark::State& state) {
  const DenseMatrix c = Random(state.range(0), state.range(1), 17);
  for (auto _ : state) benchmark::DoNotOptimize(OrthonormalizeColumns(c));
}
BENCHMARK(BM_OrthonormalizeColumns)->Args({8000, 100})->Args({4000, 50});

void BM_SymmetricEigen(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = TransposeMultiply(Random(n, n, 11), Random(n, n, 11));
  for (auto _ : state) benchmark::DoNotOptimize(SymmetricEigen(a));
}
BENCHMARK(BM_SymmetricEigen)->Arg(32)->Arg(64)->Arg(128);

void BM_SvdJacobi(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(2 * n, n, 12);
  for (auto _ : state) benchmark::DoNotOptimize(SvdJacobi(a));
}
BENCHMARK(BM_SvdJacobi)->Arg(16)->Arg(48);

void BM_SvdWideViaGram(benchmark::State& state) {
  // The wide-B SVD finishing step of stochastic SVD: k x D with k = 60.
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(60, dim, 13);
  for (auto _ : state) benchmark::DoNotOptimize(SvdWideViaGram(a));
}
BENCHMARK(BM_SvdWideViaGram)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace spca::linalg

// Custom main instead of BENCHMARK_MAIN(): records which kernel ISA the
// runtime dispatcher resolved to (scalar / avx2 / neon) in the benchmark
// context, so JSON output is self-describing. tools/bench_kernels.sh
// reads it to label per-ISA timings in BENCH_kernels.json (schema v2)
// and to pick the right speedup gate.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "spca_kernel_isa", spca::linalg::kernels::DispatchedIsaName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
