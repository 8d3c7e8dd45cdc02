// Property tests for the linalg/kernels.h micro-kernels and their runtime
// ISA dispatch. Two numerical tiers (see kernels.h):
//
//  - Exact tier: under scalar dispatch every kernel must equal the naive
//    scalar reference bit for bit (EXPECT_EQ on doubles) — the contract
//    the pre-SIMD kernel layer shipped with. AddRow and LuSolveRows are
//    exact on EVERY ISA (no reassociation, no FMA).
//  - Tolerance tier: under AVX2/NEON dispatch, fused multiply-adds and
//    multi-accumulator reductions round differently, so kernels must
//    agree with the scalar twins to 1e-12 relative. The SIMD-vs-scalar
//    suites below pin each compiled SIMD variant against
//    kernels::scalar on ~100 randomized shapes per kernel.
//
// The FitBitIdentity test asserts end-to-end that Spca::Solve reproduces
// the golden captured from the pre-kernel scalar implementation:
// bit-identically under scalar dispatch (the forced-scalar ctest leg
// runs this whole binary with SPCA_KERNEL_ISA=scalar), and within 1e-12
// relative per element under SIMD dispatch. Regenerate (only for an
// intentional numerics change) with:
//   SPCA_REGENERATE_FIT_GOLDEN=1 SPCA_KERNEL_ISA=scalar ./kernels_test

#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/spca.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "workload/synthetic.h"

namespace spca::linalg {
namespace {

using kernels::Isa;

// The dispatched kernels are the exact tier only when they resolved to
// the scalar table (native scalar-only build, or SPCA_KERNEL_ISA=scalar).
bool DispatchIsExact() { return kernels::DispatchedIsa() == Isa::kScalar; }

constexpr double kRelTol = 1e-12;

void ExpectNearTier(double actual, double expected, bool exact,
                    const std::string& context) {
  if (exact) {
    // EXPECT_EQ (not NEAR with 0): also distinguishes +0.0 from -0.0 via
    // the printed failure, and never accepts NaN.
    EXPECT_EQ(actual, expected) << context;
  } else {
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::fabs(expected)))
        << context;
  }
}

void ExpectRowNear(const std::vector<double>& actual,
                   const std::vector<double>& expected, bool exact,
                   const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectNearTier(actual[i], expected[i], exact,
                   context + " element " + std::to_string(i));
  }
}

std::vector<double> RandomValues(size_t n, Rng* rng, double zero_fraction) {
  std::vector<double> values(n);
  for (auto& v : values) {
    v = rng->NextDouble() < zero_fraction ? 0.0 : rng->NextGaussian();
  }
  return values;
}

// Matrix operand for RowGemm / SparseRowGemv. Same random fill as
// RandomValues plus four zeroed slack doubles: the kernel layer's
// tail-padding contract (see aligned.h) lets the SIMD tail vector READ
// up to 32 bytes past the last logical element, which AlignedDoubleBuffer
// provides implicitly and a raw test vector must provide explicitly.
std::vector<double> RandomGemmMatrix(size_t n, Rng* rng,
                                     double zero_fraction) {
  auto values = RandomValues(n, rng, zero_fraction);
  values.insert(values.end(), 4, 0.0);
  return values;
}

// Shapes cycle through the edge cases the kernels must handle: d = 1,
// zero-length rows, widths straddling every unroll width in any variant
// (4x scalar, 8/16-wide SIMD stripes), and occasionally all-zero inputs.
size_t ShapeFor(size_t trial, Rng* rng) {
  static constexpr size_t kEdge[] = {0, 1,  2,  3,  4,  5,  7,  8,
                                     9, 15, 16, 17, 23, 24, 31, 33};
  constexpr size_t kEdgeCount = sizeof(kEdge) / sizeof(kEdge[0]);
  if (trial % 3 == 0) return kEdge[trial / 3 % kEdgeCount];
  return 1 + rng->NextUint64() % 96;
}

double ZeroFractionFor(size_t trial) {
  if (trial % 11 == 0) return 1.0;  // all-zero input
  if (trial % 4 == 0) return 0.5;
  return 0.1;
}

// ---- Dispatched kernels vs naive scalar references ---------------------
// Exact under scalar dispatch, 1e-12 relative under SIMD dispatch (AddRow
// always exact).

TEST(KernelsTest, AxpyRowMatchesNaive) {
  Rng rng(101);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t n = ShapeFor(trial, &rng);
    const double v = trial % 7 == 0 ? 0.0 : rng.NextGaussian();
    const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
    auto out = RandomValues(n, &rng, 0.0);
    auto expected = out;
    for (size_t j = 0; j < n; ++j) expected[j] += v * b[j];
    kernels::AxpyRow(v, b.data(), n, out.data());
    ExpectRowNear(out, expected, exact,
                  "AxpyRow n=" + std::to_string(n) + " trial=" +
                      std::to_string(trial));
  }
}

TEST(KernelsTest, AddRowMatchesNaiveExactlyOnEveryIsa) {
  Rng rng(102);
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t n = ShapeFor(trial, &rng);
    const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
    auto out = RandomValues(n, &rng, 0.0);
    auto expected = out;
    for (size_t j = 0; j < n; ++j) expected[j] += b[j];
    kernels::AddRow(b.data(), n, out.data());
    ASSERT_EQ(out, expected) << "n=" << n << " trial=" << trial;
  }
}

TEST(KernelsTest, DotRowMatchesNaiveChain) {
  Rng rng(103);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t n = ShapeFor(trial, &rng);
    const auto a = RandomValues(n, &rng, ZeroFractionFor(trial));
    const auto b = RandomValues(n, &rng, 0.1);
    const double init = trial % 2 == 0 ? 0.0 : rng.NextGaussian();
    double expected = init;
    for (size_t j = 0; j < n; ++j) expected += a[j] * b[j];
    ExpectNearTier(kernels::DotRow(a.data(), b.data(), n, init), expected,
                   exact,
                   "DotRow n=" + std::to_string(n) + " trial=" +
                       std::to_string(trial));
  }
}

TEST(KernelsTest, Rank1UpdateMatchesNaive) {
  Rng rng(104);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t rows = ShapeFor(trial, &rng);
    const size_t cols = ShapeFor(trial + 1, &rng);
    const auto a = RandomValues(rows, &rng, ZeroFractionFor(trial));
    const auto b = RandomValues(cols, &rng, 0.1);
    auto out = RandomValues(rows * cols, &rng, 0.0);
    auto expected = out;
    for (size_t i = 0; i < rows; ++i) {
      if (a[i] == 0.0) continue;
      for (size_t j = 0; j < cols; ++j) expected[i * cols + j] += a[i] * b[j];
    }
    kernels::Rank1Update(a.data(), rows, b.data(), cols, out.data(), cols);
    ExpectRowNear(out, expected, exact,
                  "Rank1Update rows=" + std::to_string(rows) + " cols=" +
                      std::to_string(cols));
  }
}

TEST(KernelsTest, SymRank1UpdatePlusMirrorMatchesFullRectangle) {
  Rng rng(105);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t d = ShapeFor(trial, &rng);
    const auto x = RandomValues(d, &rng, ZeroFractionFor(trial));
    // Accumulate several rows before mirroring, like RunYtXPartition does.
    const size_t updates = 1 + trial % 3;
    std::vector<double> out(d * d, 0.0);
    std::vector<double> expected(d * d, 0.0);
    for (size_t u = 0; u < updates; ++u) {
      for (size_t a = 0; a < d; ++a) {
        for (size_t b = 0; b < d; ++b) expected[a * d + b] += x[a] * x[b];
      }
      kernels::SymRank1Update(x.data(), d, out.data(), d);
    }
    kernels::SymMirrorLower(out.data(), d, d);
    ExpectRowNear(out, expected, exact,
                  "SymRank1Update d=" + std::to_string(d) + " updates=" +
                      std::to_string(updates));
  }
}

TEST(KernelsTest, SparseRowGemvMatchesNaive) {
  Rng rng(106);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t dim = 1 + ShapeFor(trial, &rng);
    const size_t d = ShapeFor(trial + 2, &rng);
    // nnz of 0 (empty row) through dense-ish; duplicate-free sorted indices.
    const size_t nnz = trial % 9 == 0 ? 0 : 1 + rng.NextUint64() % dim;
    std::vector<SparseEntry> entries;
    for (size_t k = 0; k < dim && entries.size() < nnz; ++k) {
      if (rng.NextDouble() < static_cast<double>(nnz) / dim) {
        entries.push_back({static_cast<uint32_t>(k),
                           trial % 13 == 0 ? 0.0 : rng.NextGaussian()});
      }
    }
    const auto b = RandomGemmMatrix(dim * d, &rng, 0.1);
    auto out = RandomValues(d, &rng, 0.0);
    auto expected = out;
    for (const auto& e : entries) {
      for (size_t j = 0; j < d; ++j) {
        expected[j] += e.value * b[e.index * d + j];
      }
    }
    kernels::SparseRowGemv(entries.data(), entries.size(), b.data(), d, d,
                           out.data());
    ExpectRowNear(out, expected, exact,
                  "SparseRowGemv dim=" + std::to_string(dim) + " d=" +
                      std::to_string(d) + " nnz=" +
                      std::to_string(entries.size()));
  }
}

TEST(KernelsTest, RowGemmMatchesNaive) {
  Rng rng(107);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t k = ShapeFor(trial, &rng);
    const size_t n = ShapeFor(trial + 3, &rng);
    const auto a_row = RandomValues(k, &rng, ZeroFractionFor(trial));
    const auto b = RandomGemmMatrix(k * n, &rng, 0.1);
    auto out = RandomValues(n, &rng, 0.0);
    auto expected = out;
    for (size_t kk = 0; kk < k; ++kk) {
      if (a_row[kk] == 0.0) continue;
      for (size_t j = 0; j < n; ++j) expected[j] += a_row[kk] * b[kk * n + j];
    }
    kernels::RowGemm(a_row.data(), k, b.data(), n, n, out.data());
    ExpectRowNear(out, expected, exact,
                  "RowGemm k=" + std::to_string(k) + " n=" +
                      std::to_string(n));
  }
}

// RowGemm's SIMD variants keep column stripes of c register-resident
// across the whole k sweep; long-k shapes (and k around the old 64-wide
// block boundary) must agree with the naive reference too.
TEST(KernelsTest, RowGemmBlockedLongKMatchesNaive) {
  Rng rng(117);
  const bool exact = DispatchIsExact();
  for (const size_t k : {63u, 64u, 65u, 128u, 200u, 1000u}) {
    for (const size_t n : {1u, 7u, 16u, 50u}) {
      const auto a_row = RandomValues(k, &rng, 0.2);
      const auto b = RandomGemmMatrix(k * n, &rng, 0.1);
      auto out = RandomValues(n, &rng, 0.0);
      auto expected = out;
      for (size_t kk = 0; kk < k; ++kk) {
        if (a_row[kk] == 0.0) continue;
        for (size_t j = 0; j < n; ++j) {
          expected[j] += a_row[kk] * b[kk * n + j];
        }
      }
      kernels::RowGemm(a_row.data(), k, b.data(), n, n, out.data());
      ExpectRowNear(out, expected, exact,
                    "RowGemm long k=" + std::to_string(k) + " n=" +
                        std::to_string(n));
    }
  }
}

// ---- SIMD variants vs their scalar twins -------------------------------
// Each compiled-and-runnable SIMD ISA is compared directly against
// kernels::scalar (no dispatch involved): exact for AddRow, 1e-12
// relative for everything touched by FMA / reassociated reductions.

struct IsaKernels {
  Isa isa;
  void (*axpy_row)(double, const double*, size_t, double*);
  void (*add_row)(const double*, size_t, double*);
  double (*dot_row)(const double*, const double*, size_t, double);
  void (*rank1_update)(const double*, size_t, const double*, size_t, double*,
                       size_t);
  void (*sym_rank1_update)(const double*, size_t, double*, size_t);
  void (*block_sym_rank_update)(const double*, size_t, size_t, size_t,
                                double*, size_t);
  void (*sparse_row_gemv)(const SparseEntry*, size_t, const double*, size_t,
                          size_t, double*);
  void (*sparse_row_axpy)(const SparseEntry*, size_t, const double*, size_t,
                          size_t, double*);
  void (*row_gemm)(const double*, size_t, const double*, size_t, size_t,
                   double*);
  void (*lu_solve_rows)(const double*, const size_t*, size_t, double*, size_t,
                        size_t);
  void (*block_gemm)(const double*, size_t, size_t, size_t, const double*,
                     size_t, size_t, double*, size_t, kernels::GemmOrder);
  void (*block_rank_update)(const double*, size_t, size_t, size_t,
                            const double*, size_t, size_t, double*, size_t);
};

IsaKernels ScalarKernels() {
  return {Isa::kScalar,
          kernels::scalar::AxpyRow,
          kernels::scalar::AddRow,
          kernels::scalar::DotRow,
          kernels::scalar::Rank1Update,
          kernels::scalar::SymRank1Update,
          kernels::scalar::BlockSymRankUpdate,
          kernels::scalar::SparseRowGemv,
          kernels::scalar::SparseRowAxpy,
          kernels::scalar::RowGemm,
          kernels::scalar::LuSolveRows,
          kernels::scalar::BlockGemm,
          kernels::scalar::BlockRankUpdate};
}

std::vector<IsaKernels> RunnableSimdVariants() {
  std::vector<IsaKernels> variants;
#if defined(SPCA_KERNELS_HAVE_AVX2)
  if (kernels::IsaAvailable(Isa::kAvx2)) {
    variants.push_back({Isa::kAvx2, kernels::avx2::AxpyRow,
                        kernels::avx2::AddRow, kernels::avx2::DotRow,
                        kernels::avx2::Rank1Update,
                        kernels::avx2::SymRank1Update,
                        kernels::avx2::BlockSymRankUpdate,
                        kernels::avx2::SparseRowGemv,
                        kernels::avx2::SparseRowAxpy, kernels::avx2::RowGemm,
                        kernels::avx2::LuSolveRows, kernels::avx2::BlockGemm,
                        kernels::avx2::BlockRankUpdate});
  }
#endif
#if defined(SPCA_KERNELS_HAVE_NEON)
  if (kernels::IsaAvailable(Isa::kNeon)) {
    variants.push_back({Isa::kNeon, kernels::neon::AxpyRow,
                        kernels::neon::AddRow, kernels::neon::DotRow,
                        kernels::neon::Rank1Update,
                        kernels::neon::SymRank1Update,
                        kernels::neon::BlockSymRankUpdate,
                        kernels::neon::SparseRowGemv,
                        kernels::neon::SparseRowAxpy, kernels::neon::RowGemm,
                        // NEON dispatch uses the scalar LuSolveRows.
                        kernels::scalar::LuSolveRows, kernels::neon::BlockGemm,
                        kernels::neon::BlockRankUpdate});
  }
#endif
  return variants;
}

#define SPCA_SKIP_WITHOUT_SIMD(variants)                                 \
  if ((variants).empty()) {                                              \
    GTEST_SKIP() << "no SIMD kernel variant compiled in / runnable on "  \
                    "this host";                                         \
  }

TEST(SimdVsScalarTest, AxpyRow) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(201);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t n = ShapeFor(trial, &rng);
      const double a = trial % 7 == 0 ? 0.0 : rng.NextGaussian();
      const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
      auto simd = RandomValues(n, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::AxpyRow(a, b.data(), n, ref.data());
      v.axpy_row(a, b.data(), n, simd.data());
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) + " AxpyRow n=" +
                        std::to_string(n));
    }
  }
}

TEST(SimdVsScalarTest, AddRowExact) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(202);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t n = ShapeFor(trial, &rng);
      const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
      auto simd = RandomValues(n, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::AddRow(b.data(), n, ref.data());
      v.add_row(b.data(), n, simd.data());
      ASSERT_EQ(simd, ref) << kernels::IsaName(v.isa) << " AddRow n=" << n;
    }
  }
}

TEST(SimdVsScalarTest, DotRow) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(203);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t n = ShapeFor(trial, &rng);
      const auto a = RandomValues(n, &rng, ZeroFractionFor(trial));
      const auto b = RandomValues(n, &rng, 0.1);
      const double init = trial % 2 == 0 ? 0.0 : rng.NextGaussian();
      const double ref = kernels::scalar::DotRow(a.data(), b.data(), n, init);
      ExpectNearTier(v.dot_row(a.data(), b.data(), n, init), ref,
                     /*exact=*/false,
                     std::string(kernels::IsaName(v.isa)) + " DotRow n=" +
                         std::to_string(n));
    }
  }
}

TEST(SimdVsScalarTest, Rank1Update) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(204);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t rows = ShapeFor(trial, &rng);
      const size_t cols = ShapeFor(trial + 1, &rng);
      const auto a = RandomValues(rows, &rng, ZeroFractionFor(trial));
      const auto b = RandomValues(cols, &rng, 0.1);
      auto simd = RandomValues(rows * cols, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::Rank1Update(a.data(), rows, b.data(), cols, ref.data(),
                                   cols);
      v.rank1_update(a.data(), rows, b.data(), cols, simd.data(), cols);
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) + " Rank1Update " +
                        std::to_string(rows) + "x" + std::to_string(cols));
    }
  }
}

TEST(SimdVsScalarTest, SymRank1Update) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(205);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t d = ShapeFor(trial, &rng);
      const auto x = RandomValues(d, &rng, ZeroFractionFor(trial));
      std::vector<double> simd(d * d, 0.0);
      std::vector<double> ref(d * d, 0.0);
      const size_t updates = 1 + trial % 3;
      for (size_t u = 0; u < updates; ++u) {
        kernels::scalar::SymRank1Update(x.data(), d, ref.data(), d);
        v.sym_rank1_update(x.data(), d, simd.data(), d);
      }
      kernels::SymMirrorLower(ref.data(), d, d);
      kernels::SymMirrorLower(simd.data(), d, d);
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) +
                        " SymRank1Update d=" + std::to_string(d));
    }
  }
}

TEST(SimdVsScalarTest, SparseRowGemv) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(206);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t dim = 1 + ShapeFor(trial, &rng);
      const size_t d = ShapeFor(trial + 2, &rng);
      const size_t nnz = trial % 9 == 0 ? 0 : 1 + rng.NextUint64() % dim;
      std::vector<SparseEntry> entries;
      for (size_t k = 0; k < dim && entries.size() < nnz; ++k) {
        if (rng.NextDouble() < static_cast<double>(nnz) / dim) {
          entries.push_back({static_cast<uint32_t>(k),
                             trial % 13 == 0 ? 0.0 : rng.NextGaussian()});
        }
      }
      const auto b = RandomGemmMatrix(dim * d, &rng, 0.1);
      auto simd = RandomValues(d, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::SparseRowGemv(entries.data(), entries.size(), b.data(),
                                     d, d, ref.data());
      v.sparse_row_gemv(entries.data(), entries.size(), b.data(), d, d,
                        simd.data());
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) +
                        " SparseRowGemv d=" + std::to_string(d) + " nnz=" +
                        std::to_string(entries.size()));
    }
  }
}

TEST(SimdVsScalarTest, RowGemm) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(207);
    for (size_t trial = 0; trial < 100; ++trial) {
      // Cover long-k shapes: the register stripes sweep all of k at once.
      const size_t k =
          trial % 5 == 0 ? 60 + rng.NextUint64() % 140 : ShapeFor(trial, &rng);
      const size_t n = ShapeFor(trial + 3, &rng);
      const auto a_row = RandomValues(k, &rng, ZeroFractionFor(trial));
      const auto b = RandomGemmMatrix(k * n, &rng, 0.1);
      auto simd = RandomValues(n, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::RowGemm(a_row.data(), k, b.data(), n, n, ref.data());
      v.row_gemm(a_row.data(), k, b.data(), n, n, simd.data());
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) + " RowGemm k=" +
                        std::to_string(k) + " n=" + std::to_string(n));
    }
  }
}

TEST(SimdVsScalarTest, LuSolveRowsExact) {
  // Exact on every ISA: the lanes multiply and subtract separately, in the
  // scalar order, so SIMD and scalar must agree bit for bit.
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(208);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t n = ShapeFor(trial, &rng);
      const size_t rows = ShapeFor(trial + 1, &rng);
      // Any packed factor with a non-zero diagonal, and a random pivot order.
      auto lu = RandomValues(n * n, &rng, ZeroFractionFor(trial) * 0.5);
      for (size_t i = 0; i < n; ++i) lu[i * n + i] = 1.0 + rng.NextDouble();
      std::vector<size_t> perm(n);
      for (size_t i = 0; i < n; ++i) perm[i] = i;
      for (size_t i = n; i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.NextUint64Below(i)]);
      }
      auto simd = RandomValues(rows * n, &rng, ZeroFractionFor(trial + 2));
      auto ref = simd;
      kernels::scalar::LuSolveRows(lu.data(), perm.data(), n, ref.data(), n,
                                   rows);
      v.lu_solve_rows(lu.data(), perm.data(), n, simd.data(), n, rows);
      EXPECT_EQ(
          std::memcmp(simd.data(), ref.data(), simd.size() * sizeof(double)),
          0)
          << kernels::IsaName(v.isa) << " LuSolveRows n=" << n
          << " rows=" << rows;
    }
  }
}

// ---- Row-block kernels vs the per-row kernels they replace -------------
// BlockGemm and BlockRankUpdate only change which element is worked on
// when, so on every ISA they must reproduce that ISA's per-row kernels
// byte for byte (memcmp: also tells +0.0 from -0.0).

// Gaussian values with exact +0.0 and -0.0 mixed in.
std::vector<double> SignedZeroValues(size_t n, Rng* rng) {
  std::vector<double> values(n);
  for (auto& v : values) {
    const double u = rng->NextDouble();
    v = u < 0.15 ? 0.0 : u < 0.25 ? -0.0 : rng->NextGaussian();
  }
  return values;
}

struct BlockShape {
  size_t rows;
  size_t k;
  size_t n;
};

// rows {0,1,3,4,5,17,65} x D {1,3,37,k-chunk-1,k-chunk+1,8000} x
// d {1,3,5,22,50,100}; the 8000-wide D (several k-chunks) at d 1, 50,
// 100. d = 22 puts a narrow four-chain stripe before RowGemm's final
// stripe with its remainder.
std::vector<BlockShape> BlockShapes() {
  std::vector<BlockShape> shapes;
  for (const size_t n : {1u, 3u, 5u, 22u, 50u, 100u}) {
    const size_t chunk = kernels::BlockGemmChunkRows(n);
    std::vector<size_t> ks = {1, 3, 37, chunk - 1, chunk + 1};
    if (n == 1 || n >= 50) ks.push_back(8000);
    for (const size_t k : ks) {
      for (const size_t rows : {0u, 1u, 3u, 4u, 5u, 17u, 65u}) {
        shapes.push_back({rows, k, n});
      }
    }
  }
  return shapes;
}

std::string ShapeName(const IsaKernels& v, const BlockShape& s) {
  return std::string(kernels::IsaName(v.isa)) + " rows=" +
         std::to_string(s.rows) + " D=" + std::to_string(s.k) +
         " d=" + std::to_string(s.n);
}

std::vector<IsaKernels> AllRunnableVariants() {
  std::vector<IsaKernels> variants = {ScalarKernels()};
  for (const auto& v : RunnableSimdVariants()) variants.push_back(v);
  return variants;
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(BlockKernelsTest, BlockGemmMatchesPerRowKernelsBitForBit) {
  for (const auto& v : AllRunnableVariants()) {
    Rng rng(301);
    for (const BlockShape& s : BlockShapes()) {
      const auto a = SignedZeroValues(s.rows * s.k, &rng);
      auto b = SignedZeroValues(s.k * s.n, &rng);
      b.insert(b.end(), 4, 0.0);  // tail-padding contract, as RowGemm
      const auto c0 = SignedZeroValues(s.rows * s.n, &rng);

      auto block = c0;
      auto per_row = c0;
      v.block_gemm(a.data(), s.k, s.rows, s.k, b.data(), s.n, s.n,
                   block.data(), s.n, kernels::GemmOrder::kRowGemm);
      for (size_t r = 0; r < s.rows; ++r) {
        v.row_gemm(a.data() + r * s.k, s.k, b.data(), s.n, s.n,
                   per_row.data() + r * s.n);
      }
      EXPECT_TRUE(BytesEqual(block, per_row))
          << "BlockGemm(kRowGemm) vs RowGemm " << ShapeName(v, s);

      block = c0;
      per_row = c0;
      v.block_gemm(a.data(), s.k, s.rows, s.k, b.data(), s.n, s.n,
                   block.data(), s.n, kernels::GemmOrder::kAxpyRow);
      for (size_t r = 0; r < s.rows; ++r) {
        for (size_t kk = 0; kk < s.k; ++kk) {
          v.axpy_row(a[r * s.k + kk], b.data() + kk * s.n, s.n,
                     per_row.data() + r * s.n);
        }
      }
      EXPECT_TRUE(BytesEqual(block, per_row))
          << "BlockGemm(kAxpyRow) vs AxpyRow per entry " << ShapeName(v, s);
    }
  }
}

TEST(BlockKernelsTest, BlockRankUpdateMatchesAxpyRowPerEntryBitForBit) {
  for (const auto& v : AllRunnableVariants()) {
    Rng rng(302);
    for (const BlockShape& s : BlockShapes()) {
      const auto a = SignedZeroValues(s.rows * s.k, &rng);
      const auto x = SignedZeroValues(s.rows * s.n, &rng);
      const auto p0 = SignedZeroValues(s.k * s.n, &rng);
      auto block = p0;
      auto per_row = p0;
      v.block_rank_update(a.data(), s.k, s.rows, s.k, x.data(), s.n, s.n,
                          block.data(), s.n);
      for (size_t r = 0; r < s.rows; ++r) {
        for (size_t kk = 0; kk < s.k; ++kk) {
          v.axpy_row(a[r * s.k + kk], x.data() + r * s.n, s.n,
                     per_row.data() + kk * s.n);
        }
      }
      EXPECT_TRUE(BytesEqual(block, per_row))
          << "BlockRankUpdate vs AxpyRow per entry " << ShapeName(v, s);
    }
  }
}

// x rows for the XtX block: zero-free rows (the AVX2 twin's register
// tiles) with, in every third row from row 0 on, exact +0.0 / -0.0
// entries (rows the per-row kernel partly skips; row 0 meets the -0.0
// accumulators before any product has changed them). `stride` > d leaves
// a gap between rows, and the buffer ends at the last row's d-th value,
// so a read past a row end is caught under AddressSanitizer.
std::vector<double> XtXBlockRows(size_t rows, size_t d, size_t stride,
                                 Rng* rng) {
  std::vector<double> x(rows == 0 ? 0 : (rows - 1) * stride + d, 7.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < d; ++a) {
      const double u = rng->NextDouble();
      double v = 0.5 + rng->NextDouble();
      if (rng->NextDouble() < 0.5) v = -v;
      if (r % 3 == 0 && u < 0.3) v = u < 0.15 ? 0.0 : -0.0;
      x[r * stride + a] = v;
    }
  }
  return x;
}

TEST(BlockKernelsTest, BlockSymRankUpdateMatchesPerRowBitForBit) {
  std::vector<size_t> dims;
  for (size_t d = 1; d <= 9; ++d) dims.push_back(d);
  for (const size_t d : {15u, 16u, 17u, 49u, 50u, 51u, 100u, 101u}) {
    dims.push_back(d);
  }
  for (const auto& v : AllRunnableVariants()) {
    Rng rng(303);
    for (const size_t d : dims) {
      for (const size_t rows : {0u, 1u, 2u, 31u, 32u, 33u}) {
        const size_t x_stride = d + 3;
        const size_t stride = d + 2;
        const auto x = XtXBlockRows(rows, d, x_stride, &rng);
        // Upper triangle from signed zeros and Gaussians (an accumulator
        // at -0.0 is where a skipped update and an added +0.0 differ);
        // the lower triangle and the row gaps must stay untouched.
        std::vector<double> out0(d * stride, 3.0);
        const auto init = SignedZeroValues(d * d, &rng);
        for (size_t a = 0; a < d; ++a) {
          for (size_t b = a; b < d; ++b) out0[a * stride + b] = init[a * d + b];
        }
        auto block = out0;
        auto per_row = out0;
        v.block_sym_rank_update(x.data(), x_stride, rows, d, block.data(),
                                stride);
        for (size_t r = 0; r < rows; ++r) {
          v.sym_rank1_update(x.data() + r * x_stride, d, per_row.data(),
                             stride);
        }
        EXPECT_TRUE(BytesEqual(block, per_row))
            << "BlockSymRankUpdate vs SymRank1Update per row "
            << kernels::IsaName(v.isa) << " rows=" << rows << " d=" << d;
      }
    }
  }
}

TEST(BlockKernelsTest, SparseRowAxpyMatchesAxpyRowPerEntryBitForBit) {
  constexpr size_t kDim = 64;
  for (const auto& v : AllRunnableVariants()) {
    Rng rng(304);
    for (const size_t d :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 22u, 49u, 50u, 51u, 100u, 101u}) {
      for (const size_t nnz : {0u, 1u, 2u, 7u, 40u}) {
        auto b = SignedZeroValues(kDim * d, &rng);
        b.insert(b.end(), 4, 0.0);  // tail-padding contract
        std::vector<SparseEntry> entries;
        for (size_t e = 0; e < nnz; ++e) {
          const double u = rng.NextDouble();
          entries.push_back(
              {static_cast<uint32_t>(rng.NextUint64Below(kDim)),
               u < 0.1 ? -0.0 : u < 0.2 ? 0.0 : rng.NextGaussian()});
        }
        const auto out0 = SignedZeroValues(d, &rng);
        auto fused = out0;
        auto per_entry = out0;
        v.sparse_row_axpy(entries.data(), nnz, b.data(), d, d, fused.data());
        for (const SparseEntry& e : entries) {
          v.axpy_row(e.value, b.data() + e.index * d, d, per_entry.data());
        }
        EXPECT_TRUE(BytesEqual(fused, per_entry))
            << "SparseRowAxpy vs AxpyRow per entry "
            << kernels::IsaName(v.isa) << " nnz=" << nnz << " d=" << d;
      }
    }
  }
}

// Sparse DistMatrix row blocks (dispatched kernels): RowsTimesMatrix in
// both orders against the per-row RowTimesMatrix (SparseRowGemv) and
// per-entry AxpyRow, and AddRowsOuterProduct against per-entry AxpyRow.
// Rows 0, 5 and 6 are empty; d covers 1-3 column tails.
TEST(BlockKernelsTest, SparseRowBlocksMatchPerRowCallsBitForBit) {
  constexpr size_t kRows = 40;
  constexpr size_t kDim = 90;
  Rng rng(305);
  SparseMatrix sparse(kRows, kDim);
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<SparseEntry> row;
    if (i != 0 && i != 5 && i != 6) {
      for (uint32_t k = 0; k < kDim; ++k) {
        if (rng.NextDouble() < 0.08) row.push_back({k, rng.NextGaussian()});
      }
    }
    sparse.AppendRow(i, row);
  }
  const auto y = dist::DistMatrix::FromSparse(std::move(sparse), 3);
  for (const size_t d : {1u, 2u, 3u, 5u, 6u, 7u, 50u, 51u}) {
    const DenseMatrix b = DenseMatrix::GaussianRandom(kDim, d, &rng);
    for (const auto& [begin, end] : {std::pair<size_t, size_t>{0, 32},
                                    {3, 9},
                                    {32, 40},
                                    {7, 7}}) {
      const size_t rows = end - begin;
      DenseMatrix gemv(rows + 1, d);
      DenseMatrix axpy(rows + 1, d);
      y.RowsTimesMatrix(begin, end, b, kernels::GemmOrder::kRowGemm, &gemv,
                        1);
      y.RowsTimesMatrix(begin, end, b, kernels::GemmOrder::kAxpyRow, &axpy,
                        1);
      DenseMatrix x(rows, d);
      for (size_t i = begin; i < end; ++i) {
        DenseVector ref(d);
        y.RowTimesMatrix(i, b, &ref);
        EXPECT_EQ(std::memcmp(gemv.RowPtr(1 + i - begin), ref.data(),
                              d * sizeof(double)),
                  0)
            << "kRowGemm row " << i << " d=" << d;
        ref.SetZero();
        for (const auto& e : y.sparse().Row(i)) {
          kernels::AxpyRow(e.value, b.RowPtr(e.index), d, ref.data());
        }
        EXPECT_EQ(std::memcmp(axpy.RowPtr(1 + i - begin), ref.data(),
                              d * sizeof(double)),
                  0)
            << "kAxpyRow row " << i << " d=" << d;
        std::memcpy(x.RowPtr(i - begin), ref.data(), d * sizeof(double));
      }

      DenseMatrix block = DenseMatrix::GaussianRandom(kDim, d, &rng);
      DenseMatrix per_entry = block;
      if (rows > 0) y.AddRowsOuterProduct(begin, end, x, &block);
      for (size_t i = begin; i < end; ++i) {
        for (const auto& e : y.sparse().Row(i)) {
          kernels::AxpyRow(e.value, x.RowPtr(i - begin), d,
                           per_entry.RowPtr(e.index));
        }
      }
      EXPECT_EQ(std::memcmp(block.data(), per_entry.data(),
                            block.size() * sizeof(double)),
                0)
          << "AddRowsOuterProduct rows [" << begin << ", " << end
          << ") d=" << d;
    }
  }
}

TEST(SimdVsScalarTest, BlockGemm) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(209);
    for (const BlockShape& s : BlockShapes()) {
      const auto a = SignedZeroValues(s.rows * s.k, &rng);
      auto b = SignedZeroValues(s.k * s.n, &rng);
      b.insert(b.end(), 4, 0.0);
      const auto c0 = SignedZeroValues(s.rows * s.n, &rng);
      for (const auto order :
           {kernels::GemmOrder::kRowGemm, kernels::GemmOrder::kAxpyRow}) {
        auto simd = c0;
        auto ref = c0;
        kernels::scalar::BlockGemm(a.data(), s.k, s.rows, s.k, b.data(), s.n,
                                   s.n, ref.data(), s.n, order);
        v.block_gemm(a.data(), s.k, s.rows, s.k, b.data(), s.n, s.n,
                     simd.data(), s.n, order);
        // A k-long chain of rounding-level differences: scale the bound
        // by the magnitude of the products summed into each element.
        for (size_t r = 0; r < s.rows; ++r) {
          for (size_t j = 0; j < s.n; ++j) {
            double mag = std::fabs(c0[r * s.n + j]);
            for (size_t kk = 0; kk < s.k; ++kk) {
              mag += std::fabs(a[r * s.k + kk] * b[kk * s.n + j]);
            }
            ASSERT_NEAR(simd[r * s.n + j], ref[r * s.n + j],
                        kRelTol * std::max(1.0, mag))
                << "BlockGemm " << ShapeName(v, s) << " row " << r
                << " col " << j;
          }
        }
      }
    }
  }
}

TEST(SimdVsScalarTest, BlockRankUpdate) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(210);
    for (const BlockShape& s : BlockShapes()) {
      const auto a = SignedZeroValues(s.rows * s.k, &rng);
      const auto x = SignedZeroValues(s.rows * s.n, &rng);
      const auto p0 = SignedZeroValues(s.k * s.n, &rng);
      auto simd = p0;
      auto ref = p0;
      kernels::scalar::BlockRankUpdate(a.data(), s.k, s.rows, s.k, x.data(),
                                       s.n, s.n, ref.data(), s.n);
      v.block_rank_update(a.data(), s.k, s.rows, s.k, x.data(), s.n, s.n,
                          simd.data(), s.n);
      for (size_t i = 0; i < simd.size(); ++i) {
        ASSERT_NEAR(simd[i], ref[i],
                    kRelTol * std::max(1.0, std::fabs(ref[i])))
            << "BlockRankUpdate " << ShapeName(v, s) << " element " << i;
      }
    }
  }
}

// ---- Dispatch layer ----------------------------------------------------

TEST(KernelDispatchTest, DispatchedIsaIsAvailableAndStable) {
  const Isa isa = kernels::DispatchedIsa();
  EXPECT_TRUE(kernels::IsaAvailable(isa));
  EXPECT_EQ(kernels::DispatchedIsa(), isa);  // resolution is one-time
  EXPECT_STREQ(kernels::DispatchedIsaName(), kernels::IsaName(isa));
  EXPECT_TRUE(kernels::IsaAvailable(Isa::kScalar));  // always
}

TEST(KernelDispatchTest, HonorsEnvOverride) {
  const char* env = std::getenv("SPCA_KERNEL_ISA");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "SPCA_KERNEL_ISA not set; the forced-scalar ctest leg "
                    "exercises this";
  }
  Isa requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Isa::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Isa::kAvx2;
  } else if (std::strcmp(env, "neon") == 0) {
    requested = Isa::kNeon;
  } else {
    GTEST_SKIP() << "unknown SPCA_KERNEL_ISA value: " << env;
  }
  if (kernels::IsaAvailable(requested)) {
    EXPECT_EQ(kernels::DispatchedIsa(), requested);
  } else {
    EXPECT_EQ(kernels::DispatchedIsa(), Isa::kScalar)
        << "unavailable override must fall back to scalar";
  }
}

// ---- End-to-end golden (two tiers) ------------------------------------

void AppendBits(std::string* out, const char* tag, const DenseMatrix& m,
                double ss) {
  char line[64];
  std::snprintf(line, sizeof(line), "case %s rows=%zu cols=%zu\n", tag,
                m.rows(), m.cols());
  *out += line;
  uint64_t bits;
  std::memcpy(&bits, &ss, sizeof(bits));
  std::snprintf(line, sizeof(line), "ss %016" PRIx64 "\n", bits);
  *out += line;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      const double v = m(i, j);
      std::memcpy(&bits, &v, sizeof(bits));
      std::snprintf(line, sizeof(line), "%016" PRIx64 "\n", bits);
      *out += line;
    }
  }
}

void RunFitCase(std::string* out, const char* tag, const dist::DistMatrix& y,
                const core::SpcaOptions& options, dist::EngineMode mode) {
  dist::Engine engine(dist::ClusterSpec{}, mode);
  engine.SetLocalWorkers(2);  // exercise the worker-pool path
  core::Spca spca(&engine, options);
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
  AppendBits(out, tag, result->model.components,
             result->model.noise_variance);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

double DecodeBitsLine(const std::string& line) {
  const size_t hex_start = line.rfind(' ') + 1;  // npos+1 == 0 for bare hex
  const uint64_t bits =
      std::strtoull(line.c_str() + hex_start, nullptr, 16);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Tolerance-tier golden comparison: structure lines ("case ...") must
// match exactly; every encoded double must agree to 1e-12 relative.
void ExpectDumpNearGolden(const std::string& dump, const std::string& golden) {
  const auto dump_lines = SplitLines(dump);
  const auto golden_lines = SplitLines(golden);
  ASSERT_EQ(dump_lines.size(), golden_lines.size());
  for (size_t i = 0; i < dump_lines.size(); ++i) {
    if (golden_lines[i].rfind("case ", 0) == 0) {
      EXPECT_EQ(dump_lines[i], golden_lines[i]) << "line " << i;
      continue;
    }
    const double actual = DecodeBitsLine(dump_lines[i]);
    const double expected = DecodeBitsLine(golden_lines[i]);
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::fabs(expected)))
        << "line " << i << ": " << dump_lines[i] << " vs golden "
        << golden_lines[i];
  }
}

// Fit results on seeded workloads against the golden dumped from the
// pre-kernel scalar implementation. Covers sparse + dense storage, both
// engine modes, and both the optimized and the naive (toggles-off) job
// paths — i.e. every rewritten inner loop. Under scalar dispatch the
// comparison is byte-for-byte; under SIMD dispatch it is the 1e-12
// relative tolerance tier.
TEST(KernelsTest, FitMatchesPreKernelGolden) {
  core::SpcaOptions options;
  options.num_components = 6;
  options.max_iterations = 4;
  options.target_accuracy_fraction = 2.0;  // always run max_iterations
  options.error_sample_rows = 64;
  options.seed = 17;
  options.ideal_error_override = 1.0;  // skip the hidden converged fit

  std::string dump;
  {
    workload::BagOfWordsConfig config;
    config.rows = 300;
    config.vocab = 120;
    config.words_per_row = 8.0;
    config.seed = 5;
    const auto y =
        dist::DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 7);
    RunFitCase(&dump, "sparse_optimized", y, options,
               dist::EngineMode::kSpark);
    if (HasFatalFailure()) return;

    core::SpcaOptions naive = options;
    naive.mean_propagation = false;
    naive.minimize_intermediate_data = false;
    naive.consolidate_jobs = false;
    naive.efficient_frobenius = false;
    naive.ss3_associativity = false;
    RunFitCase(&dump, "sparse_naive", y, naive,
               dist::EngineMode::kMapReduce);
    if (HasFatalFailure()) return;
  }
  {
    workload::LowRankConfig config;
    config.rows = 200;
    config.cols = 37;  // non-multiple-of-4 width
    config.rank = 4;
    config.seed = 23;
    const auto y =
        dist::DistMatrix::FromDense(workload::GenerateLowRank(config), 5);
    RunFitCase(&dump, "dense_optimized", y, options,
               dist::EngineMode::kSpark);
    if (HasFatalFailure()) return;

    core::SpcaOptions naive = options;
    naive.mean_propagation = false;
    naive.ss3_associativity = false;
    RunFitCase(&dump, "dense_naive", y, naive, dist::EngineMode::kSpark);
    if (HasFatalFailure()) return;
  }

  const std::string golden_path =
      std::string(SPCA_TEST_SRCDIR) + "/golden/fit_bits.golden";
  if (std::getenv("SPCA_REGENERATE_FIT_GOLDEN") != nullptr) {
    ASSERT_TRUE(DispatchIsExact())
        << "regenerate the golden under SPCA_KERNEL_ISA=scalar: it pins the "
           "exact tier, which only the scalar kernels reproduce";
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << dump;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (DispatchIsExact()) {
    EXPECT_EQ(dump, golden.str())
        << "Spca::Solve numerics drifted from the pre-kernel-layer golden "
           "under scalar dispatch, which promises bit-identical results. If "
           "a numerics change is intentional, regenerate with "
           "SPCA_REGENERATE_FIT_GOLDEN=1 SPCA_KERNEL_ISA=scalar";
  } else {
    ExpectDumpNearGolden(dump, golden.str());
  }
}

}  // namespace
}  // namespace spca::linalg
