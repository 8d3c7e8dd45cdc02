#include "core/jobs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "linalg/kernels.h"

namespace spca::core {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// Writes the dense centered row Yc_i = Y_i - Ym into `dense` (D long):
/// the densification the mean-propagation optimization removes.
void DensifyCentered(const DistMatrix& y, size_t i, const DenseVector& ym,
                     DenseVector* dense) {
  for (size_t k = 0; k < y.cols(); ++k) (*dense)[k] = -ym[k];
  y.ForEachEntry(i, [&](size_t k, double v) { (*dense)[k] += v; });
}

/// Rows per block of the row-block paths: a block's X (and ss3's C'*Y')
/// rows and BlockGemm's per-row chain state stay in L1/L2, and each block
/// sweeps CM, C and the YtX partial once instead of once per row.
constexpr size_t kRowBlock = 32;

/// Writes X rows [begin, end) to `out` from row `out_row` on: copied from
/// the materialized X, else computed. With mean propagation the block is
/// one RowsTimesMatrix (the RowTimesMatrix bits per row, touching only
/// stored entries) minus Xm; without it, each row is densified into
/// `dense_scratch` first and multiplied densely. Returns flops spent.
uint64_t ComputeXBlock(const DistMatrix& y, size_t begin, size_t end,
                       const DenseMatrix& cm, const DenseVector& ym,
                       const DenseVector& xm,
                       const DenseMatrix* materialized_x,
                       bool mean_propagation, DenseVector* dense_scratch,
                       DenseMatrix* out, size_t out_row) {
  const size_t d = cm.cols();
  if (materialized_x != nullptr) {
    std::memcpy(out->RowPtr(out_row), materialized_x->RowPtr(begin),
                (end - begin) * d * sizeof(double));
    return 0;
  }
  if (!mean_propagation) {
    const size_t dim = y.cols();
    for (size_t i = begin; i < end; ++i) {
      DensifyCentered(y, i, ym, dense_scratch);
      double* x_i = out->RowPtr(out_row + (i - begin));
      std::fill(x_i, x_i + d, 0.0);
      linalg::kernels::RowGemm(dense_scratch->data(), dim, cm.data(),
                               cm.row_stride(), d, x_i);
    }
    return (end - begin) * (2ull * dim * d + dim);
  }
  y.RowsTimesMatrix(begin, end, cm, linalg::kernels::GemmOrder::kRowGemm, out,
                    out_row);
  uint64_t flops = 0;
  for (size_t i = begin; i < end; ++i) {
    double* x_i = out->RowPtr(out_row + (i - begin));
    for (size_t j = 0; j < d; ++j) x_i[j] -= xm[j];
    flops += 2ull * y.RowNnz(i) * d + d;
  }
  return flops;
}

/// Bytes one partition's YtX/XtX partial results occupy on the wire. On
/// Spark with sparse input, only the indices of the touched rows of the
/// YtX partial are passed to the accumulator (Section 4.2); the MapReduce
/// stateful combiner writes the full dense partial (Section 4.1).
uint64_t PartialResultBytes(const Engine& engine, const DistMatrix& y,
                            bool mean_propagation, size_t touched_rows,
                            size_t d, bool include_xtx) {
  const size_t dim = y.cols();
  uint64_t ytx_bytes;
  if (engine.mode() == EngineMode::kSpark && y.is_sparse() &&
      mean_propagation) {
    ytx_bytes = touched_rows * d * (sizeof(double) + sizeof(uint32_t));
  } else {
    ytx_bytes = dim * d * sizeof(double);
  }
  const uint64_t xtx_bytes = include_xtx ? d * d * sizeof(double) : 0;
  return ytx_bytes + xtx_bytes;
}

/// Routes a task's partial-result bytes per platform: MapReduce mapper
/// output travels through the DFS between the map and reduce phases
/// (intermediate data), whereas Spark accumulator updates flow straight to
/// the driver (result data).
void EmitPartial(const Engine& engine, TaskContext* ctx, uint64_t bytes) {
  if (engine.mode() == EngineMode::kMapReduce) {
    ctx->EmitIntermediate(bytes);
  } else {
    ctx->EmitResult(bytes);
  }
}

}  // namespace

DenseVector MeanJob(Engine* engine, const DistMatrix& y) {
  const size_t dim = y.cols();
  auto partials = engine->RunMap<DenseVector>(
      dist::JobDesc{"meanJob", "preprocess"}, y,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector sums(dim);
        uint64_t entries = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          y.ForEachEntry(i, [&](size_t k, double v) { sums[k] += v; });
          entries += y.RowNnz(i);
        }
        ctx->CountFlops(entries);
        EmitPartial(*engine, ctx, dim * sizeof(double));
        return sums;
      });
  DenseVector mean(dim);
  for (const auto& partial : partials) mean.Add(partial);
  if (y.rows() > 0) mean.Scale(1.0 / static_cast<double>(y.rows()));
  engine->CountDriverFlops(partials.size() * dim + dim);
  return mean;
}

double FrobeniusNormJob(Engine* engine, const DistMatrix& y,
                        const DenseVector& ym, bool efficient) {
  SPCA_CHECK_EQ(ym.size(), y.cols());
  engine->Broadcast(ym.size() * sizeof(double));
  const size_t dim = y.cols();

  std::vector<double> partials;
  if (efficient) {
    // Algorithm 3: msum = ||Ym||^2 once; per row, adjust only at stored
    // entries: (v - m)^2 replaces the m^2 already counted in msum.
    const double msum = ym.SquaredNorm();
    partials = engine->RunMap<double>(
        dist::JobDesc{"FnormJob", "preprocess"}, y,
        [&](const RowRange& range, TaskContext* ctx) {
          double sum = 0.0;
          uint64_t entries = 0;
          for (size_t i = range.begin; i < range.end; ++i) {
            double row_sum = msum;
            y.ForEachEntry(i, [&](size_t k, double v) {
              const double centered = v - ym[k];
              row_sum += centered * centered - ym[k] * ym[k];
            });
            sum += row_sum;
            entries += y.RowNnz(i);
          }
          ctx->CountFlops(4 * entries + range.size());
          ctx->EmitResult(sizeof(double));
          return sum;
        });
  } else {
    // Algorithm 2: densify Yc_i = Y_i - Ym and iterate all D entries.
    partials = engine->RunMap<double>(
        dist::JobDesc{"FnormJob(simple)", "preprocess"}, y,
        [&](const RowRange& range, TaskContext* ctx) {
          DenseVector dense(dim);
          double sum = 0.0;
          for (size_t i = range.begin; i < range.end; ++i) {
            for (size_t k = 0; k < dim; ++k) dense[k] = -ym[k];
            y.ForEachEntry(i, [&](size_t k, double v) { dense[k] += v; });
            // DotRow's `init` splices the squares into the running sum
            // left-to-right, exactly like the scalar loop it replaces.
            sum = linalg::kernels::DotRow(dense.data(), dense.data(), dim,
                                          sum);
          }
          ctx->CountFlops(3ull * dim * range.size());
          ctx->EmitResult(sizeof(double));
          return sum;
        });
  }
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

DenseMatrix MaterializeXJob(Engine* engine, const DistMatrix& y,
                            const DenseVector& ym, const DenseVector& xm,
                            const DenseMatrix& cm, const JobToggles& toggles) {
  const size_t d = cm.cols();
  engine->Broadcast(cm.ByteSize() + (ym.size() + xm.size()) * sizeof(double));
  DenseMatrix x(y.rows(), d);
  engine->RunMap<int>(
      dist::JobDesc{"XJob", "em_iteration"}, y,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector dense_scratch(toggles.mean_propagation ? 0 : y.cols());
        uint64_t flops = 0;
        for (size_t b0 = range.begin; b0 < range.end; b0 += kRowBlock) {
          const size_t b1 = std::min(range.end, b0 + kRowBlock);
          flops += ComputeXBlock(y, b0, b1, cm, ym, xm, nullptr,
                                 toggles.mean_propagation, &dense_scratch, &x,
                                 b0);
        }
        ctx->CountFlops(flops);
        // X is intermediate data: written out for the consumer jobs.
        ctx->EmitIntermediate(range.size() * d * sizeof(double));
        return 0;
      });
  return x;
}

namespace {

/// Per-partition results of the YtX pass besides the D x d YtX partial,
/// which lives in the YtXWorkspace.
struct YtXPartial {
  DenseMatrix xtx;      // d x d (empty if XtX not requested)
  DenseVector xc_sum;   // sum of centered X rows (for the -Ym (x) sum term)
  size_t touched_rows = 0;
};

/// Shared per-partition pass accumulating XtX (want_xtx) and/or YtX into
/// `ytx` (a zeroed D x d partial, or null when YtX is not requested).
YtXPartial RunYtXPartition(const DistMatrix& y, const RowRange& range,
                           const DenseVector& ym, const DenseVector& xm,
                           const DenseMatrix& cm,
                           const DenseMatrix* materialized_x,
                           const JobToggles& toggles, bool want_xtx,
                           DenseMatrix* ytx, TaskContext* ctx) {
  const size_t d = cm.cols();
  const size_t dim = y.cols();
  YtXPartial partial;
  partial.xc_sum = DenseVector(d);
  if (want_xtx) partial.xtx = DenseMatrix(d, d);
  // Sparse rows under mean propagation record which partial rows they
  // touch: the Spark accumulator ships only those.
  std::vector<uint8_t> touched(
      ytx != nullptr && toggles.mean_propagation && y.is_sparse() ? dim : 0,
      0);

  DenseVector dense_scratch(toggles.mean_propagation ? 0 : dim);
  DenseMatrix x_blk(std::min(kRowBlock, range.size()), d);
  uint64_t flops = 0;
  for (size_t b0 = range.begin; b0 < range.end; b0 += kRowBlock) {
    const size_t b1 = std::min(range.end, b0 + kRowBlock);
    flops += ComputeXBlock(y, b0, b1, cm, ym, xm, materialized_x,
                           toggles.mean_propagation, &dense_scratch, &x_blk,
                           0);
    for (size_t i = b0; i < b1; ++i) {
      linalg::kernels::AddRow(x_blk.RowPtr(i - b0), d,
                              partial.xc_sum.data());
    }
    if (want_xtx) {
      // Upper triangle only; mirrored once after the block loop. The flop
      // count stays the cost model's full 2*d*d per row — the model
      // charges the algorithmic work, not this implementation's speed.
      linalg::kernels::BlockSymRankUpdate(x_blk.data(), x_blk.row_stride(),
                                          b1 - b0, d, partial.xtx.data(),
                                          partial.xtx.row_stride());
      flops += (b1 - b0) * 2ull * d * d;
    }
    if (ytx == nullptr) continue;
    if (toggles.mean_propagation) {
      // Y_blk' (x) X_blk over the stored entries, the rows added in order;
      // the -Ym (x) sum(Xc) term is applied once on the driver.
      y.AddRowsOuterProduct(b0, b1, x_blk, ytx);
      for (size_t i = b0; i < b1; ++i) {
        flops += 2ull * y.RowNnz(i) * d;
        if (touched.empty()) continue;
        y.ForEachEntry(i, [&](size_t k, double) { touched[k] = 1; });
      }
    } else {
      // Dense centered row outer products (all D rows touched).
      for (size_t i = b0; i < b1; ++i) {
        DensifyCentered(y, i, ym, &dense_scratch);
        linalg::kernels::Rank1Update(dense_scratch.data(), dim,
                                     x_blk.RowPtr(i - b0), d, ytx->data(),
                                     ytx->row_stride());
      }
      flops += (b1 - b0) * (2ull * dim * d + dim);
    }
  }
  if (want_xtx) {
    linalg::kernels::SymMirrorLower(partial.xtx.data(), d,
                                    partial.xtx.row_stride());
  }
  partial.touched_rows =
      touched.empty() ? dim
                      : static_cast<size_t>(
                            std::count(touched.begin(), touched.end(), 1));
  ctx->CountFlops(flops);
  return partial;
}

}  // namespace

YtXResult YtXJob(Engine* engine, const DistMatrix& y, const DenseVector& ym,
                 const DenseVector& xm, const DenseMatrix& cm,
                 const DenseMatrix* materialized_x, const JobToggles& toggles,
                 YtXWorkspace* workspace) {
  SPCA_CHECK_EQ(cm.rows(), y.cols());
  const size_t d = cm.cols();
  const size_t dim = y.cols();
  YtXWorkspace call_workspace;
  if (workspace == nullptr) workspace = &call_workspace;
  std::vector<DenseMatrix>& ytx_partials = workspace->partials;
  ytx_partials.resize(y.num_partitions());

  // CM, Ym, and Xm are broadcast to every worker (the in-memory matrix
  // multiplication of Section 3.3).
  engine->Broadcast(cm.ByteSize() + (ym.size() + xm.size()) * sizeof(double));

  auto run = [&](const dist::JobDesc& job, bool want_xtx, bool want_ytx) {
    return engine->RunMap<YtXPartial>(
        job, y, [&](const RowRange& range, TaskContext* ctx) {
          DenseMatrix* ytx = nullptr;
          if (want_ytx) {
            // This partition's partial, zeroed by every attempt. A task's
            // attempts run one after another on the worker that claimed
            // it and only the last one is merged, so the buffer holds
            // exactly what a fresh allocation would.
            ytx = &ytx_partials[range.partition_index];
            if (ytx->rows() == dim && ytx->cols() == d) {
              ytx->SetZero();
            } else {
              *ytx = DenseMatrix(dim, d);
            }
          }
          YtXPartial partial =
              RunYtXPartition(y, range, ym, xm, cm, materialized_x, toggles,
                              want_xtx, ytx, ctx);
          uint64_t bytes = 0;
          if (want_ytx) {
            bytes += PartialResultBytes(*engine, y, toggles.mean_propagation,
                                        partial.touched_rows, d,
                                        /*include_xtx=*/false);
          }
          if (want_xtx) bytes += d * d * sizeof(double);
          bytes += d * sizeof(double);  // xc_sum
          EmitPartial(*engine, ctx, bytes);
          return partial;
        });
  };

  std::vector<YtXPartial> xtx_partials;
  std::vector<YtXPartial> xc_partials;
  if (toggles.consolidate_jobs) {
    xc_partials = run(dist::JobDesc{"YtXJob", "em_iteration"},
                      /*want_xtx=*/true, /*want_ytx=*/true);
  } else {
    // Unconsolidated: XtX and YtX as two distributed jobs, each generating
    // (or re-reading) X independently (Figure 2 before consolidation).
    xtx_partials = run(dist::JobDesc{"XtXJob", "em_iteration"},
                       /*want_xtx=*/true, /*want_ytx=*/false);
    xc_partials = run(dist::JobDesc{"YtXJob(split)", "em_iteration"},
                      /*want_xtx=*/false, /*want_ytx=*/true);
  }

  YtXResult result;
  result.xtx = DenseMatrix(d, d);
  result.ytx = DenseMatrix(dim, d);
  DenseVector xc_sum(d);
  for (const auto& p : toggles.consolidate_jobs ? xc_partials : xtx_partials) {
    result.xtx.Add(p.xtx);
  }
  for (const auto& p : xc_partials) xc_sum.Add(p.xc_sum);
  // YtX = sum_i Y_i' (x) Xc_i  -  Ym (x) sum_i Xc_i  (mean propagation).
  // The D x d merge runs in row blocks on the pool: each block adds the
  // partials in partition order, then applies the fix-up to its own rows,
  // so every element sees the same operations for any block count. The
  // blocks are walked in slices of about 32 KB so the output slice stays
  // in L1 while the partials stream through it. AxpyRow with -m: (-m)*s
  // and then adding is bit-identical to subtracting m*s (IEEE negation is
  // exact).
  const size_t slice_rows = std::max<size_t>(1, 4096 / d);
  engine->DriverForRowBlocks(
      dim, engine->DriverParts(uint64_t{ytx_partials.size()} * dim * d),
      [&](size_t begin, size_t end) {
        for (size_t s0 = begin; s0 < end; s0 += slice_rows) {
          const size_t s1 = std::min(end, s0 + slice_rows);
          double* out = result.ytx.RowPtr(s0);
          for (const DenseMatrix& p : ytx_partials) {
            linalg::kernels::AddRow(p.RowPtr(s0), (s1 - s0) * d, out);
          }
          if (!toggles.mean_propagation) continue;
          for (size_t k = s0; k < s1; ++k) {
            const double m = ym[k];
            if (m == 0.0) continue;
            linalg::kernels::AxpyRow(-m, xc_sum.data(), d,
                                     result.ytx.RowPtr(k));
          }
        }
      });
  if (toggles.mean_propagation) engine->CountDriverFlops(2ull * dim * d);
  engine->CountDriverFlops(ytx_partials.size() * (dim * d + d * d));
  return result;
}

double Ss3Job(Engine* engine, const DistMatrix& y, const DenseVector& ym,
              const DenseVector& xm, const DenseMatrix& cm,
              const DenseMatrix& c, const DenseMatrix* materialized_x,
              const JobToggles& toggles) {
  SPCA_CHECK_EQ(c.rows(), y.cols());
  const size_t d = c.cols();
  const size_t dim = y.cols();
  engine->Broadcast(cm.ByteSize() + c.ByteSize() +
                    (ym.size() + xm.size()) * sizeof(double));

  // Driver precomputes C' * Ym (mean propagation of the C' * Yc_n' term).
  DenseVector ctym(d);
  if (toggles.mean_propagation) {
    for (size_t k = 0; k < dim; ++k) {
      const double m = ym[k];
      if (m == 0.0) continue;
      linalg::kernels::AxpyRow(m, c.RowPtr(k), d, ctym.data());
    }
    engine->CountDriverFlops(2ull * dim * d);
  }

  // Under mean propagation a block's C' * Y_i' rows come from one
  // RowsTimesMatrix, in AxpyRow-per-entry order over the stored entries.
  const bool block_v = toggles.ss3_associativity && toggles.mean_propagation;
  auto partials = engine->RunMap<double>(
      dist::JobDesc{"ss3Job", "em_iteration"}, y,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector x_row(d);
        DenseVector v(d);
        DenseVector dense_scratch(toggles.mean_propagation ? 0 : dim);
        DenseVector u(toggles.ss3_associativity ? 0 : dim);
        const size_t block_rows = std::min(kRowBlock, range.size());
        DenseMatrix x_blk(block_rows, d);
        DenseMatrix v_blk(block_v ? block_rows : 0, d);
        double sum = 0.0;
        uint64_t flops = 0;
        for (size_t b0 = range.begin; b0 < range.end; b0 += kRowBlock) {
          const size_t b1 = std::min(range.end, b0 + kRowBlock);
          flops += ComputeXBlock(y, b0, b1, cm, ym, xm, materialized_x,
                                 toggles.mean_propagation, &dense_scratch,
                                 &x_blk, 0);
          if (block_v) {
            y.RowsTimesMatrix(b0, b1, c, linalg::kernels::GemmOrder::kAxpyRow,
                              &v_blk);
          }
          for (size_t i = b0; i < b1; ++i) {
            std::memcpy(x_row.data(), x_blk.RowPtr(i - b0),
                        d * sizeof(double));
            if (toggles.ss3_associativity) {
              // Efficient order (Equation 3): v = C' * Yc_i', then X_i . v.
              if (toggles.mean_propagation) {
                std::memcpy(v.data(), v_blk.RowPtr(i - b0),
                            d * sizeof(double));
                v.Subtract(ctym);
                flops += 2ull * y.RowNnz(i) * d + d;
              } else {
                DensifyCentered(y, i, ym, &dense_scratch);
                v.SetZero();
                linalg::kernels::RowGemm(dense_scratch.data(), dim, c.data(),
                                         c.row_stride(), d, v.data());
                flops += 2ull * dim * d + dim;
              }
              sum += x_row.Dot(v);
              flops += 2ull * d;
            } else {
              // Inefficient order: u = X_i * C' (a dense D-vector) first.
              for (size_t k = 0; k < dim; ++k) {
                u[k] = linalg::kernels::DotRow(x_row.data(), c.RowPtr(k), d);
              }
              flops += 2ull * dim * d;
              // Then u . Yc_i' (mean-propagated or dense).
              double dot = 0.0;
              y.ForEachEntry(i,
                             [&](size_t k, double val) { dot += u[k] * val; });
              for (size_t k = 0; k < dim; ++k) dot -= u[k] * ym[k];
              flops += 2ull * (y.RowNnz(i) + dim);
              sum += dot;
            }
          }
        }
        ctx->CountFlops(flops);
        ctx->EmitResult(sizeof(double));
        return sum;
      });

  double ss3 = 0.0;
  for (double p : partials) ss3 += p;
  return ss3;
}

}  // namespace spca::core
