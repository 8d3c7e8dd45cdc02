#ifndef SPCA_CORE_JOBS_H_
#define SPCA_CORE_JOBS_H_

#include <vector>

#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"

namespace spca::core {

// Purity contract: every task function these jobs submit to
// Engine::RunMap must depend only on its partition and the broadcast
// inputs — no mutable shared state, no ambient randomness. The
// fault-injection layer (dist/fault.h) re-executes failed attempts of the
// same partition function and discards all but the final attempt, so any
// hidden state would make recovery observable; purity is what keeps
// faulted runs bit-identical to clean ones (asserted by the chaos suite).
// YtXJob's workspace buffers are the one piece of state a task writes
// outside its return value, and every attempt zeroes its buffer first.

/// Per-iteration optimization toggles threaded through the distributed
/// jobs (see SpcaOptions for semantics).
struct JobToggles {
  bool mean_propagation = true;
  bool minimize_intermediate_data = true;
  bool consolidate_jobs = true;
  bool ss3_associativity = true;
};

/// Distributed column-mean job (Algorithm 4 line 3): per-partition column
/// sums reduced on the driver.
linalg::DenseVector MeanJob(dist::Engine* engine,
                            const dist::DistMatrix& y);

/// Distributed Frobenius-norm job (Algorithm 4 line 4): ||Y - Ym||_F^2.
/// `efficient` selects Algorithm 3 (touch only stored entries) versus
/// Algorithm 2 (densify each row first).
double FrobeniusNormJob(dist::Engine* engine, const dist::DistMatrix& y,
                        const linalg::DenseVector& ym, bool efficient);

/// Materializes X = Yc * CM as an N x d matrix — the *unoptimized* path
/// (Figure 1): X becomes intermediate data that every consumer job
/// re-reads. `xm` is Ym' * CM.
linalg::DenseMatrix MaterializeXJob(dist::Engine* engine,
                                    const dist::DistMatrix& y,
                                    const linalg::DenseVector& ym,
                                    const linalg::DenseVector& xm,
                                    const linalg::DenseMatrix& cm,
                                    const JobToggles& toggles);

/// Result of the consolidated YtXJob.
struct YtXResult {
  /// Yc' * X (D x d).
  linalg::DenseMatrix ytx;
  /// X' * X (d x d) — *without* the + ss * M^-1 term, which the driver adds.
  linalg::DenseMatrix xtx;
};

/// The D x d YtX partials of YtXJob, one per partition, kept alive across
/// calls so that an EM fit allocates them once rather than once per
/// iteration. Each task attempt re-zeroes its own partition's buffer, and
/// the merge reads them after the job. A workspace serves one YtXJob at a
/// time; it holds no state that could change a result.
struct YtXWorkspace {
  std::vector<linalg::DenseMatrix> partials;
};

/// The paper's YtXJob (Algorithm 4 line 9 / Algorithm 5): computes XtX and
/// YtX in one pass, generating each row of X on demand from the broadcast
/// CM (unless `materialized_x` is non-null, in which case rows of X are
/// read from it — the unoptimized path). With consolidate_jobs off, XtX
/// and YtX run as two separate distributed jobs. `workspace` holds the
/// partials between calls; null uses a call-local one.
YtXResult YtXJob(dist::Engine* engine, const dist::DistMatrix& y,
                 const linalg::DenseVector& ym, const linalg::DenseVector& xm,
                 const linalg::DenseMatrix& cm,
                 const linalg::DenseMatrix* materialized_x,
                 const JobToggles& toggles, YtXWorkspace* workspace = nullptr);

/// The paper's ss3Job (Algorithm 4 line 13): ss3 = sum_n X_n * C' * Yc_n'.
/// With ss3_associativity, each term is computed as X_n * (C' * Yc_n')
/// (Equation 3's efficient order); otherwise as (X_n * C') * Yc_n'.
double Ss3Job(dist::Engine* engine, const dist::DistMatrix& y,
              const linalg::DenseVector& ym, const linalg::DenseVector& xm,
              const linalg::DenseMatrix& cm, const linalg::DenseMatrix& c,
              const linalg::DenseMatrix* materialized_x,
              const JobToggles& toggles);

}  // namespace spca::core

#endif  // SPCA_CORE_JOBS_H_
