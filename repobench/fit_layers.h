// The fit side of the benchmark: input generation, one fit per engine,
// the benchmark's own accuracy reference, and the traced per-layer
// decomposition of a fit (anchor, evaluation, EM loop, driver algebra,
// distributed jobs, engine accounting, pool dispatch, task kernels).
#ifndef REPOBENCH_FIT_LAYERS_H_
#define REPOBENCH_FIT_LAYERS_H_

#include <string>

#include "bench.h"
#include "core/pca_model.h"
#include "dist/comm_stats.h"
#include "dist/dist_matrix.h"
#include "obs/registry.h"
#include "workload/datasets.h"

namespace repobench {

/// Rows in the reference accuracy sample (the library's standard
/// evaluation sample size, pinned so the reference cannot drift with it).
inline constexpr size_t kReferenceSampleRows = 256;

/// The workload's input for `seed`; the same seed gives the same matrix.
spca::workload::Dataset Generate(const Spec& spec, uint64_t seed);

/// One fit on its own freshly constructed engine, as spca_cli runs it.
struct FitResult {
  bool ok = false;
  std::string error;
  spca::core::PcaModel model;
  int iterations = 0;
  double wall_s = 0.0;
  spca::dist::CommStats stats;
};

/// Fits `y` with the spec's options and initialization seed `init_seed`.
/// `registry`, when non-null, receives the engine's and solver's spans.
FitResult FitOnce(const Spec& spec, const spca::dist::DistMatrix& y,
                  uint64_t init_seed, spca::obs::Registry* registry);

/// The benchmark's accuracy reference: ConvergedIdealError with the
/// spec's pinned iteration count on the standard error sample, and
/// unclamped percentages against it.
class AccuracyReference {
 public:
  AccuracyReference(const Spec& spec, const spca::dist::DistMatrix& y);
  /// 100 * ideal error / the model's sampled error, not clamped.
  double Percent(const spca::core::PcaModel& model) const;
  double ideal_error() const { return ideal_error_; }

 private:
  spca::dist::DistMatrix sample_;
  double ideal_error_ = 0.0;
};

/// Per-layer metrics of the fit at the workload's shapes, added to `out`
/// (every fit-side per-layer metric, including the trace coverage ones).
/// Also runs the decomposed-iteration bit-identity check. Returns the
/// model of the last plain fit for the serving layers.
spca::core::PcaModel MeasureFitLayers(const Spec& spec,
                                      const spca::dist::DistMatrix& y,
                                      spca::obs::Registry* registry,
                                      Outcome* out);

}  // namespace repobench

#endif  // REPOBENCH_FIT_LAYERS_H_
