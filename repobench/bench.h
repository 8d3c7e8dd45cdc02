// Shared pieces of the repository benchmark: workload specs, the metric
// sink that becomes the result line, order statistics, and the span helper
// every per-layer measurement goes through.
#ifndef REPOBENCH_BENCH_H_
#define REPOBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "core/spca_options.h"
#include "obs/registry.h"
#include "workload/datasets.h"

namespace repobench {

// Settings every workload shares.
inline constexpr size_t kPartitions = 16;  // spca_cli's default
/// EM iterations of the benchmark's own reference anchor
/// (ConvergedIdealError), pinned so a changed library default shows up in
/// accuracy_pct instead of silently moving the reference.
inline constexpr int kAnchorIterations = 15;
/// A timed run repeats rounds of set-up (and fit) plus serving, at least
/// kMinRounds of them; each round serves each leg for kPieceShare of
/// --seconds.
inline constexpr size_t kMinRounds = 3;
inline constexpr double kPieceShare = 1.0 / 30.0;
/// Serving legs: Zipfian sparse query rows (load_gen's bag-of-words
/// shape), a closed loop with this many requests in flight, and an open
/// loop at this fixed rate — well below the closed loop's capacity.
inline constexpr size_t kNumQueries = 4096;
inline constexpr double kQueryNnz = 12.0;
inline constexpr size_t kWindow = 1024;
inline constexpr double kOpenQps = 20000.0;
/// Open loop with a second model version: hot swaps between the two per
/// open leg, at a fixed interval.
inline constexpr int kSwapsPerOpenLeg = 4;
/// The serving legs run on one CPU (see CpuConfinement) with a one-thread
/// service, whose dispatcher executes each batch's rows inline: the
/// configuration the socket plane is fastest in, and on a virtualized
/// host far steadier than spreading the hand-offs over several CPUs.
inline constexpr size_t kServingCpus = 1;
inline constexpr size_t kServiceThreads = 1;
inline constexpr size_t kBatchMax = 256;

/// One workload: the input it generates from the seed, the fit it runs,
/// and the serving legs it drives against the fitted model.
struct Spec {
  std::string name;
  spca::workload::DatasetKind kind = spca::workload::DatasetKind::kTweets;
  size_t rows = 0;
  size_t cols = 0;
  spca::core::SpcaOptions fit;
  /// A fit whose unclamped accuracy_pct falls below this fails.
  double accuracy_floor_pct = 0.0;
  /// True: fits are the timed operation, each on freshly generated input.
  /// False: fits happen in set-up and the serving legs are timed.
  bool fits_timed = true;
};

/// The workload table; `small` shrinks every shape for the self-test.
std::vector<Spec> AllSpecs(bool small);

/// A named metric with its unit, in the order it was added.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: metrics, the operation tally, and whether
/// every output check passed.
struct Outcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check (printed to stderr with its reason).
  void Fail(const std::string& why);
};

double Median(std::vector<double> values);
/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
/// Peak resident set size of this process in MiB since the last
/// ResetPeakRss() (or since start).
double PeakRssMb();
/// Restarts the peak count at the current resident set size.
void ResetPeakRss();

/// Runs `fn` inside a wall-track span named `name` with category `layer`
/// (the module the call belongs to) and returns its wall seconds. A null
/// registry times the call without recording a span.
template <typename Fn>
double TimeLayer(spca::obs::Registry* registry, std::string_view name,
                 std::string_view layer, Fn&& fn) {
  spca::obs::Span span(registry, name, layer);
  spca::Stopwatch watch;
  fn();
  const double seconds = watch.ElapsedSeconds();
  span.End();
  return seconds;
}

/// Median nanoseconds of one `body(i)` call, i in [0, count): five
/// repetitions of at least 20 ms each.
template <typename Body>
double NanosPerCall(size_t count, Body&& body) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    size_t calls = 0;
    spca::Stopwatch watch;
    do {
      for (size_t i = 0; i < count; ++i) body(i);
      calls += count;
    } while (watch.ElapsedSeconds() < 0.02);
    reps.push_back(watch.ElapsedSeconds() * 1e9 / static_cast<double>(calls));
  }
  return Median(reps);
}

}  // namespace repobench

#endif  // REPOBENCH_BENCH_H_
