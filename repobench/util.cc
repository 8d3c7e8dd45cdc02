#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace repobench {

std::vector<Spec> AllSpecs(bool small) {
  using spca::workload::DatasetKind;
  std::vector<Spec> specs;

  // The paper's headline, time to a target share of ideal accuracy, on a
  // Tweets-shape sparse binary matrix with every other SpcaOptions default
  // — the hidden anchor fit and the per-iteration evaluation included, as
  // spca_cli pays them. The target is 90%, not the default 95%: at this
  // shape the third EM iteration reaches 92.5-95.6% depending on the seed,
  // so a 95% stop takes three or four iterations (3.78 or 4.89 sim-s) by
  // seed, while every seed reaches 90% at the third (the second stays
  // below 86%).
  Spec tweets;
  tweets.name = "fit_tweets";
  tweets.kind = DatasetKind::kTweets;
  tweets.rows = small ? 4000 : 200000;
  tweets.cols = small ? 400 : 4000;
  tweets.fit.num_components = small ? 10 : 50;
  tweets.fit.target_accuracy_fraction = 0.90;
  tweets.accuracy_floor_pct = 100.0 * tweets.fit.target_accuracy_fraction;
  specs.push_back(tweets);

  // Diabetes-shape dense spectra, fixed 10 EM iterations: no stop
  // condition and no accuracy trace, so the anchor and the evaluation are
  // bypassed and dense task kernels plus the D x d driver algebra dominate.
  Spec spectra;
  spectra.name = "fit_spectra";
  spectra.kind = DatasetKind::kDiabetes;
  spectra.rows = small ? 60 : 353;
  spectra.cols = small ? 500 : 8000;
  spectra.fit.num_components = small ? 10 : 100;
  spectra.fit.max_iterations = 10;
  spectra.fit.target_accuracy_fraction = 2.0;
  spectra.fit.compute_accuracy_trace = false;
  spectra.accuracy_floor_pct = 90.0;
  specs.push_back(spectra);

  // The serving plane: a D = 2000, d = 50 model fitted in set-up, served
  // through a one-shard ShardSet and the socket front-end. A second
  // version (initialization seed 2) is hot-swapped in and out at a fixed
  // interval of the open leg, so writes run beside reads.
  Spec serve;
  serve.name = "serve_socket";
  serve.kind = DatasetKind::kTweets;
  serve.rows = small ? 2000 : 60000;
  serve.cols = small ? 300 : 2000;
  serve.fit.num_components = small ? 10 : 50;
  serve.fit.max_iterations = 10;
  serve.fit.target_accuracy_fraction = 2.0;
  serve.fit.compute_accuracy_trace = false;
  serve.accuracy_floor_pct = 85.0;
  serve.fits_timed = false;
  specs.push_back(serve);
  return specs;
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  // VmHWM, unlike getrusage's ru_maxrss, restarts at ResetPeakRss().
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

}  // namespace repobench
