// repobench: the repository benchmark.
//
//   repobench --workload fit_tweets|fit_spectra|serve_socket --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--small]
//             [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 is the timed run: it reports the end-to-end metrics (set-up,
// fit wall and simulated seconds, unclamped accuracy, closed-loop socket
// throughput, open-loop latency, peak memory). --trace 1
// calls each layer's public functions at the workload's shapes inside
// spans, reports the per-layer metrics, writes the spans as a Chrome trace
// to --trace-out (readable by tools/trace_report) and checks one
// decomposed EM iteration bit for bit against Spca::Solve.
//
// Every run prints a `fingerprint {...}` line (host, build, seed, input
// digest, every workload parameter) and ends with one JSON line:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// where failed counts failed or incorrect fits and requests.
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "fit_layers.h"
#include "linalg/kernel_dispatch.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace_file.h"
#include "serve_legs.h"

namespace repobench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--small] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.trace && args.trace_out.empty()) Usage("--trace 1 needs --trace-out");
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// FNV-1a over the generated inputs, so a changed seed visibly changes
/// them.
std::string InputDigest(const spca::dist::DistMatrix& y,
                        const std::vector<spca::workload::Query>& queries) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash = (hash ^ p[i]) * 1099511628211ull;
    }
  };
  const uint64_t stored = y.StoredEntries();
  const double norm = y.FrobeniusNorm2();
  mix(&stored, sizeof(stored));
  mix(&norm, sizeof(norm));
  for (const auto& query : queries) {
    for (const auto& entry : query.sparse.entries()) {
      mix(&entry.index, sizeof(entry.index));
      mix(&entry.value, sizeof(entry.value));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

void PrintFingerprint(const Args& args, const Spec& spec,
                      const std::string& input_digest) {
  using spca::obs::JsonEscape;
  using spca::obs::JsonNumber;
  std::string s = "{";
  auto field = [&](const char* key, const std::string& json) {
    if (s.size() > 1) s += ", ";
    s += "\"" + std::string(key) + "\": " + json;
  };
  auto str = [](const std::string& v) { return "\"" + JsonEscape(v) + "\""; };
  field("nproc", JsonNumber(std::thread::hardware_concurrency()));
  field("cpu_model", str(CpuModel()));
  field("isa", str(spca::linalg::kernels::DispatchedIsaName()));
  field("compiler", str(REPOBENCH_COMPILER));
  field("build_type", str(REPOBENCH_BUILD_TYPE));
  field("git_sha", str(args.git_sha));
  field("source_digest", str(args.source_digest));
  field("workload", str(spec.name));
  field("seed", JsonNumber(static_cast<double>(args.seed)));
  field("seconds", JsonNumber(args.seconds));
  field("trace", args.trace ? "1" : "0");
  field("scale", str(args.small ? "small" : "full"));
  field("input_digest", str(input_digest));
  field("dataset", str(spca::workload::DatasetKindToString(spec.kind)));
  field("rows", JsonNumber(spec.rows));
  field("cols", JsonNumber(spec.cols));
  field("partitions", JsonNumber(kPartitions));
  field("components", JsonNumber(spec.fit.num_components));
  field("max_iterations", JsonNumber(spec.fit.max_iterations));
  field("target_accuracy_fraction", JsonNumber(spec.fit.target_accuracy_fraction));
  field("compute_accuracy_trace", spec.fit.compute_accuracy_trace ? "true" : "false");
  field("ideal_fit_iterations", JsonNumber(spec.fit.ideal_fit_iterations));
  field("error_sample_rows", JsonNumber(spec.fit.error_sample_rows));
  field("anchor_iterations", JsonNumber(kAnchorIterations));
  field("accuracy_floor_pct", JsonNumber(spec.accuracy_floor_pct));
  field("fits_timed", spec.fits_timed ? "true" : "false");
  field("min_rounds", JsonNumber(kMinRounds));
  field("piece_share", JsonNumber(kPieceShare));
  field("num_queries", JsonNumber(kNumQueries));
  field("query_nnz", JsonNumber(kQueryNnz));
  field("window", JsonNumber(kWindow));
  field("open_qps", JsonNumber(kOpenQps));
  field("swaps_per_open_leg", JsonNumber(kSwapsPerOpenLeg));
  field("service_threads", JsonNumber(kServiceThreads));
  field("batch_max", JsonNumber(kBatchMax));
  field("serving_cpus", JsonNumber(kServingCpus));
  std::printf("fingerprint %s}\n", s.c_str());
}

/// Reports an open leg's hot swaps and generator lateness, and flags a
/// leg whose generator sent late (p99 lateness above 1 ms).
void ReportLateness(const char* leg, const LegStats& stats) {
  const double late_p99 = Quantile(stats.late_ms, 0.99);
  std::printf("%s: %zu hot swaps; generator lateness p50 %.4f ms p99 %.4f ms "
              "over %zu sends%s\n",
              leg, stats.swap_ms.size(), Quantile(stats.late_ms, 0.5), late_p99,
              stats.late_ms.size(),
              late_p99 > 1.0 ? "  [GENERATOR FELL BEHIND]" : "");
}

void PrintSamples(const char* what, const std::vector<double>& samples) {
  std::printf("%s:", what);
  for (const double v : samples) std::printf(" %.4g", v);
  std::printf("\n");
}

void AddLeg(const LegStats& leg, Outcome* out) {
  out->attempted += leg.attempted;
  out->failed += leg.failed;
  if (leg.failed > 0) {
    out->Fail(std::to_string(leg.failed) + " of " +
              std::to_string(leg.attempted) + " requests failed");
  }
}

void CheckFit(const Spec& spec, const FitResult& fit,
              const AccuracyReference& reference, Outcome* out,
              std::vector<double>* accuracy) {
  ++out->attempted;
  if (!fit.ok) {
    ++out->failed;
    out->Fail("fit failed: " + fit.error);
    return;
  }
  const double pct = reference.Percent(fit.model);
  accuracy->push_back(pct);
  if (!(pct >= spec.accuracy_floor_pct)) {
    ++out->failed;
    out->Fail("accuracy " + std::to_string(pct) + "% below the " +
              std::to_string(spec.accuracy_floor_pct) + "% floor");
  }
}

Outcome TimedRun(const Args& args, const Spec& spec) {
  Outcome out;
  // The reference is computed outside every timed region, on its own copy
  // of the input; the peak-memory count starts after it.
  std::unique_ptr<AccuracyReference> reference;
  std::string digest;
  {
    const auto data = Generate(spec, args.seed);
    reference = std::make_unique<AccuracyReference>(spec, data.matrix);
    digest = InputDigest(data.matrix,
                         MakeQueries(spec.cols, args.seed + 1));
  }
  ResetPeakRss();
  PrintFingerprint(args, spec, digest);
  std::printf("%s: reference ideal error %.17g (%d-iteration anchor)\n",
              spec.name.c_str(), reference->ideal_error(),
              kAnchorIterations);

  std::vector<double> setup_s, fit_s, sim_s, accuracy;
  auto record = [&](const FitResult& fit) {
    CheckFit(spec, fit, *reference, &out, &accuracy);
    if (!fit.ok) return;
    fit_s.push_back(fit.wall_s);
    sim_s.push_back(fit.stats.simulated_seconds);
  };

  // The run repeats rounds: a set-up, then a closed and an open piece of
  // serving on the round's models. A fit workload's set-up is fresh input,
  // followed by the timed fit on its own engine; a serving workload's is
  // input, two model versions and a server start. A virtualized host's
  // CPU speed shifts by up to ~40% for ~10 s at a time, so serving pieces
  // spread over the whole run sample several such spells where one
  // serving phase would land in one.
  const double piece_s = args.seconds * kPieceShare;
  LegStats closed, open;
  spca::Stopwatch run;
  auto another_round = [&](size_t done) {
    // Not when, at the mean round time so far, it would end past --seconds.
    return done < kMinRounds ||
           run.ElapsedSeconds() * static_cast<double>(done + 1) <
               args.seconds * static_cast<double>(done);
  };
  for (size_t round = 0; out.correct && another_round(round); ++round) {
    std::vector<FitResult> fits;
    std::unique_ptr<ServingPlane> plane;
    bool started = false;
    {
      spca::Stopwatch setup;
      const auto data = Generate(spec, args.seed);
      if (spec.fits_timed) setup_s.push_back(setup.ElapsedSeconds());
      fits.push_back(FitOnce(spec, data.matrix, spec.fit.seed, nullptr));
      if (!spec.fits_timed) {
        fits.push_back(FitOnce(spec, data.matrix, spec.fit.seed + 1, nullptr));
      }
      std::vector<spca::core::PcaModel> versions;
      for (const FitResult& fit : fits) {
        if (fit.ok) versions.push_back(fit.model);
      }
      if (versions.size() == fits.size()) {
        CpuConfinement confined(kServingCpus);
        plane = std::make_unique<ServingPlane>(
            std::move(versions), MakeQueries(spec.cols, args.seed + 1));
        started = plane->Start().ok();
      }
      if (!spec.fits_timed) setup_s.push_back(setup.ElapsedSeconds());
    }
    for (const FitResult& fit : fits) record(fit);
    if (!out.correct) break;
    if (!started) {
      out.Fail("serving plane failed to start");
      break;
    }
    CpuConfinement confined(kServingCpus);
    closed.Append(plane->RunClosed(piece_s));
    open.Append(plane->RunOpen(piece_s, args.seed + 2 + round));
  }
  AddLeg(closed, &out);
  AddLeg(open, &out);

  std::printf("%s: setup_s median of %zu set-ups; fit_s, sim_s median of %zu "
              "fits; accuracy_pct median of %zu fits\n",
              spec.name.c_str(), setup_s.size(), fit_s.size(), accuracy.size());
  std::printf("%s: serve_qps mean of %zu closed-loop slices (window %zu) "
              "in %zu rounds; serve_p50_ms median of %zu open-loop slices "
              "over %zu requests at %.0f/s; p99 (ungated, see serve.p99_ms) "
              "%.4f ms\n",
              spec.name.c_str(), closed.slice_qps.size(), kWindow,
              setup_s.size(),
              open.slice_p50_ms.size(), open.latency_ms.size(), kOpenQps,
              Median(open.slice_p99_ms));
  ReportLateness("open leg", open);
  PrintSamples("setup_s", setup_s);
  PrintSamples("fit_s", fit_s);
  PrintSamples("serve_qps slices", closed.slice_qps);
  PrintSamples("serve_p50_ms slices", open.slice_p50_ms);
  PrintSamples("serve_p99_ms slices", open.slice_p99_ms);

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("fit_s", Median(fit_s), "s");
  out.Add("sim_s", Median(sim_s), "sim-s");
  out.Add("accuracy_pct", Median(accuracy), "%");
  out.Add("serve_qps", Mean(closed.slice_qps), "1/s");
  out.Add("serve_p50_ms", Median(open.slice_p50_ms), "ms");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

Outcome TracedRun(const Args& args, const Spec& spec) {
  Outcome out;
  spca::obs::Registry registry;
  spca::obs::Span root(&registry, "repobench." + spec.name, "bench");

  spca::workload::Dataset data;
  std::vector<spca::workload::Query> queries;
  const double gen_s =
      TimeLayer(&registry, "workload.generate", "workload",
                [&] { data = Generate(spec, args.seed); }) +
      TimeLayer(&registry, "workload.queries", "workload",
                [&] { queries = MakeQueries(spec.cols, args.seed + 1); });
  double query_bytes = 0.0;
  for (const auto& query : queries) {
    query_bytes += query.sparse.nnz() * sizeof(spca::linalg::SparseEntry);
  }
  PrintFingerprint(args, spec, InputDigest(data.matrix, queries));
  out.Add("workload.gen_s", gen_s, "s");
  out.Add("workload.bytes", static_cast<double>(data.matrix.ByteSize()) + query_bytes,
          "bytes");

  spca::core::PcaModel model = MeasureFitLayers(spec, data.matrix, &registry, &out);
  if (!out.correct) return out;
  std::vector<spca::core::PcaModel> versions = {model};
  if (!spec.fits_timed) {
    FitResult second = FitOnce(spec, data.matrix, spec.fit.seed + 1, nullptr);
    ++out.attempted;
    if (!second.ok) {
      ++out.failed;
      out.Fail("fit failed: " + second.error);
      return out;
    }
    versions.push_back(std::move(second.model));
  }

  // serve: projector, in-process service under the open leg's schedule
  // and swaps; net: the same schedule through the socket front-end.
  const double leg_seconds = std::max(0.3, 0.1 * args.seconds);
  CpuConfinement confined(kServingCpus);
  ServingPlane plane(versions, queries);
  if (!plane.Start().ok()) {
    out.Fail("serving plane failed to start");
    return out;
  }
  double project_ns = 0.0;
  TimeLayer(&registry, "serve.project", "serve", [&] {
    project_ns = ProjectNanos(plane.expectations().projector(0), queries);
  });
  spca::obs::Registry service_metrics;
  LegStats in_process, socket;
  TimeLayer(&registry, "serve.in_process_open", "serve", [&] {
    in_process = RunInProcessOpen(versions, queries, plane.expectations(),
                                  leg_seconds, args.seed + 2, &service_metrics);
  });
  auto net_bytes = [&] {
    const auto* in = plane.metrics()->FindCounter("net.bytes_in");
    const auto* sent = plane.metrics()->FindCounter("net.bytes_out");
    return (in ? in->value() : 0.0) + (sent ? sent->value() : 0.0);
  };
  const double bytes_before = net_bytes();
  TimeLayer(&registry, "net.socket_open", "net",
            [&] { socket = plane.RunOpen(leg_seconds, args.seed + 2); });
  const double bytes_per_req =
      (net_bytes() - bytes_before) / static_cast<double>(socket.attempted);
  AddLeg(in_process, &out);
  AddLeg(socket, &out);

  auto histogram_ms = [&](const char* name, double q) {
    const auto* histogram = service_metrics.FindHistogram(name);
    return histogram != nullptr && histogram->count() > 0
               ? 1e3 * histogram->Quantile(q)
               : 0.0;
  };
  const auto* ok = service_metrics.FindCounter("serve.ok");
  const auto* batches = service_metrics.FindCounter("serve.batches");
  std::vector<double> swaps = in_process.swap_ms;
  swaps.insert(swaps.end(), socket.swap_ms.begin(), socket.swap_ms.end());
  out.Add("serve.project_ns", project_ns, "ns");
  out.Add("serve.queue_ms_p99", histogram_ms("serve.queue_sec", 0.99), "ms");
  out.Add("serve.exec_ms_p50", histogram_ms("serve.batch_exec_sec", 0.50), "ms");
  out.Add("serve.batch_mean",
          ok != nullptr && batches != nullptr && batches->value() > 0
              ? ok->value() / batches->value()
              : 0.0,
          "count");
  out.Add("serve.swap_ms", Median(swaps), "ms");
  out.Add("serve.p99_ms", Median(socket.slice_p99_ms), "ms");
  out.Add("net.overhead_ms_p50",
          Median(socket.latency_ms) - Median(in_process.latency_ms), "ms");
  out.Add("net.bytes_per_req", bytes_per_req, "bytes");
  out.Add("serve.gen_late_ms", Quantile(socket.late_ms, 0.99), "ms");
  ReportLateness("in-process open leg", in_process);
  ReportLateness("socket open leg", socket);
  root.End();

  // The trace must read back through the parser tools/trace_report uses.
  const spca::Status written = spca::obs::WriteFile(
      args.trace_out, spca::obs::ChromeTraceJson(registry));
  const auto parsed = spca::obs::LoadTraceFile(args.trace_out);
  if (!written.ok() || !parsed.ok() || parsed.value().spans.empty()) {
    out.Fail("trace " + args.trace_out + " did not round-trip");
  } else {
    std::printf("trace: %zu spans written to %s\n",
                parsed.value().spans.size(), args.trace_out.c_str());
  }
  return out;
}

void PrintResult(Outcome out) {
  std::string metrics;
  for (const Metric& metric : out.metrics) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      out.Fail("metric " + metric.name + " is not finite");
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " +
               spca::obs::JsonNumber(value) + ", \"unit\": \"" + metric.unit +
               "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct && out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, out.attempted)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
  // A server cut off mid-leg must surface as failed requests, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const repobench::Args args = repobench::ParseArgs(argc, argv);
  for (const repobench::Spec& spec : repobench::AllSpecs(args.small)) {
    if (spec.name != args.workload) continue;
    repobench::PrintResult(args.trace ? repobench::TracedRun(args, spec)
                                      : repobench::TimedRun(args, spec));
    return 0;
  }
  repobench::Usage(("unknown workload " + args.workload).c_str());
}
