// The serving side of the benchmark: a one-shard ShardSet behind the
// socket front-end, driven by a closed loop (one connection, fixed
// in-flight window) and an open loop (fixed arrival rate, optionally with
// two model versions hot-swapped at a fixed interval), plus the
// in-process ProjectionService leg the per-layer metrics compare against.
// Every response is checked bit for bit against Projector::Project of one
// of the live model versions.
#ifndef REPOBENCH_SERVE_LEGS_H_
#define REPOBENCH_SERVE_LEGS_H_

#include <sched.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "core/pca_model.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_set.h"
#include "obs/registry.h"
#include "serve/projector.h"
#include "workload/load_gen.h"

namespace repobench {

/// Confines the calling thread, and every thread it starts while this
/// object lives, to the last `count` CPUs it may use; the previous mask is
/// restored on destruction. The serving legs run inside one, so the
/// request path's thread hand-offs (client, front-end loop, dispatcher,
/// swapper) stay on one CPU instead of waking idle ones, whose wake-up
/// latency on a virtualized host would swamp the request path's own cost.
class CpuConfinement {
 public:
  explicit CpuConfinement(size_t count);
  ~CpuConfinement();
  CpuConfinement(const CpuConfinement&) = delete;
  CpuConfinement& operator=(const CpuConfinement&) = delete;

 private:
  cpu_set_t saved_;
  bool active_ = false;
};

/// Zipfian sparse query rows of the model's width.
std::vector<spca::workload::Query> MakeQueries(size_t dim, uint64_t seed);

/// Expected coordinates of every query under each model version.
class Expectations {
 public:
  Expectations(const std::vector<spca::core::PcaModel>& versions,
               const std::vector<spca::workload::Query>& queries);
  /// True when `coordinates` bit-equal query `index`'s projection under
  /// one of the versions.
  bool Matches(size_t index, const double* coordinates, size_t count) const;
  const spca::serve::Projector& projector(size_t version) const {
    return projectors_[version];
  }

 private:
  std::vector<spca::serve::Projector> projectors_;
  // expected_[version][query * d + j]
  std::vector<std::vector<double>> expected_;
  size_t d_ = 0;
};

/// What one load leg measured. Failed counts every request that got a
/// non-OK outcome, wrong coordinates, or no response at all.
struct LegStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> slice_qps;     // closed: completions/s per slice
  std::vector<double> slice_p50_ms;  // open: per-slice latency quantiles
  std::vector<double> slice_p99_ms;
  std::vector<double> latency_ms;    // open: from each scheduled send time
  std::vector<double> late_ms;       // open: send time - scheduled time
  std::vector<double> swap_ms;       // open: duration of each hot swap

  /// Adds another piece of the same leg.
  void Append(const LegStats& piece);
};

/// The socket serving plane for one workload. Version 0 is installed at
/// Start(); with a second version the open leg hot-swaps 1, 0, 1, ...
class ServingPlane {
 public:
  ServingPlane(std::vector<spca::core::PcaModel> versions,
               std::vector<spca::workload::Query> queries);
  ~ServingPlane();
  ServingPlane(const ServingPlane&) = delete;
  ServingPlane& operator=(const ServingPlane&) = delete;

  spca::Status Start();
  LegStats RunClosed(double seconds);
  LegStats RunOpen(double seconds, uint64_t schedule_seed);
  /// net.* and serve.* metrics of the plane (shared by both legs).
  spca::obs::Registry* metrics() { return &metrics_; }
  const Expectations& expectations() const { return expectations_; }

 private:
  void Queue(spca::net::Client* client, uint64_t request_id);
  void Check(const spca::net::ClientResponse& response, size_t sent,
             std::vector<uint8_t>* seen, LegStats* leg) const;

  const std::vector<spca::core::PcaModel> versions_;
  const std::vector<spca::workload::Query> queries_;
  const Expectations expectations_;
  spca::obs::Registry metrics_;
  std::unique_ptr<spca::net::ShardSet> shards_;
  std::unique_ptr<spca::net::SocketServer> server_;
};

/// The open leg's schedule and swaps against an in-process
/// ProjectionService (no socket); serve.* metrics land in `metrics`.
LegStats RunInProcessOpen(const std::vector<spca::core::PcaModel>& versions,
                          const std::vector<spca::workload::Query>& queries,
                          const Expectations& expectations, double seconds,
                          uint64_t schedule_seed,
                          spca::obs::Registry* metrics);

/// Median nanoseconds of one Projector::Project call over the queries.
double ProjectNanos(const spca::serve::Projector& projector,
                    const std::vector<spca::workload::Query>& queries);

}  // namespace repobench

#endif  // REPOBENCH_SERVE_LEGS_H_
