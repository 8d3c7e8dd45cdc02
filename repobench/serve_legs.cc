#include "serve_legs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "net/client.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace repobench {

using spca::workload::Query;

namespace {

constexpr const char* kModelName = "m";
/// A leg still waiting for responses this long after its schedule ends is
/// cut off; whatever is still missing counts as failed.
constexpr double kStallSeconds = 30.0;
/// Open legs: requests per latency slice (p99 of a slice has 25 beyond it).
constexpr size_t kSliceRequests = 2500;
/// Closed legs: seconds per throughput slice.
constexpr double kSliceSeconds = 0.25;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::time_point ToTimePoint(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

/// A helper thread for one load leg: calls `tick` every `period_s` (none
/// when period_s <= 0) and `expire` once if the leg is still running at
/// `deadline`. Joined by Stop() or the destructor.
class LegMonitor {
 public:
  LegMonitor(double period_s, double deadline, std::function<void()> tick,
             std::function<void()> expire)
      : period_s_(period_s),
        deadline_(deadline),
        tick_(std::move(tick)),
        expire_(std::move(expire)) {
    thread_ = std::thread([this] { Run(); });
  }
  ~LegMonitor() { Stop(); }
  LegMonitor(const LegMonitor&) = delete;
  LegMonitor& operator=(const LegMonitor&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mutex_);
    double next = period_s_ > 0.0 ? Now() + period_s_ : deadline_;
    while (!stop_) {
      cv_.wait_until(lock, ToTimePoint(std::min(next, deadline_)),
                     [this] { return stop_; });
      if (stop_) break;
      const double now = Now();
      if (now >= deadline_) {
        lock.unlock();
        expire_();
        return;
      }
      if (period_s_ > 0.0 && now >= next) {
        lock.unlock();
        tick_();
        lock.lock();
        next += period_s_;
      }
    }
  }

  const double period_s_;
  const double deadline_;
  const std::function<void()> tick_;
  const std::function<void()> expire_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::vector<double> Schedule(double seconds, uint64_t seed) {
  spca::workload::ArrivalScheduleConfig config;
  config.qps = kOpenQps;
  config.num_arrivals =
      std::max<size_t>(1, static_cast<size_t>(std::llround(kOpenQps * seconds)));
  config.poisson = true;
  config.seed = seed;
  return spca::workload::GenerateArrivalSchedule(config);
}

/// The open leg swaps only when there is a second version to swap in.
double SwapPeriod(double seconds,
                  const std::vector<spca::core::PcaModel>& versions) {
  return versions.size() > 1 ? seconds / kSwapsPerOpenLeg : 0.0;
}

/// Sends each request when it falls due: sleeps until the next due time,
/// queues everything due by then, flushes once, and records every sent
/// request's lateness (send time - due time). Stops early when `flush`
/// fails.
template <typename Send, typename Flush>
void DriveSchedule(const std::vector<double>& offsets, double start,
                   Send&& send, Flush&& flush, std::vector<double>* late_ms) {
  late_ms->clear();
  size_t next = 0;
  while (next < offsets.size()) {
    const double due = start + offsets[next];
    if (due > Now()) std::this_thread::sleep_until(ToTimePoint(due));
    const double now = Now();
    const size_t first = next;
    while (next < offsets.size() && start + offsets[next] <= now) send(next++);
    if (!flush()) return;
    const double sent = Now();
    for (size_t i = first; i < next; ++i) {
      late_ms->push_back(1e3 * (sent - (start + offsets[i])));
    }
  }
}

/// Per-slice p50/p99 of an open leg, slicing by scheduled send time into
/// slices of kSliceRequests requests (one slice when fewer). The median of
/// the slices' p99s is the tail of a typical stretch of the leg: a host
/// hiccup spoils the few slices it lands in, not the whole statistic.
void SliceLatencies(const std::vector<double>& offsets, double seconds,
                    LegStats* leg) {
  const size_t slices = std::max<size_t>(1, offsets.size() / kSliceRequests);
  std::vector<std::vector<double>> buckets(slices);
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (std::isnan(leg->latency_ms[i])) continue;
    const size_t s = std::min(
        slices - 1, static_cast<size_t>(offsets[i] / seconds * slices));
    buckets[s].push_back(leg->latency_ms[i]);
  }
  for (const auto& bucket : buckets) {
    if (bucket.empty()) continue;
    leg->slice_p50_ms.push_back(Quantile(bucket, 0.50));
    leg->slice_p99_ms.push_back(Quantile(bucket, 0.99));
  }
}

}  // namespace

void LegStats::Append(const LegStats& piece) {
  attempted += piece.attempted;
  failed += piece.failed;
  auto extend = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  extend(&slice_qps, piece.slice_qps);
  extend(&slice_p50_ms, piece.slice_p50_ms);
  extend(&slice_p99_ms, piece.slice_p99_ms);
  extend(&latency_ms, piece.latency_ms);
  extend(&late_ms, piece.late_ms);
  extend(&swap_ms, piece.swap_ms);
}

CpuConfinement::CpuConfinement(size_t count) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t confined;
  CPU_ZERO(&confined);
  size_t taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    CPU_SET(cpu, &confined);
    ++taken;
  }
  active_ = sched_setaffinity(0, sizeof(confined), &confined) == 0;
}

CpuConfinement::~CpuConfinement() {
  if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::vector<Query> MakeQueries(size_t dim, uint64_t seed) {
  spca::workload::QuerySetConfig config;
  config.num_queries = kNumQueries;
  config.dim = dim;
  config.nnz_per_query = kQueryNnz;
  config.seed = seed;
  return spca::workload::GenerateQueries(config);
}

Expectations::Expectations(const std::vector<spca::core::PcaModel>& versions,
                           const std::vector<Query>& queries) {
  for (const auto& model : versions) {
    auto projector = spca::serve::Projector::Create(model);
    SPCA_CHECK_MSG(projector.ok(), "model version is not servable");
    projectors_.push_back(std::move(projector.value()));
  }
  d_ = projectors_.front().num_components();
  for (const auto& projector : projectors_) {
    std::vector<double> expected;
    expected.reserve(queries.size() * d_);
    for (const Query& query : queries) {
      const auto coordinates = projector.Project(query.sparse);
      expected.insert(expected.end(), coordinates.data(),
                      coordinates.data() + d_);
    }
    expected_.push_back(std::move(expected));
  }
}

bool Expectations::Matches(size_t index, const double* coordinates,
                           size_t count) const {
  if (count != d_) return false;
  for (const auto& expected : expected_) {
    if (std::memcmp(expected.data() + index * d_, coordinates,
                    d_ * sizeof(double)) == 0) {
      return true;
    }
  }
  return false;
}

ServingPlane::ServingPlane(std::vector<spca::core::PcaModel> versions,
                           std::vector<Query> queries)
    : versions_(std::move(versions)),
      queries_(std::move(queries)),
      expectations_(versions_, queries_) {}

ServingPlane::~ServingPlane() {
  if (server_) server_->Stop();
  if (shards_) shards_->Stop();
}

spca::Status ServingPlane::Start() {
  spca::net::ShardSetOptions shard_options;
  shard_options.num_shards = 1;
  shard_options.service.num_threads = kServiceThreads;
  shard_options.service.batch_max = kBatchMax;
  shard_options.service.queue_capacity = 1u << 16;
  shard_options.service.record_batch_spans = false;
  shard_options.metrics = &metrics_;
  shards_ = std::make_unique<spca::net::ShardSet>(shard_options);
  SPCA_RETURN_IF_ERROR(shards_->Start());
  SPCA_RETURN_IF_ERROR(shards_->InstallModel(kModelName, versions_[0]));
  spca::net::ServerOptions server_options;
  server_options.metrics = &metrics_;
  server_ = std::make_unique<spca::net::SocketServer>(shards_.get(),
                                                      server_options);
  return server_->Start();
}

void ServingPlane::Queue(spca::net::Client* client, uint64_t request_id) {
  const Query& query = queries_[(request_id - 1) % queries_.size()];
  client->QueueSparse(/*tenant=*/0, request_id, kModelName,
                      query.sparse.View());
}

void ServingPlane::Check(const spca::net::ClientResponse& response,
                         size_t sent, std::vector<uint8_t>* seen,
                         LegStats* leg) const {
  const uint64_t id = response.request_id;
  if (id == 0 || id > sent || (*seen)[id - 1] != 0) {
    ++leg->failed;  // a response to nothing we sent, or a duplicate
    return;
  }
  (*seen)[id - 1] = 1;
  if (response.malformed ||
      response.outcome != spca::serve::RequestOutcome::kOk ||
      !expectations_.Matches((id - 1) % queries_.size(),
                             response.coordinates.data(),
                             response.coordinates.size())) {
    ++leg->failed;
  }
}

LegStats ServingPlane::RunClosed(double seconds) {
  LegStats leg;
  spca::net::Client client;
  if (!client.Connect("127.0.0.1", server_->port()).ok()) {
    leg.attempted = leg.failed = 1;
    return leg;
  }
  const size_t slices = std::max<size_t>(
      3, static_cast<size_t>(std::llround(seconds / kSliceSeconds)));
  const double slice_s = seconds / static_cast<double>(slices);
  std::vector<double> completions(slices, 0.0);
  const size_t flush_every = kWindow / 4;

  uint64_t sent = 0;
  uint64_t received = 0;
  std::vector<uint8_t> seen;
  auto queue_one = [&] {
    seen.push_back(0);
    Queue(&client, ++sent);
  };
  const double start = Now();
  const double deadline = start + seconds;
  LegMonitor monitor(0.0, deadline + kStallSeconds, [] {},
                     [this] { server_->Stop(); });
  for (size_t k = 0; k < kWindow; ++k) queue_one();
  bool io_ok = client.Flush().ok();
  size_t outstanding = kWindow;
  size_t since_flush = 0;
  spca::net::ClientResponse response;
  while (io_ok && outstanding > 0) {
    if (!client.Receive(&response).ok()) break;
    --outstanding;
    ++received;
    Check(response, sent, &seen, &leg);
    const double now = Now();
    if (now < deadline) {
      completions[std::min(slices - 1,
                           static_cast<size_t>((now - start) / slice_s))] += 1;
      queue_one();
      ++outstanding;
      if (++since_flush >= flush_every) {
        io_ok = client.Flush().ok();
        since_flush = 0;
      }
    } else if (client.queued_bytes() > 0) {
      io_ok = client.Flush().ok();
    }
  }
  monitor.Stop();
  leg.attempted = sent;
  leg.failed += sent - received;
  for (const double count : completions) leg.slice_qps.push_back(count / slice_s);
  return leg;
}

LegStats ServingPlane::RunOpen(double seconds, uint64_t schedule_seed) {
  const std::vector<double> schedule = Schedule(seconds, schedule_seed);
  const size_t n = schedule.size();
  LegStats leg;
  leg.attempted = n;
  leg.latency_ms.assign(n, std::numeric_limits<double>::quiet_NaN());
  spca::net::Client client;
  if (!client.Connect("127.0.0.1", server_->port()).ok()) {
    leg.failed = n;
    return leg;
  }
  std::vector<uint8_t> seen(n, 0);
  const double start = Now() + 0.005;
  size_t version = 0;
  LegMonitor monitor(
      SwapPeriod(seconds, versions_), start + seconds + kStallSeconds,
      [&] {
        version ^= 1;
        spca::Stopwatch watch;
        const spca::Status status =
            shards_->InstallModel(kModelName, versions_[version]);
        leg.swap_ms.push_back(1e3 * watch.ElapsedSeconds());
        SPCA_CHECK_MSG(status.ok(), "hot swap failed");
      },
      [this] { server_->Stop(); });
  std::thread sender([&] {
    DriveSchedule(
        schedule, start, [&](size_t i) { Queue(&client, i + 1); },
        [&] { return client.Flush().ok(); }, &leg.late_ms);
  });
  uint64_t received = 0;
  spca::net::ClientResponse response;
  while (received < n && client.Receive(&response).ok()) {
    const double now = Now();
    ++received;
    const uint64_t id = response.request_id;
    if (id >= 1 && id <= n && seen[id - 1] == 0) {
      leg.latency_ms[id - 1] = 1e3 * (now - (start + schedule[id - 1]));
    }
    Check(response, n, &seen, &leg);
  }
  sender.join();
  monitor.Stop();
  leg.failed += n - received;
  SliceLatencies(schedule, seconds, &leg);
  return leg;
}

LegStats RunInProcessOpen(const std::vector<spca::core::PcaModel>& versions,
                          const std::vector<Query>& queries,
                          const Expectations& expectations, double seconds,
                          uint64_t schedule_seed,
                          spca::obs::Registry* metrics) {
  spca::serve::ModelRegistry models;
  SPCA_CHECK(models.Install(kModelName, versions[0]).ok());
  spca::serve::ServiceOptions options;
  options.num_threads = kServiceThreads;
  options.batch_max = kBatchMax;
  options.queue_capacity = 1u << 16;
  options.metrics = metrics;
  options.record_batch_spans = false;
  spca::serve::ProjectionService service(&models, options);
  SPCA_CHECK(service.Start().ok());

  const std::vector<double> schedule = Schedule(seconds, schedule_seed);
  const size_t n = schedule.size();
  LegStats leg;
  leg.attempted = n;
  leg.latency_ms.assign(n, std::numeric_limits<double>::quiet_NaN());
  std::atomic<size_t> completed{0};
  std::atomic<uint64_t> bad{0};
  const double start = Now() + 0.005;
  size_t version = 0;
  LegMonitor monitor(
      SwapPeriod(seconds, versions), start + seconds + kStallSeconds,
      [&] {
        version ^= 1;
        spca::Stopwatch watch;
        const spca::Status status = models.Install(kModelName, versions[version]);
        leg.swap_ms.push_back(1e3 * watch.ElapsedSeconds());
        SPCA_CHECK_MSG(status.ok(), "hot swap failed");
      },
      [] {});
  auto send = [&](size_t i) {
    const Query& query = queries[i % queries.size()];
    spca::serve::ProjectionRequest request;
    request.model = kModelName;
    request.sparse = query.sparse;
    service.SubmitWithCallback(
        std::move(request),
        [&, i](spca::serve::ProjectionResponse response) {
          leg.latency_ms[i] = 1e3 * (Now() - (start + schedule[i]));
          if (response.outcome != spca::serve::RequestOutcome::kOk ||
              !expectations.Matches(i % queries.size(),
                                    response.coordinates.data(),
                                    response.coordinates.size())) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          completed.fetch_add(1, std::memory_order_release);
        },
        /*defer_notify=*/true);
  };
  DriveSchedule(schedule, start, send, [&] {
    service.Kick();
    return true;
  }, &leg.late_ms);
  while (completed.load(std::memory_order_acquire) < n &&
         Now() < start + seconds + kStallSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monitor.Stop();
  service.Stop();  // resolves anything still queued, so every slot is final
  leg.failed = bad.load() + (n - completed.load(std::memory_order_acquire));
  SliceLatencies(schedule, seconds, &leg);
  return leg;
}

double ProjectNanos(const spca::serve::Projector& projector,
                    const std::vector<Query>& queries) {
  spca::linalg::DenseVector out(projector.num_components());
  return NanosPerCall(queries.size(), [&](size_t i) {
    projector.ProjectSparse(queries[i].sparse.View(), out.data());
  });
}

}  // namespace repobench
