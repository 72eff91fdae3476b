// ladder_bench: the repository benchmark's measuring program.
//
//   ladder_bench run --workload W --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--workdir DIR]
//   ladder_bench reference --workload W
//
// `run` stands the workload up several times (setup_s), then runs searches
// or service jobs for S seconds over the workload's fixed alignment, with
// job seeds drawn in a seed-shuffled cycle from the workload's pool, and
// prints one JSON document: every sample with its answer, plus, with
// --trace 1, the per-layer metrics and reconciliation checks. `reference`
// prints the serial runner's answer for every pool seed. run.py judges
// the answers against references.json and summarizes the samples.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "decorators.hpp"
#include "likelihood_ladder.hpp"

namespace ladder {
namespace {

using namespace fdml;

enum class Kind { kSerial, kCluster, kService };

struct Workload {
  const char* name;
  Kind kind;
  int taxa;
  std::size_t sites;
  /// Job seeds are the first `pool` odd numbers.
  int pool;
};

constexpr std::uint64_t kDataSeed = 4242;
constexpr int kClusterWorkers = 3;
constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 4;
constexpr int kServiceMaxActive = 2;
/// setup_s is the median of this many stand-ups. Each stand-up of a
/// cluster keeps ~5 MB per role thread alive (the library's per-thread
/// trace ring outlives its thread), so the count stays small there; the
/// serial stack starts no threads and its ~1 ms stand-up needs more samples.
constexpr int kSetups = 9;
constexpr int kSerialSetups = 51;
/// peak_rss_mb is read when this many measured searches or jobs have
/// returned, so it stands for a fixed amount of work. fdmld keeps ~10 MB
/// alive per job served (see ladder/README.md), so a peak read at the end
/// of the window would follow the job count, that is the host's speed.
constexpr std::size_t kRssAfterSamples = 16;

const Workload kWorkloads[] = {
    {"serial-f84", Kind::kSerial, 14, 1200, 16},
    {"cluster-dispatch", Kind::kCluster, 24, 600, 16},
    {"service-jobs", Kind::kService, 14, 3000, 24},
};

// --- small utilities --------------------------------------------------------

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The workload's job seeds in an order drawn from the benchmark seed.
std::vector<std::uint64_t> shuffled_pool(const Workload& w,
                                         std::uint64_t bench_seed) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < w.pool; ++i) seeds.push_back(2 * i + 1);
  std::uint64_t state = bench_seed;
  for (std::size_t i = seeds.size(); i > 1; --i) {
    std::swap(seeds[i - 1], seeds[splitmix64(state) % i]);
  }
  return seeds;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string bits_hex(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

SubstModel workload_model(const PatternAlignment& data) {
  return SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
}

SearchOptions search_options(std::uint64_t seed) {
  SearchOptions options;
  options.seed = seed;
  options.record_trace = false;
  return options;
}

/// One search or service job as its caller saw it.
struct Sample {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double cpu_s = -1.0;  ///< process CPU during the search; -1 for jobs
  bool traced = false;
  bool warmup = false;
  std::string status = "done";  ///< done | rejected | failed | interrupted
  std::string newick;
  double log_likelihood = 0.0;
  long long trees_evaluated = -1;  ///< -1 when the caller cannot see it
};

struct Output {
  std::vector<double> setup_s;
  std::vector<Sample> samples;
  double window_s = 0.0;
  double window_cpu_s = 0.0;
  /// ru_maxrss after kRssAfterSamples measured samples; 0 until then.
  double rss_mark_kb = 0.0;
  std::string engine_backend;
  Metrics layers;
  Metrics checks;
};

Sample sample_from(std::uint64_t seed, const SearchResult& result) {
  Sample s;
  s.seed = seed;
  s.newick = result.best_newick;
  s.log_likelihood = result.best_log_likelihood;
  s.trees_evaluated = static_cast<long long>(result.trees_evaluated);
  return s;
}

/// Records spans only while enabled; the parts are merged at the end.
class TraceCapture {
 public:
  void on() { obs::Tracer::instance().enable(); }
  void off() {
    // The foreman closes its round span just after sending kRoundDone, so
    // it may still be open when the search returns; let it close before
    // recording stops, or the trace would hold an unbalanced span.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    obs::Tracer::instance().disable();
    parts_.push_back(obs::Tracer::instance().drain());
  }
  std::uint64_t dropped() const {
    std::uint64_t total = 0;
    for (const auto& part : parts_) total += part.dropped_events;
    return total;
  }
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    obs::TraceLog log = obs::merge_trace_logs(parts_);
    std::ofstream out(path);
    log.write_chrome(out);
    return static_cast<bool>(out);
  }

 private:
  std::vector<obs::TraceLog> parts_;
};

/// Samples and their sum added to the process `kernel.batch_fill`
/// histogram between two snapshots.
struct FillDelta {
  double count = 0.0;
  double sum = 0.0;
  double mean() const { return count > 0 ? sum / count : 0.0; }
};

FillDelta batch_fill_delta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after) {
  FillDelta delta;
  for (const auto& h : after.histograms) {
    if (h.name == "kernel.batch_fill") {
      delta.count += static_cast<double>(h.count);
      delta.sum += h.sum;
    }
  }
  for (const auto& h : before.histograms) {
    if (h.name == "kernel.batch_fill") {
      delta.count -= static_cast<double>(h.count);
      delta.sum -= h.sum;
    }
  }
  return delta;
}

/// The SIMD backend an engine over `data` actually runs (AVX-512 is
/// demoted for small pattern counts).
std::string engine_backend(const PatternAlignment& data, const SubstModel& model) {
  return LikelihoodEngine(data, model, RateModel::uniform()).counters().simd_backend;
}

// --- serial and thread-cluster searches ---------------------------------------

void add_replay_checks(const ReplayCheck& replay, Metrics& checks) {
  checks["replay.rounds"] = static_cast<double>(replay.rounds);
  checks["replay.tasks"] = static_cast<double>(replay.tasks);
  checks["replay.stat_bytes"] = static_cast<double>(replay.stat_bytes);
  checks["replay.wire_bytes"] = static_cast<double>(replay.replay_bytes);
  checks["replay.best_mismatches"] = static_cast<double>(replay.best_mismatches);
}

/// Everything one search workload stands up before its first search.
struct SearchStack {
  std::unique_ptr<PatternAlignment> data;
  std::unique_ptr<SubstModel> model;
  std::unique_ptr<SerialTaskRunner> serial;
  std::unique_ptr<InProcessCluster> cluster;

  TaskRunner& runner() { return cluster ? cluster->runner() : *serial; }
};

std::unique_ptr<SearchStack> stand_up_search(const Workload& w,
                                             WaitClock* recv_clock) {
  auto stack = std::make_unique<SearchStack>();
  stack->data = std::make_unique<PatternAlignment>(
      make_paper_like_dataset(w.taxa, w.sites, kDataSeed));
  stack->model = std::make_unique<SubstModel>(workload_model(*stack->data));
  if (w.kind == Kind::kSerial) {
    stack->serial = std::make_unique<SerialTaskRunner>(
        *stack->data, *stack->model, RateModel::uniform());
    return stack;
  }
  ClusterOptions options;
  options.num_workers = kClusterWorkers;
  if (recv_clock != nullptr) {
    options.wrap_worker_transport =
        [recv_clock](int, std::unique_ptr<Transport> inner)
        -> std::unique_ptr<Transport> {
      return std::make_unique<RecvTimingTransport>(std::move(inner), *recv_clock);
    };
  }
  stack->cluster = std::make_unique<InProcessCluster>(
      *stack->data, *stack->model, RateModel::uniform(), std::move(options));
  return stack;
}

/// Per-layer sums over the traced searches of a run.
struct SearchLayerSums {
  int searches = 0;
  double wall_s = 0.0;
  RoundTotals rounds;
  double recv_wait_s = 0.0;
  double messages = 0.0;
  double fabric_bytes = 0.0;
  double dispatched = 0.0;
  double completed = 0.0;
  double requeues = 0.0;
  double fallbacks = 0.0;
  FillDelta fill;
};

Output run_search_workload(const Workload& w, std::uint64_t bench_seed,
                           double seconds, bool trace, TraceCapture& capture) {
  Output out;
  WaitClock recv_clock;
  WaitClock* clock = trace && w.kind == Kind::kCluster ? &recv_clock : nullptr;
  std::unique_ptr<SearchStack> stack;
  const int setups = w.kind == Kind::kSerial ? kSerialSetups : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    stack.reset();
    const std::int64_t start = now_ns();
    stack = stand_up_search(w, clock);
    out.setup_s.push_back(seconds_since(start));
  }
  const PatternAlignment& data = *stack->data;
  TimedRunner timed(stack->runner());
  const std::vector<std::uint64_t> order = shuffled_pool(w, bench_seed);

  auto run_one = [&](std::uint64_t seed, bool traced) {
    TaskRunner& runner = traced ? static_cast<TaskRunner&>(timed) : stack->runner();
    const double cpu0 = process_cpu_s();
    const std::int64_t start = now_ns();
    SearchResult result;
    {
      obs::Span span("bench", "search", "seed", static_cast<std::int64_t>(seed));
      result = StepwiseSearch(data, search_options(seed)).run(runner);
    }
    Sample s = sample_from(seed, result);
    s.wall_s = seconds_since(start);
    s.cpu_s = process_cpu_s() - cpu0;
    s.traced = traced;
    return s;
  };

  // Warm-up: lazy allocations and first-touch pages, checked but not timed.
  out.samples.push_back(run_one(order.back(), false));
  out.samples.back().warmup = true;
  out.engine_backend = engine_backend(data, *stack->model);

  SearchLayerSums sums;
  obs::MetricsRegistry& registry =
      stack->cluster ? stack->cluster->metrics() : obs::MetricsRegistry::process();
  std::vector<RecordedRound> recorded;
  const double cpu0 = process_cpu_s();
  const std::int64_t window_start = now_ns();
  for (std::size_t i = 0; seconds_since(window_start) < seconds; ++i) {
    const std::uint64_t seed = order[i % order.size()];
    out.samples.push_back(run_one(seed, false));
    if (i + 1 == kRssAfterSamples) out.rss_mark_kb = peak_rss_kb();
    if (!trace) continue;

    // The same seed again, decorated and traced: a paired sample for
    // obs.trace_overhead and the per-search layer sums.
    timed.take();
    if (recorded.empty()) timed.record(1u << 14);
    recv_clock.start_window();
    const auto metrics0 = registry.snapshot();
    const auto process0 = obs::MetricsRegistry::process().snapshot();
    const MasterStats master0 =
        stack->cluster ? stack->cluster->master_stats() : MasterStats{};
    const double msgs0 = stack->cluster ? stack->cluster->fabric_messages() : 0.0;
    const double bytes0 = stack->cluster ? stack->cluster->fabric_bytes() : 0.0;
    capture.on();
    out.samples.push_back(run_one(seed, true));
    const double recv_wait_s = recv_clock.waited_seconds();
    const RoundTotals rt = timed.take();
    const auto metrics1 = registry.snapshot();
    const auto process1 = obs::MetricsRegistry::process().snapshot();
    capture.off();
    if (recorded.empty()) recorded = timed.take_recorded();

    sums.searches += 1;
    sums.wall_s += out.samples.back().wall_s;
    sums.rounds += rt;
    sums.recv_wait_s += recv_wait_s;
    const FillDelta fill = batch_fill_delta(process0, process1);
    sums.fill.count += fill.count;
    sums.fill.sum += fill.sum;
    if (stack->cluster) {
      const MasterStats master1 = stack->cluster->master_stats();
      sums.messages += stack->cluster->fabric_messages() - msgs0;
      sums.fabric_bytes += stack->cluster->fabric_bytes() - bytes0;
      auto delta = [&](const char* name) {
        return static_cast<double>(metrics1.counter(name) - metrics0.counter(name));
      };
      sums.dispatched += delta("foreman.tasks_dispatched");
      sums.completed += delta("foreman.tasks_completed");
      sums.requeues += delta("foreman.requeues");
      sums.fallbacks +=
          static_cast<double>((master1.serial_fallbacks - master0.serial_fallbacks) +
                              (master1.round_retries - master0.round_retries));
    } else {
      sums.dispatched += static_cast<double>(rt.tasks);
      sums.completed += static_cast<double>(rt.tasks);
    }
  }
  out.window_s = seconds_since(window_start);
  out.window_cpu_s = process_cpu_s() - cpu0;
  if (!trace) return out;

  const double n = sums.searches;
  const double tasks = static_cast<double>(sums.rounds.tasks);
  const int workers = stack->runner().worker_count();
  Metrics& m = out.layers;
  m["search.rounds"] = static_cast<double>(sums.rounds.rounds) / n;
  m["search.tasks"] = tasks / n;
  m["search.round_s"] = sums.rounds.round_s / n;
  m["search.driver_s"] = (sums.wall_s - sums.rounds.round_s) / n;
  m["search.serial_fraction"] = (sums.wall_s - sums.rounds.round_s) / sums.wall_s;
  m["task.cpu_s"] = sums.rounds.task_cpu_s / n;
  m["task.mean_ms"] = sums.rounds.task_cpu_s / tasks * 1e3;
  m["task.bytes_per_task"] = static_cast<double>(sums.rounds.bytes) / tasks;
  m["parallel.worker_util"] =
      sums.rounds.task_cpu_s / (workers * sums.rounds.round_s);
  m["parallel.barrier_slack_s"] = sums.rounds.slack_s / n;
  m["parallel.batch_fill"] = sums.fill.mean();
  m["parallel.useful_ratio"] = sums.completed / sums.dispatched;
  m["parallel.requeues"] = sums.requeues / n;
  m["parallel.fallbacks"] = sums.fallbacks / n;
  m["comm.messages_per_task"] = sums.messages / tasks;
  m["comm.bytes_per_task"] = sums.fabric_bytes / tasks;
  m["comm.worker_recv_wait_s"] = sums.recv_wait_s / n / workers;

  // Paired: each traced search against the untraced run of the same seed
  // just before it. A traced search's wall is its driver_s + round_s by
  // construction, so the same ratio is the reconciliation check.
  std::vector<double> ratios;
  for (std::size_t i = 1; i < out.samples.size(); ++i) {
    if (out.samples[i].traced && !out.samples[i - 1].traced) {
      ratios.push_back(out.samples[i].wall_s / out.samples[i - 1].wall_s);
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const double paired = ratios[ratios.size() / 2];
  m["obs.trace_overhead"] = paired - 1.0;
  out.checks["search.paired_ratio"] = paired;

  const Tree tree = tree_from_newick(out.samples.front().newick, data.names());
  add_replay_checks(run_likelihood_ladder(data, *stack->model, tree, recorded, m),
                    out.checks);
  return out;
}

// --- in-process fdmld ----------------------------------------------------------

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  const bool bound =
      fd >= 0 && ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  if (fd >= 0) ::close(fd);
  if (!bound) throw std::runtime_error("cannot reserve a loopback port");
  return ntohs(addr.sin_port);
}

/// fdmld --mode=serve plus its role processes, as threads of this process:
/// hub + master, foreman, monitor and workers over loopback TCP, the job
/// scheduler and the service endpoint.
class ServiceStack {
 public:
  ServiceStack(const Workload& w, const std::string& checkpoint_dir,
               bool decorate)
      : data_(make_paper_like_dataset(w.taxa, w.sites, kDataSeed)),
        model_(workload_model(data_)) {
    const int size = kFirstWorkerRank + kServiceWorkers;
    SocketRunOptions options;
    options.socket.size = size;
    options.socket.port = pick_free_port();
    options.master.max_round_retries = 2;
    cluster_ = std::make_unique<SocketCluster>(data_, model_, RateModel::uniform(),
                                               options);
    try {
      start(options, decorate, checkpoint_dir);
    } catch (...) {
      stop();
      throw;
    }
  }

  ~ServiceStack() { stop(); }

  ServiceStack(const ServiceStack&) = delete;
  ServiceStack& operator=(const ServiceStack&) = delete;

  const PatternAlignment& data() const { return data_; }
  const SubstModel& model() const { return model_; }
  std::uint16_t port() const { return server_->port(); }
  SocketCluster& cluster() { return *cluster_; }
  JobScheduler& scheduler() { return *scheduler_; }
  TimedRunner* timed() { return timed_.get(); }
  TimedVfs& vfs() { return vfs_; }

 private:
  void start(const SocketRunOptions& options, bool decorate,
             const std::string& checkpoint_dir) {
    for (int rank = 1; rank < options.socket.size; ++rank) {
      roles_.emplace_back([this, options, rank] {
        SocketRunOptions role = options;
        role.socket.rank = rank;
        try {
          run_socket_role(data_, model_, RateModel::uniform(), role);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "rank %d: %s\n", rank, error.what());
        }
      });
    }
    if (!cluster_->wait_ready(std::chrono::milliseconds(15000))) {
      throw std::runtime_error("service fabric incomplete");
    }
    if (decorate) timed_ = std::make_unique<TimedRunner>(cluster_->runner());
    SchedulerOptions sched;
    sched.admission.max_active = kServiceMaxActive;
    sched.checkpoint_dir = checkpoint_dir;
    if (decorate) sched.vfs = &vfs_;
    scheduler_ = std::make_unique<JobScheduler>(
        data_, decorate ? static_cast<TaskRunner&>(*timed_) : cluster_->runner(),
        sched);
    server_ = std::make_unique<ServiceServer>(*scheduler_,
                                              obs::MetricsRegistry::process(),
                                              ServiceServerOptions{});
  }

  void stop() {
    if (server_) server_->close();
    scheduler_.reset();
    cluster_->shutdown();
    for (auto& role : roles_) role.join();
    roles_.clear();
  }

  PatternAlignment data_;
  SubstModel model_;
  std::unique_ptr<SocketCluster> cluster_;
  std::vector<std::thread> roles_;
  TimedVfs vfs_;
  std::unique_ptr<TimedRunner> timed_;
  std::unique_ptr<JobScheduler> scheduler_;
  std::unique_ptr<ServiceServer> server_;
};

/// A fresh job must not resume the checkpoint an earlier job of the same
/// seed left behind.
void remove_job_checkpoints(const std::string& dir, std::uint64_t seed) {
  const std::string prefix = "job-seed-" + std::to_string(seed) + ".ckpt";
  std::error_code missing;  // no checkpoint written yet
  for (const auto& entry : std::filesystem::directory_iterator(dir, missing)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
}

Output run_service_workload(const Workload& w, std::uint64_t bench_seed,
                            double seconds, bool trace, TraceCapture& capture,
                            const std::string& workdir) {
  Output out;
  const std::string checkpoint_dir = workdir + "/checkpoints";
  std::filesystem::remove_all(checkpoint_dir);
  std::unique_ptr<ServiceStack> stack;
  for (int rep = 0; rep < kSetups; ++rep) {
    stack.reset();
    const std::int64_t start = now_ns();
    stack = std::make_unique<ServiceStack>(w, checkpoint_dir, trace);
    out.setup_s.push_back(seconds_since(start));
  }
  const std::vector<std::uint64_t> order = shuffled_pool(w, bench_seed);
  std::atomic<std::size_t> next{0};
  std::mutex samples_mutex;
  std::size_t measured = 0;  // guarded by samples_mutex

  // Closed loop: each client submits its next job when the previous one
  // returns. A slice ends when every client's last job has returned.
  auto run_slice = [&](double slice_s, bool traced, bool warmup) {
    const std::int64_t start = now_ns();
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; ++c) {
      clients.emplace_back([&] {
        do {
          const std::uint64_t seed = order[next++ % order.size()];
          remove_job_checkpoints(checkpoint_dir, seed);
          JobSpec spec;
          spec.seed = seed;
          Sample s;
          s.seed = seed;
          s.traced = traced;
          s.warmup = warmup;
          const std::int64_t submitted = now_ns();
          try {
            const ServiceReply reply = service_submit(
                "127.0.0.1", stack->port(), spec, std::chrono::seconds(120));
            s.wall_s = seconds_since(submitted);
            if (reply.rejected) {
              s.status = "rejected";
            } else if (reply.outcome->status == JobStatus::kDone) {
              s.newick = reply.outcome->newick;
              s.log_likelihood = reply.outcome->log_likelihood;
            } else {
              s.status = reply.outcome->status == JobStatus::kFailed ? "failed"
                                                                    : "interrupted";
            }
          } catch (const std::exception& error) {
            s.wall_s = seconds_since(submitted);
            s.status = "failed";
            std::fprintf(stderr, "job seed %" PRIu64 ": %s\n", seed, error.what());
          }
          std::lock_guard lock(samples_mutex);
          out.samples.push_back(std::move(s));
          if (!warmup && ++measured == kRssAfterSamples) {
            out.rss_mark_kb = peak_rss_kb();
          }
        } while (!warmup && seconds_since(start) < slice_s);
      });
    }
    for (auto& client : clients) client.join();
    return seconds_since(start);
  };

  run_slice(0.0, false, true);
  out.engine_backend = engine_backend(stack->data(), stack->model());

  const SchedulerStats sched0 = stack->scheduler().stats();
  const SocketFabricStats fabric0 = stack->cluster().fabric_stats();
  const MasterStats master0 = stack->cluster().master_stats();
  const auto metrics0 = obs::MetricsRegistry::process().snapshot();
  const std::size_t samples0 = out.samples.size();
  if (trace) {
    stack->timed()->take();
    stack->vfs().take();
  }
  const double cpu0 = process_cpu_s();
  // Untraced: one slice. Traced: four alternating slices, so the traced and
  // untraced halves see the same mix of seeds and machine state.
  const int slices = trace ? 4 : 1;
  std::vector<RecordedRound> recorded;
  for (int k = 0; k < slices; ++k) {
    const bool traced = trace && k % 2 == 1;
    if (traced) {
      if (recorded.empty()) stack->timed()->record(1u << 10);
      capture.on();
    }
    out.window_s += run_slice(seconds / slices, traced, false);
    if (traced) {
      capture.off();
      if (recorded.empty()) recorded = stack->timed()->take_recorded();
    }
  }
  out.window_cpu_s = process_cpu_s() - cpu0;
  if (!trace) return out;

  const SchedulerStats sched1 = stack->scheduler().stats();
  const SocketFabricStats fabric1 = stack->cluster().fabric_stats();
  const MasterStats master1 = stack->cluster().master_stats();
  const auto metrics1 = obs::MetricsRegistry::process().snapshot();
  const RoundTotals rt = stack->timed()->take();
  const TimedVfs::Totals vt = stack->vfs().take();
  auto delta = [&](const char* name) {
    return static_cast<double>(metrics1.counter(name) - metrics0.counter(name));
  };

  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::uint64_t attempted = 0, completed = 0, failed = 0, rejected = 0,
                interrupted = 0;
  for (std::size_t i = samples0; i < out.samples.size(); ++i) {
    const Sample& s = out.samples[i];
    ++attempted;
    if (s.status == "done") {
      ++completed;
      (s.traced ? traced_walls : untraced_walls).push_back(s.wall_s);
    } else if (s.status == "rejected") {
      ++rejected;
    } else if (s.status == "failed") {
      ++failed;
    } else {
      ++interrupted;
    }
  }
  const double jobs = static_cast<double>(completed);
  const double tasks = static_cast<double>(rt.tasks);
  Metrics& m = out.layers;
  m["search.rounds"] = static_cast<double>(rt.rounds) / jobs;
  m["search.tasks"] = tasks / jobs;
  m["search.round_s"] = rt.round_s / jobs;
  m["search.driver_s"] = (out.window_s - rt.round_s) / jobs;
  m["search.serial_fraction"] = (out.window_s - rt.round_s) / out.window_s;
  m["task.cpu_s"] = rt.task_cpu_s / jobs;
  m["task.mean_ms"] = rt.task_cpu_s / tasks * 1e3;
  m["task.bytes_per_task"] = static_cast<double>(rt.bytes) / tasks;
  m["parallel.worker_util"] = rt.task_cpu_s / (kServiceWorkers * rt.round_s);
  m["parallel.barrier_slack_s"] = rt.slack_s / jobs;
  m["parallel.batch_fill"] = batch_fill_delta(metrics0, metrics1).mean();
  m["parallel.useful_ratio"] =
      delta("foreman.tasks_completed") / delta("foreman.tasks_dispatched");
  m["parallel.requeues"] = delta("foreman.requeues");
  m["parallel.fallbacks"] =
      static_cast<double>((master1.serial_fallbacks - master0.serial_fallbacks) +
                          (master1.round_retries - master0.round_retries));
  const double frames = static_cast<double>(fabric1.frames_received - fabric0.frames_received);
  const double frame_bytes = static_cast<double>(fabric1.bytes_received - fabric0.bytes_received);
  m["comm.messages_per_task"] = frames / tasks;
  m["comm.bytes_per_task"] = frame_bytes / tasks;
  m["comm.socket_frames"] = frames / jobs;
  m["comm.socket_bytes"] = frame_bytes / jobs;
  m["comm.frame_errors"] = static_cast<double>(fabric1.frame_errors - fabric0.frame_errors);
  m["comm.peer_deaths"] = static_cast<double>(fabric1.peer_deaths - fabric0.peer_deaths);
  m["service.round_busy_frac"] = rt.round_s / out.window_s;
  m["service.admitted"] = static_cast<double>(sched1.admitted - sched0.admitted);
  m["service.rejected"] = static_cast<double>(
      (sched1.rejected_full + sched1.rejected_draining) -
      (sched0.rejected_full + sched0.rejected_draining));
  m["service.retries"] = static_cast<double>(sched1.retries - sched0.retries);
  m["durable.commits"] = static_cast<double>(vt.commits) / jobs;
  m["durable.bytes_written"] = static_cast<double>(vt.bytes_written) / jobs;
  m["durable.write_s"] = vt.write_s / jobs;
  std::sort(traced_walls.begin(), traced_walls.end());
  std::sort(untraced_walls.begin(), untraced_walls.end());
  m["obs.trace_overhead"] = traced_walls[traced_walls.size() / 2] /
                                untraced_walls[untraced_walls.size() / 2] -
                            1.0;

  out.checks["jobs.attempted"] = static_cast<double>(attempted);
  out.checks["jobs.completed"] = static_cast<double>(completed);
  out.checks["jobs.failed"] = static_cast<double>(failed);
  out.checks["jobs.rejected"] = static_cast<double>(rejected);
  out.checks["jobs.interrupted"] = static_cast<double>(interrupted);
  out.checks["scheduler.submitted"] = static_cast<double>(sched1.submitted - sched0.submitted);
  out.checks["scheduler.completed"] = static_cast<double>(sched1.completed - sched0.completed);
  out.checks["scheduler.failed"] = static_cast<double>(sched1.failed - sched0.failed);
  out.checks["scheduler.interrupted"] =
      static_cast<double>(sched1.interrupted - sched0.interrupted);
  out.checks["scheduler.in_flight"] = static_cast<double>(sched1.in_flight);

  const Sample* first_done = nullptr;
  for (const Sample& s : out.samples) {
    if (s.status == "done") {
      first_done = &s;
      break;
    }
  }
  if (first_done == nullptr) throw std::runtime_error("no job completed");
  const Tree tree = tree_from_newick(first_done->newick, stack->data().names());
  add_replay_checks(
      run_likelihood_ladder(stack->data(), stack->model(), tree, recorded, m),
      out.checks);
  return out;
}

// --- output ------------------------------------------------------------------------

void print_metrics(std::ostream& os, const Metrics& metrics) {
  os << "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  os << "}";
}

void print_output(std::ostream& os, const Workload& w, std::uint64_t seed,
                  bool trace, const Output& out) {
  os << "{\"workload\": " << json_string(w.name) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? 1 : 0) << ",\n";
  os << " \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"simd_backend\": "
     << json_string(simd::backend_name(simd::active_backend()))
     << ", \"engine_backend\": " << json_string(out.engine_backend)
     << ", \"simd_tier\": " << json_string(simd::tier_name(simd::active_tier()))
     << ", \"build_type\": " << json_string(LADDER_BUILD_TYPE) << "},\n";
  os << " \"shape\": {\"taxa\": " << w.taxa << ", \"sites\": " << w.sites
     << ", \"pool\": " << w.pool << "},\n";
  os << " \"setup_s\": [";
  for (std::size_t i = 0; i < out.setup_s.size(); ++i) {
    os << (i ? ", " : "") << json_number(out.setup_s[i]);
  }
  os << "],\n \"window_s\": " << json_number(out.window_s)
     << ", \"window_cpu_s\": " << json_number(out.window_cpu_s)
     << ", \"peak_rss_kb\": "
     << json_number(out.rss_mark_kb > 0 ? out.rss_mark_kb : peak_rss_kb())
     << ",\n";
  os << " \"layers\": ";
  print_metrics(os, out.layers);
  os << ",\n \"checks\": ";
  print_metrics(os, out.checks);
  os << ",\n \"samples\": [\n";
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    const Sample& s = out.samples[i];
    os << "  {\"seed\": " << s.seed << ", \"wall_s\": " << json_number(s.wall_s)
       << ", \"cpu_s\": " << json_number(s.cpu_s)
       << ", \"traced\": " << (s.traced ? "true" : "false")
       << ", \"warmup\": " << (s.warmup ? "true" : "false")
       << ", \"status\": " << json_string(s.status)
       << ", \"lnl_bits\": " << json_string(bits_hex(s.log_likelihood))
       << ", \"trees_evaluated\": " << s.trees_evaluated
       << ", \"newick\": " << json_string(s.newick) << "}"
       << (i + 1 < out.samples.size() ? ",\n" : "\n");
  }
  os << " ]}\n";
}

int reference(const Workload& w) {
  const PatternAlignment data(make_paper_like_dataset(w.taxa, w.sites, kDataSeed));
  const SubstModel model = workload_model(data);
  SerialTaskRunner runner(data, model, RateModel::uniform());
  std::cout << "{\"workload\": " << json_string(w.name) << ", \"simd_backend\": "
            << json_string(simd::backend_name(simd::active_backend()))
            << ", \"references\": {\n";
  for (int i = 0; i < w.pool; ++i) {
    const std::uint64_t seed = 2 * i + 1;
    const SearchResult r = StepwiseSearch(data, search_options(seed)).run(runner);
    std::cout << "  " << json_string(std::to_string(seed))
              << ": {\"lnl_bits\": " << json_string(bits_hex(r.best_log_likelihood))
              << ", \"trees_evaluated\": " << r.trees_evaluated
              << ", \"newick\": " << json_string(r.best_newick) << "}"
              << (i + 1 < w.pool ? ",\n" : "\n");
  }
  std::cout << "}}\n";
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ladder_bench run --workload W --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--workdir DIR]\n"
               "       ladder_bench reference --workload W\n");
  return 2;
}

}  // namespace
}  // namespace ladder

int main(int argc, char** argv) {
  using namespace ladder;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  const fdml::CliArgs args(argc - 1, argv + 1);
  const std::string name = args.get("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return usage();
  }
  const Workload& w = *workload;
  fdml::set_log_level(fdml::LogLevel::kWarn);

  try {
    if (mode == "reference") return reference(w);
    if (mode != "run") return usage();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = std::stod(args.get("seconds", "10"));
    const bool trace = args.get_int("trace", 0) != 0;
    const std::string workdir = args.get("workdir", ".");
    TraceCapture capture;
    Output out =
        w.kind == Kind::kService
            ? run_service_workload(w, seed, seconds, trace, capture, workdir)
            : run_search_workload(w, seed, seconds, trace, capture);
    if (trace && !capture.write(args.get("trace-out", ""))) {
      std::fprintf(stderr, "error writing the trace\n");
      return 1;
    }
    if (trace) out.layers["obs.trace_dropped"] = static_cast<double>(capture.dropped());
    print_output(std::cout, w, seed, trace, out);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ladder_bench: %s\n", error.what());
    return 1;
  }
}
