// Benchmark-owned decorators over the library's public seams. They time and
// count from outside: nothing here changes what the wrapped object computes,
// so a decorated run must give the same answers bit for bit as a bare one.
//
//   TimedRunner          TaskRunner::run_round   (search / task / service)
//   RecvTimingTransport  ClusterOptions::wrap_worker_transport   (comm)
//   TimedVfs             SchedulerOptions::vfs / SearchOptions::vfs (durable)
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fdml.hpp"

namespace ladder {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What TimedRunner saw over a measurement window.
struct RoundTotals {
  std::uint64_t rounds = 0;
  std::uint64_t tasks = 0;
  double round_s = 0.0;      ///< sum of run_round wall time
  double task_cpu_s = 0.0;   ///< sum of TaskStat::cpu_seconds
  std::uint64_t bytes = 0;   ///< sum of TaskStat::bytes
  /// Sum over rounds of (busiest worker's task time - mean worker task
  /// time): how long the barrier waits on an unbalanced split.
  double slack_s = 0.0;

  RoundTotals& operator+=(const RoundTotals& other) {
    rounds += other.rounds;
    tasks += other.tasks;
    round_s += other.round_s;
    task_cpu_s += other.task_cpu_s;
    bytes += other.bytes;
    slack_s += other.slack_s;
    return *this;
  }
};

/// A round as dispatched, kept for replay through TaskEvaluator.
struct RecordedRound {
  std::vector<fdml::TreeTask> tasks;
  std::uint64_t stat_bytes = 0;
  double best_log_likelihood = 0.0;
};

class TimedRunner final : public fdml::TaskRunner {
 public:
  explicit TimedRunner(fdml::TaskRunner& inner) : inner_(inner) {}

  fdml::RoundOutcome run_round(
      const std::vector<fdml::TreeTask>& tasks) override {
    fdml::obs::Span span("bench", "round", "tasks",
                         static_cast<std::int64_t>(tasks.size()));
    const std::int64_t start = now_ns();
    fdml::RoundOutcome outcome = inner_.run_round(tasks);
    const double wall = static_cast<double>(now_ns() - start) * 1e-9;

    const int workers = std::max(1, inner_.worker_count());
    std::map<int, double> busy;
    double cpu = 0.0;
    std::uint64_t bytes = 0;
    for (const fdml::TaskStat& stat : outcome.stats) {
      busy[stat.worker] += stat.cpu_seconds;
      cpu += stat.cpu_seconds;
      bytes += stat.bytes;
    }
    double busiest = 0.0;
    for (const auto& [worker, seconds] : busy) busiest = std::max(busiest, seconds);

    std::lock_guard lock(mutex_);
    totals_ += RoundTotals{1, tasks.size(), wall, cpu, bytes, busiest - cpu / workers};
    if (record_budget_ >= tasks.size()) {
      record_budget_ -= tasks.size();
      recorded_.push_back({tasks, bytes, outcome.best.log_likelihood});
    } else {
      record_budget_ = 0;  // keep the recorded rounds consecutive
    }
    return outcome;
  }

  int worker_count() const override { return inner_.worker_count(); }

  /// Returns the totals since the previous call and starts a new window.
  RoundTotals take() {
    std::lock_guard lock(mutex_);
    RoundTotals out = totals_;
    totals_ = {};
    return out;
  }

  /// Keep copies of the next rounds, up to `max_tasks` tasks in total.
  void record(std::size_t max_tasks) {
    std::lock_guard lock(mutex_);
    record_budget_ = max_tasks;
  }
  std::vector<RecordedRound> take_recorded() {
    std::lock_guard lock(mutex_);
    record_budget_ = 0;
    return std::move(recorded_);
  }

 private:
  fdml::TaskRunner& inner_;
  std::mutex mutex_;
  RoundTotals totals_;
  std::size_t record_budget_ = 0;
  std::vector<RecordedRound> recorded_;
};

/// Time worker endpoints spend blocked in recv, clipped to the current
/// window so the idle gap before a window is not charged to it.
class WaitClock {
 public:
  void start_window() {
    window_start_.store(now_ns(), std::memory_order_relaxed);
    waited_.store(0, std::memory_order_relaxed);
  }
  double waited_seconds() const {
    return static_cast<double>(waited_.load(std::memory_order_relaxed)) * 1e-9;
  }
  void add(std::int64_t start, std::int64_t end) {
    start = std::max(start, window_start_.load(std::memory_order_relaxed));
    if (end > start) waited_.fetch_add(end - start, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> window_start_{0};
  std::atomic<std::int64_t> waited_{0};
};

class RecvTimingTransport final : public fdml::Transport {
 public:
  RecvTimingTransport(std::unique_ptr<fdml::Transport> inner, WaitClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }
  void send(int dest, fdml::MessageTag tag,
            std::vector<std::uint8_t> payload) override {
    inner_->send(dest, tag, std::move(payload));
  }
  std::optional<fdml::Message> recv() override {
    const std::int64_t start = now_ns();
    auto message = inner_->recv();
    clock_.add(start, now_ns());
    return message;
  }
  std::optional<fdml::Message> recv_for(
      std::chrono::milliseconds timeout) override {
    const std::int64_t start = now_ns();
    auto message = inner_->recv_for(timeout);
    clock_.add(start, now_ns());
    return message;
  }
  bool closed() const override { return inner_->closed(); }

 private:
  std::unique_ptr<fdml::Transport> inner_;
  WaitClock& clock_;
};

/// Counts durable writes through the real filesystem. A commit is one
/// rename (the store's tmp -> final publish step).
class TimedVfs final : public fdml::Vfs {
 public:
  struct Totals {
    std::uint64_t commits = 0;
    std::uint64_t bytes_written = 0;
    double write_s = 0.0;
  };

  void write_file(const std::string& path, const std::uint8_t* data,
                  std::size_t size) override {
    const std::int64_t start = now_ns();
    real_.write_file(path, data, size);
    charge(start, size, 0);
  }
  void append_file(const std::string& path, const std::uint8_t* data,
                   std::size_t size) override {
    const std::int64_t start = now_ns();
    real_.append_file(path, data, size);
    charge(start, size, 0);
  }
  std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) override {
    return real_.read_file(path);
  }
  void rename_file(const std::string& from, const std::string& to) override {
    const std::int64_t start = now_ns();
    real_.rename_file(from, to);
    charge(start, 0, 1);
  }
  void remove_file(const std::string& path) override { real_.remove_file(path); }
  bool exists(const std::string& path) override { return real_.exists(path); }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return real_.list_dir(dir);
  }
  void sync_dir(const std::string& dir) override {
    const std::int64_t start = now_ns();
    real_.sync_dir(dir);
    charge(start, 0, 0);
  }

  Totals take() {
    std::lock_guard lock(mutex_);
    Totals out = totals_;
    totals_ = {};
    return out;
  }

 private:
  void charge(std::int64_t start, std::size_t bytes, std::uint64_t commits) {
    const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
    std::lock_guard lock(mutex_);
    totals_.commits += commits;
    totals_.bytes_written += bytes;
    totals_.write_s += seconds;
  }

  fdml::Vfs& real_ = fdml::real_vfs();
  std::mutex mutex_;
  Totals totals_;
};

}  // namespace ladder
