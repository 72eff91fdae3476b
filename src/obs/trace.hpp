// Low-overhead span tracer. Roles record begin/end/instant/flow events into
// per-thread ring buffers; a drain merges them into a TraceLog that can be
// written as Chrome trace_event JSON (chrome://tracing, Perfetto) or fed to
// the report generator (obs/report.hpp).
//
// Cost contract: tracing is off by default and every recording call site is
// guarded by a single relaxed atomic load (trace_enabled()), so instrumented
// hot paths pay ~1ns when disabled — bench_kernels measures and enforces
// this (<2% of the dominant kernel's per-call time). When enabled, an event
// is one stamp + one uncontended per-thread mutex'd ring write (~tens of ns),
// cheap at span granularity (tasks, rounds, batches — never per pattern).
//
// Ring overflow keeps the NEWEST events (oldest are overwritten) and counts
// the drops, so the tail of a run — usually what you are debugging — always
// survives.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fdml::obs {

/// Chrome trace_event phases (the subset we emit).
enum class Phase : char {
  kBegin = 'B',
  kEnd = 'E',
  kInstant = 'i',
  kFlowBegin = 's',
  kFlowStep = 't',
  kFlowEnd = 'f',
  kCounter = 'C',
};

/// One runtime event. `cat`/`name`/arg names must be string literals (or
/// otherwise immortal) — the ring stores the pointers, not copies.
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  Phase ph = Phase::kInstant;
  std::uint64_t ts_ns = 0;  // 0 = stamp with monotonic_ns() at record time
  std::uint64_t id = 0;     // flow-arc binding (s/t/f share one id)
  const char* arg0_name = nullptr;
  std::int64_t arg0 = 0;
  const char* arg1_name = nullptr;
  std::int64_t arg1 = 0;
};

/// Drained/loaded/simulated trace: owned strings, events sorted by time.
/// This is the common currency of the live tracer, the simulator (which
/// fills one directly with virtual timestamps), and the report generator.
struct LogEvent {
  int tid = 0;
  Phase ph = Phase::kInstant;
  double ts_ns = 0.0;
  std::uint64_t id = 0;
  std::string cat;
  std::string name;
  std::string arg0_name;  // empty = absent
  std::int64_t arg0 = 0;
  std::string arg1_name;
  std::int64_t arg1 = 0;
};

struct TraceLog {
  /// tid -> display name ("master", "foreman", "worker-3", ...).
  std::vector<std::pair<int, std::string>> threads;
  std::vector<LogEvent> events;
  std::uint64_t dropped_events = 0;

  void set_thread(int tid, std::string name);
  LogEvent& add(int tid, Phase ph, double ts_ns, std::string cat,
                std::string name, std::uint64_t id = 0);
  /// Stable-sorts events by timestamp (analysis assumes time order).
  void sort_events();

  /// Chrome trace_event JSON ({"traceEvents":[...]}, ts in microseconds).
  void write_chrome(std::ostream& out) const;
};

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}

/// The one check every instrumentation site pays when tracing is off.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

class Tracer {
 public:
  /// Starts recording. `events_per_thread` bounds each thread's ring. A
  /// ring's slots are allocated on its thread's first event after this, so
  /// threads that never record while tracing is on cost no ring memory.
  void enable(std::size_t events_per_thread = 1 << 16);
  /// Stops recording; buffered events stay drainable.
  void disable();
  /// Clears buffered events and drop counts (enabled state unchanged).
  void reset();

  /// Names the calling thread in the trace and mirrors the label into the
  /// logger so log lines and trace rows agree. Safe to call when disabled.
  void set_thread_name(std::string name);

  /// Records one event (no-op when disabled). Stamps ts_ns if zero.
  void record(TraceEvent event);

  /// Merged snapshot of all rings, sorted by timestamp.
  TraceLog drain() const;

  /// Like drain(), but consumes: ring contents and drop counts are cleared
  /// (drops transfer into the returned log's dropped_events). This is what
  /// the rotating segment writer calls — each event lands in exactly one
  /// segment.
  TraceLog drain_and_reset();

  std::uint64_t dropped() const;

  static Tracer& instance();

  /// Implementation detail (public so the thread-local registration cache
  /// in trace.cpp can name it); not part of the recording API.
  struct Ring {
    std::mutex mutex;
    int tid = 0;
    std::string name;
    std::vector<TraceEvent> slots;
    std::size_t head = 0;  // oldest
    std::size_t size = 0;
    std::uint64_t dropped = 0;
  };

 private:
  Ring& local_ring();

  mutable std::mutex mutex_;  // guards the rings_ vector
  std::vector<std::unique_ptr<Ring>> rings_;
  /// Slots a ring allocates on its first event (set by enable()).
  std::atomic<std::size_t> capacity_{1 << 16};
};

/// --- Convenience recording API (all one relaxed load when disabled) ---

/// Names the calling thread for traces *and* log lines.
void set_thread_name(std::string name);

inline void emit(const TraceEvent& event) {
  if (trace_enabled()) Tracer::instance().record(event);
}

inline void instant(const char* cat, const char* name,
                    const char* arg0_name = nullptr, std::int64_t arg0 = 0,
                    const char* arg1_name = nullptr, std::int64_t arg1 = 0) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.ph = Phase::kInstant;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  Tracer::instance().record(e);
}

/// Flow arc linking a task's dispatch (s, foreman) -> execute (t, worker)
/// -> result accept (f, foreman) across threads.
inline void flow(Phase ph, std::uint64_t id,
                 const char* arg0_name = nullptr, std::int64_t arg0 = 0) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.cat = "flow";
  e.name = "task";
  e.ph = ph;
  e.id = id;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  Tracer::instance().record(e);
}

/// Counter track (e.g. foreman queue depth over time).
inline void counter(const char* name, std::int64_t value) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.cat = "counter";
  e.name = name;
  e.ph = Phase::kCounter;
  e.arg0_name = "value";
  e.arg0 = value;
  Tracer::instance().record(e);
}

/// Stable flow id for a (round, task) pair; collision-scrambled so ids from
/// different rounds never alias in the viewer.
inline std::uint64_t task_flow_id(std::uint64_t round_id,
                                  std::uint64_t task_id) {
  // Full avalanche (murmur-style finalizer): simulated traces reuse small
  // task indices every round, so weak mixing collides across rounds.
  std::uint64_t h = (task_id + 1) * 0x9E3779B97F4A7C15ull;
  h ^= (round_id + 1) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h | 1;  // never 0 (0 reads as "no flow")
}

/// RAII duration span: B on construction, E on destruction. Args given at
/// construction ride on the B event; set_end_args() attaches results (e.g.
/// kernel-counter deltas) to the E event.
class Span {
 public:
  Span(const char* cat, const char* name,
       const char* arg0_name = nullptr, std::int64_t arg0 = 0,
       const char* arg1_name = nullptr, std::int64_t arg1 = 0) {
    if (trace_enabled()) start(cat, name, arg0_name, arg0, arg1_name, arg1);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (active_) finish();
  }

  void set_end_args(const char* arg0_name, std::int64_t arg0,
                    const char* arg1_name = nullptr, std::int64_t arg1 = 0) {
    end_arg0_name_ = arg0_name;
    end_arg0_ = arg0;
    end_arg1_name_ = arg1_name;
    end_arg1_ = arg1;
  }

 private:
  void start(const char* cat, const char* name, const char* arg0_name,
             std::int64_t arg0, const char* arg1_name, std::int64_t arg1);
  void finish();

  bool active_ = false;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  const char* end_arg0_name_ = nullptr;
  std::int64_t end_arg0_ = 0;
  const char* end_arg1_name_ = nullptr;
  std::int64_t end_arg1_ = 0;
};

}  // namespace fdml::obs
