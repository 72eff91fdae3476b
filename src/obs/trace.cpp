#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/log.hpp"
#include "util/timer.hpp"

namespace fdml::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}

namespace {

// Per-thread ring pointer. Rings are owned by the Tracer and never freed
// while the process lives (reset() clears contents, not objects), so a
// cached pointer can't dangle even across enable/disable cycles.
thread_local Tracer::Ring* t_ring = nullptr;

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void TraceLog::set_thread(int tid, std::string name) {
  for (auto& [existing, existing_name] : threads) {
    if (existing == tid) {
      existing_name = std::move(name);
      return;
    }
  }
  threads.emplace_back(tid, std::move(name));
}

LogEvent& TraceLog::add(int tid, Phase ph, double ts_ns, std::string cat,
                        std::string name, std::uint64_t id) {
  LogEvent event;
  event.tid = tid;
  event.ph = ph;
  event.ts_ns = ts_ns;
  event.id = id;
  event.cat = std::move(cat);
  event.name = std::move(name);
  events.push_back(std::move(event));
  return events.back();
}

void TraceLog::sort_events() {
  std::stable_sort(events.begin(), events.end(),
                   [](const LogEvent& a, const LogEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
}

void TraceLog::write_chrome(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [tid, name] : threads) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(name) << "\"}}";
  }
  char ts_buf[40];
  for (const auto& event : events) {
    sep();
    // Chrome ts is in microseconds; three decimals keep ns precision.
    std::snprintf(ts_buf, sizeof ts_buf, "%.3f", event.ts_ns / 1000.0);
    out << "{\"ph\":\"" << static_cast<char>(event.ph) << "\",\"pid\":1,\"tid\":"
        << event.tid << ",\"ts\":" << ts_buf << ",\"cat\":\""
        << json_escape(event.cat) << "\",\"name\":\"" << json_escape(event.name)
        << "\"";
    if (event.ph == Phase::kFlowBegin || event.ph == Phase::kFlowStep ||
        event.ph == Phase::kFlowEnd) {
      char id_buf[24];
      std::snprintf(id_buf, sizeof id_buf, "0x%llx",
                    static_cast<unsigned long long>(event.id));
      out << ",\"id\":\"" << id_buf << "\"";
      if (event.ph == Phase::kFlowEnd) out << ",\"bp\":\"e\"";
    }
    if (event.ph == Phase::kInstant) out << ",\"s\":\"t\"";
    if (!event.arg0_name.empty() || !event.arg1_name.empty()) {
      out << ",\"args\":{";
      bool first_arg = true;
      if (!event.arg0_name.empty()) {
        out << "\"" << json_escape(event.arg0_name) << "\":" << event.arg0;
        first_arg = false;
      }
      if (!event.arg1_name.empty()) {
        if (!first_arg) out << ",";
        out << "\"" << json_escape(event.arg1_name) << "\":" << event.arg1;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n],\"otherData\":{\"droppedEvents\":" << dropped_events << "}}\n";
}

void Tracer::enable(std::size_t events_per_thread) {
  {
    std::lock_guard lock(mutex_);
    capacity_.store(events_per_thread == 0 ? 1 : events_per_thread,
                    std::memory_order_relaxed);
    // Free every ring's slots: each reallocates at the new capacity on its
    // first event, so rings of idle (or exited) threads stay empty.
    for (auto& ring : rings_) {
      std::lock_guard ring_lock(ring->mutex);
      std::vector<TraceEvent>().swap(ring->slots);
      ring->head = 0;
      ring->size = 0;
      ring->dropped = 0;
    }
  }
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  for (auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    ring->head = 0;
    ring->size = 0;
    ring->dropped = 0;
  }
}

Tracer::Ring& Tracer::local_ring() {
  if (t_ring != nullptr) return *t_ring;
  std::lock_guard lock(mutex_);
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<int>(rings_.size());
  t_ring = ring.get();
  rings_.push_back(std::move(ring));
  return *t_ring;
}

void Tracer::set_thread_name(std::string name) {
  set_log_thread_label(name);
  Ring& ring = local_ring();
  std::lock_guard lock(ring.mutex);
  ring.name = std::move(name);
}

void Tracer::record(TraceEvent event) {
  if (!trace_enabled()) return;
  if (event.ts_ns == 0) event.ts_ns = monotonic_ns();
  Ring& ring = local_ring();
  std::lock_guard lock(ring.mutex);
  if (ring.slots.empty()) {
    ring.slots.assign(capacity_.load(std::memory_order_relaxed), TraceEvent{});
  }
  if (ring.size < ring.slots.size()) {
    ring.slots[(ring.head + ring.size) % ring.slots.size()] = event;
    ++ring.size;
  } else {
    // Full: overwrite the oldest slot so the newest events survive.
    ring.slots[ring.head] = event;
    ring.head = (ring.head + 1) % ring.slots.size();
    ++ring.dropped;
  }
}

TraceLog Tracer::drain() const {
  TraceLog log;
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    std::string name = ring->name.empty()
                           ? "thread-" + std::to_string(ring->tid)
                           : ring->name;
    log.set_thread(ring->tid, std::move(name));
    for (std::size_t i = 0; i < ring->size; ++i) {
      const TraceEvent& e = ring->slots[(ring->head + i) % ring->slots.size()];
      LogEvent& out = log.add(ring->tid, e.ph, static_cast<double>(e.ts_ns),
                              e.cat ? e.cat : "", e.name ? e.name : "", e.id);
      if (e.arg0_name != nullptr) {
        out.arg0_name = e.arg0_name;
        out.arg0 = e.arg0;
      }
      if (e.arg1_name != nullptr) {
        out.arg1_name = e.arg1_name;
        out.arg1 = e.arg1;
      }
    }
    log.dropped_events += ring->dropped;
  }
  log.sort_events();
  return log;
}

TraceLog Tracer::drain_and_reset() {
  TraceLog log;
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    std::string name = ring->name.empty()
                           ? "thread-" + std::to_string(ring->tid)
                           : ring->name;
    log.set_thread(ring->tid, std::move(name));
    for (std::size_t i = 0; i < ring->size; ++i) {
      const TraceEvent& e = ring->slots[(ring->head + i) % ring->slots.size()];
      LogEvent& out = log.add(ring->tid, e.ph, static_cast<double>(e.ts_ns),
                              e.cat ? e.cat : "", e.name ? e.name : "", e.id);
      if (e.arg0_name != nullptr) {
        out.arg0_name = e.arg0_name;
        out.arg0 = e.arg0;
      }
      if (e.arg1_name != nullptr) {
        out.arg1_name = e.arg1_name;
        out.arg1 = e.arg1;
      }
    }
    log.dropped_events += ring->dropped;
    ring->head = 0;
    ring->size = 0;
    ring->dropped = 0;
  }
  log.sort_events();
  return log;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void set_thread_name(std::string name) {
  Tracer::instance().set_thread_name(std::move(name));
}

void Span::start(const char* cat, const char* name, const char* arg0_name,
                 std::int64_t arg0, const char* arg1_name, std::int64_t arg1) {
  cat_ = cat;
  name_ = name;
  active_ = true;
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.ph = Phase::kBegin;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  Tracer::instance().record(e);
}

void Span::finish() {
  active_ = false;
  TraceEvent e;
  e.cat = cat_;
  e.name = name_;
  e.ph = Phase::kEnd;
  e.arg0_name = end_arg0_name_;
  e.arg0 = end_arg0_;
  e.arg1_name = end_arg1_name_;
  e.arg1 = end_arg1_;
  Tracer::instance().record(e);
}

}  // namespace fdml::obs
