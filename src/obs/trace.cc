#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/json.h"

namespace cooper::obs {
namespace {

// Per-thread buffers stay reachable (shared_ptr in a global registry) after
// their thread exits, so a trace can be exported once workers are gone.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

struct ThreadBuffer {
  std::mutex mu;
  int tid = 0;
  std::string thread_name;
  std::vector<TraceEvent> events;
  std::size_t dropped = 0;
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 0;
};

BufferRegistry& Registry() {
  static BufferRegistry* registry = new BufferRegistry();
  return *registry;
}

struct SpanFrame {
  std::string name;
  std::string category;
  double start_us = 0.0;
};

thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local std::vector<SpanFrame> t_span_stack;

ThreadBuffer& LocalBuffer() {
  if (!t_buffer) {
    auto buffer = std::make_shared<ThreadBuffer>();
    BufferRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffer->tid = registry.next_tid++;
    buffer->thread_name = buffer->tid == 0
                              ? "main"
                              : "thread-" + std::to_string(buffer->tid);
    registry.buffers.push_back(buffer);
    t_buffer = std::move(buffer);
  }
  return *t_buffer;
}

void AppendEvent(ThreadBuffer& buffer, TraceEvent event) {
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(std::move(event));
}

void WriteEventJson(std::ostream& out, int tid, const TraceEvent& e) {
  char buf[64];
  out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"name\":\""
      << json::Escape(e.name) << "\",\"cat\":\""
      << json::Escape(e.category.empty() ? "default" : e.category) << "\"";
  std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f}", e.ts_us,
                e.dur_us);
  out << buf;
}

}  // namespace

double TraceNowUs() {
  // One fixed epoch for the whole process: the first call wins.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int CurrentThreadId() { return LocalBuffer().tid; }

void SetCurrentThreadName(std::string name) {
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.thread_name = std::move(name);
}

std::string CurrentSpanName() {
  return t_span_stack.empty() ? std::string() : t_span_stack.back().name;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Emit(std::string_view name, std::string_view category,
                  double start_us, double duration_us) {
  if (!Enabled()) return;
  TraceEvent event;
  event.name.assign(name);
  event.category.assign(category);
  event.ts_us = start_us;
  event.dur_us = duration_us;
  AppendEvent(LocalBuffer(), std::move(event));
}

void Tracer::WriteChromeTrace(std::ostream& out) const {
  struct Lane {
    int tid;
    std::string name;
    std::vector<TraceEvent> events;
  };
  std::vector<Lane> lanes;
  {
    BufferRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    lanes.reserve(registry.buffers.size());
    for (const auto& buffer : registry.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      lanes.push_back({buffer->tid, buffer->thread_name, buffer->events});
    }
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Lane& lane : lanes) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << lane.tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json::Escape(lane.name) << "\"}}";
  }
  for (const Lane& lane : lanes) {
    // Stable order inside a lane: by start time, longest first on ties, so
    // viewers reconstruct nesting deterministically.
    std::vector<const TraceEvent*> ordered;
    ordered.reserve(lane.events.size());
    for (const TraceEvent& e : lane.events) ordered.push_back(&e);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                       return a->dur_us > b->dur_us;
                     });
    for (const TraceEvent* e : ordered) {
      out << ",\n";
      WriteEventJson(out, lane.tid, *e);
    }
  }
  out << "]}\n";
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteChromeTrace(out);
  return static_cast<bool>(out.flush());
}

void Tracer::Clear() {
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

double Tracer::TotalUs(std::string_view name) const {
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  double total = 0.0;
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (const TraceEvent& e : buffer->events) {
      if (e.name == name && e.category != "parallel") total += e.dur_us;
    }
  }
  return total;
}

std::size_t Tracer::event_count() const {
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::size_t n = 0;
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    n += buffer->events.size();
  }
  return n;
}

std::size_t Tracer::dropped_events() const {
  BufferRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::size_t n = 0;
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    n += buffer->dropped;
  }
  return n;
}

Span::Span(std::string_view name, std::string_view category) {
  if (!Enabled()) return;
  SpanFrame frame;
  frame.name.assign(name);
  frame.category.assign(category);
  frame.start_us = TraceNowUs();
  t_span_stack.push_back(std::move(frame));
  active_ = true;
}

Span::~Span() {
  if (!active_ || t_span_stack.empty()) return;
  SpanFrame frame = std::move(t_span_stack.back());
  t_span_stack.pop_back();
  // Emit even if the layer was switched off mid-span: the open frame must
  // be balanced, and one straggler event is harmless.
  TraceEvent event;
  event.name = std::move(frame.name);
  event.category = std::move(frame.category);
  event.ts_us = frame.start_us;
  event.dur_us = TraceNowUs() - frame.start_us;
  AppendEvent(LocalBuffer(), std::move(event));
}

}  // namespace cooper::obs
