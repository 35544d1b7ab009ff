// cooper_obs tracing: RAII spans exported as Chrome trace-event JSON.
//
// A `Span` marks one timed region on the calling thread; nesting falls out
// of lexical scoping, and the exported file loads directly in Perfetto or
// chrome://tracing (complete "X" events, one lane per thread, lanes named
// via "thread_name" metadata).  `common::ThreadPool::ParallelFor` captures
// the submitting thread's innermost span name and re-opens it (category
// "parallel") on every participating thread, so parallel stages render on
// their worker lanes instead of vanishing into the caller's span.
//
// Everything honours the same master switch as the metrics half
// (`obs::SetEnabled`); disabled, a Span construct/destruct is a relaxed
// atomic load and a branch.  Events buffer per thread behind a per-thread
// mutex (uncontended on the hot path) and merge at export time.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.h"  // for Enabled()/SetEnabled()

namespace cooper::obs {

/// Microseconds since the process-wide trace epoch (steady clock).  Every
/// trace timestamp reads this one clock.
double TraceNowUs();

/// Small dense id of the calling thread (0 = first thread that touched the
/// tracing layer).  Used as the Chrome "tid" so lanes are stable and small.
int CurrentThreadId();

/// Names the calling thread's lane in exported traces ("main",
/// "pool-worker-3", ...).  Threads default to "thread-<id>".
void SetCurrentThreadName(std::string name);

/// Name of the innermost open span on this thread, "" when none — the tag
/// ThreadPool propagates into ParallelFor workers.
std::string CurrentSpanName();

class Tracer {
 public:
  static Tracer& Global();

  /// Appends a complete ("ph":"X") event on the calling thread's lane.
  /// `start_us`/`duration_us` are on the TraceNowUs() clock.  No-op when
  /// the layer is disabled.
  void Emit(std::string_view name, std::string_view category, double start_us,
            double duration_us);

  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  void WriteChromeTrace(std::ostream& out) const;
  /// Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Drops all buffered events (thread registrations survive).
  void Clear();

  /// Summed duration, microseconds, of every buffered span named `name`,
  /// on every thread.  The "parallel" copies ThreadPool re-opens on its
  /// participants are skipped, so a ParallelFor stage counts once.  This is
  /// how benches and tools read stage times: Clear(), run, then TotalUs().
  /// 0 when no such span is buffered, as while the layer is disabled.
  double TotalUs(std::string_view name) const;

  std::size_t event_count() const;
  /// Events discarded because a thread buffer hit its cap.
  std::size_t dropped_events() const;

 private:
  Tracer() = default;
};

/// RAII trace span.  Construct to open, destruct to close; safe (and free)
/// when the layer is disabled.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

}  // namespace cooper::obs
