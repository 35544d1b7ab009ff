// Discrete-event scheduler for the edge fusion service.
//
// The edge service's determinism contract — fixed seed implies bit-identical
// event order, admission decisions and detections at any thread or shard
// count — rests on this module: *all* service logic runs as events on one
// virtual clock, ordered by (time, schedule sequence).  Real threads only
// ever execute the data-parallel interior of a single event (the fusion
// batch), never reorder events.  Two events at the same virtual time fire in
// the order they were scheduled, so ties are total and replay-stable.
//
// The `TimerWheel` complements the event loop for cancellable housekeeping
// timers (per-session reassembly/expiry sweeps): a fixed ring of coarse
// slots, O(1) arm/cancel, fired in (slot, id) order when the loop advances
// past them.  Firing order is again total, so sweeps cannot introduce
// nondeterminism.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace cooper::serve {

/// Virtual-clock event loop.  Single-threaded by design: events run on the
/// caller of `RunUntil`, in (at_s, seq) order, and may schedule further
/// events (including at the current time, which fire before the loop
/// returns if they are within the horizon).
class Scheduler {
 public:
  using Fn = std::function<void(double now_s)>;

  /// Schedules `fn` at virtual time `at_s`.  Scheduling in the past is
  /// clamped to the current clock (the event still fires, after everything
  /// already queued for that instant).
  void At(double at_s, Fn fn);

  /// Runs every event with `at_s <= horizon_s`, advancing the clock to each
  /// event's time.  Returns the number of events executed.  The clock ends
  /// at `horizon_s` even when the queue drains early.
  std::size_t RunUntil(double horizon_s);

  double now_s() const { return now_s_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    double at_s = 0.0;
    std::uint64_t seq = 0;  // schedule order, breaks same-time ties FIFO
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_s != b.at_s) return a.at_s > b.at_s;
      return a.seq > b.seq;
    }
  };

  // A binary min-heap under `Later`, kept with std::push_heap/pop_heap so
  // RunUntil can move each event (and its closure's captures) out; a
  // priority_queue only exposes a const top, which forces a copy.
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  double now_s_ = 0.0;
};

/// Fixed-ring timer wheel: `slots` buckets of `slot_s` seconds each.  A
/// timer armed past the ring's span lands in the furthest slot and is
/// re-checked (not fired) until its due time truly arrives, so coarse rings
/// stay correct for long timeouts.  One timer per id; re-arming replaces.
class TimerWheel {
 public:
  TimerWheel(double slot_s, std::size_t slots);

  void Arm(std::uint64_t id, double due_s);
  void Cancel(std::uint64_t id);

  /// Fires every timer due at or before `now_s` — ascending due slot, then
  /// ascending id — and returns how many fired.
  std::size_t Advance(double now_s,
                      const std::function<void(std::uint64_t)>& fire);

  std::size_t armed() const { return due_by_id_.size(); }

 private:
  std::size_t SlotOf(double due_s) const;

  double slot_s_;
  std::vector<std::map<std::uint64_t, double>> ring_;  // slot -> id -> due_s
  std::map<std::uint64_t, std::size_t> due_by_id_;     // id -> slot index
  std::size_t cursor_ = 0;    // next slot to scan
  double advanced_to_s_ = 0.0;
};

}  // namespace cooper::serve
