#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/status.h"

namespace cooper::serve {

void Scheduler::At(double at_s, Fn fn) {
  Event event;
  event.at_s = std::max(at_s, now_s_);
  event.seq = next_seq_++;
  event.fn = std::move(fn);
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::size_t Scheduler::RunUntil(double horizon_s) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().at_s <= horizon_s) {
    // Move out before running: the handler may schedule (mutating the heap).
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    now_s_ = event.at_s;
    event.fn(now_s_);
    ++executed;
  }
  now_s_ = std::max(now_s_, horizon_s);
  return executed;
}

TimerWheel::TimerWheel(double slot_s, std::size_t slots)
    : slot_s_(slot_s), ring_(slots) {
  COOPER_CHECK(slot_s > 0.0);
  COOPER_CHECK(slots > 0);
}

std::size_t TimerWheel::SlotOf(double due_s) const {
  // Slots past the ring's span wrap; Advance re-checks the stored due time,
  // so a wrapped timer parks in its slot until its real due time passes.
  const auto abs_slot =
      static_cast<std::uint64_t>(std::max(0.0, due_s) / slot_s_);
  return static_cast<std::size_t>(abs_slot % ring_.size());
}

void TimerWheel::Arm(std::uint64_t id, double due_s) {
  Cancel(id);
  const std::size_t slot = SlotOf(due_s);
  ring_[slot][id] = due_s;
  due_by_id_[id] = slot;
}

void TimerWheel::Cancel(std::uint64_t id) {
  const auto it = due_by_id_.find(id);
  if (it == due_by_id_.end()) return;
  ring_[it->second].erase(id);
  due_by_id_.erase(it);
}

std::size_t TimerWheel::Advance(double now_s,
                                const std::function<void(std::uint64_t)>& fire) {
  std::size_t fired = 0;
  if (now_s < advanced_to_s_) return 0;
  // Scan at most one full revolution: every slot that could hold a due timer
  // between the last advance and now.  Collect due ids per slot first so a
  // handler that re-arms does not invalidate the iteration.
  const std::size_t slots = ring_.size();
  const auto last_slot = cursor_;
  const auto target_slot =
      static_cast<std::size_t>(static_cast<std::uint64_t>(now_s / slot_s_) %
                               slots);
  std::size_t steps;
  if (now_s - advanced_to_s_ >= slot_s_ * static_cast<double>(slots)) {
    steps = slots;  // jumped a whole revolution: every slot may hold dues
  } else {
    steps = (target_slot + slots - last_slot) % slots + 1;
  }
  std::size_t slot = last_slot;
  for (std::size_t i = 0; i < steps; ++i, slot = (slot + 1) % slots) {
    std::vector<std::uint64_t> due;
    for (const auto& [id, due_s] : ring_[slot]) {
      if (due_s <= now_s) due.push_back(id);
    }
    for (const std::uint64_t id : due) {
      Cancel(id);
      fire(id);
      ++fired;
    }
  }
  cursor_ = target_slot;
  advanced_to_s_ = now_s;
  return fired;
}

}  // namespace cooper::serve
