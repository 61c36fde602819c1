#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace pfi::sim {

namespace {

constexpr TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<TimerId>(gen) << 32) | (static_cast<TimerId>(slot) + 1);
}
constexpr std::uint32_t slot_of(TimerId id) {
  return static_cast<std::uint32_t>(id) - 1;
}
constexpr std::uint32_t gen_of(TimerId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

TimerId Scheduler::schedule(Duration delay, Callback fn) {
  return schedule_at(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

TimerId Scheduler::schedule_at(TimePoint when, Callback fn) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  ++s.gen;  // odd: pending
  queue_.push(Entry{std::max(when, now_), next_seq_++, slot, s.gen});
  ++live_count_;
  ++stats_.timers_scheduled;
  if (live_count_ > stats_.queue_high_water) {
    stats_.queue_high_water = live_count_;
  }
  return make_id(slot, s.gen);
}

Callback Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // even: free; any entry or id naming the old gen is now stale
  free_.push_back(slot);
  --live_count_;
  return std::move(s.fn);
}

bool Scheduler::cancel(TimerId id) {
  if (!pending(id)) return false;
  ++stats_.timers_cancelled;
  // The closure dies with release's result, once the slot is consistent
  // again, so its destructor may itself use the scheduler.
  release(slot_of(id));
  return true;
}

bool Scheduler::pending(TimerId id) const {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t gen = gen_of(id);
  return slot < slots_.size() && (gen & 1U) != 0 && slots_[slot].gen == gen;
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    const Entry e = queue_.top();
    queue_.pop();
    if (!is_live(e)) continue;  // cancelled tombstone
    now_ = e.when;
    ++stats_.events_dispatched;
    // Take the callback out first: it may schedule more events, which can
    // reuse this slot or grow the slab under it.
    Callback fn = release(e.slot);
    fn();
    return true;
  }
  return false;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events && step()) ++fired;
  return fired;
}

std::size_t Scheduler::run_until(TimePoint deadline, std::size_t max_events) {
  std::size_t fired = 0;
  while (!queue_.empty()) {
    // Peek past cancelled tombstones without firing anything late.
    if (!is_live(queue_.top())) {
      queue_.pop();
      continue;
    }
    if (queue_.top().when > deadline) break;
    // Budget-stopped with due events still queued: leave the clock at the
    // last fired event so a follow-up call resumes exactly where this one
    // left off (the campaign watchdog advances in slices this way).
    if (fired >= max_events) return fired;
    if (step()) ++fired;
  }
  now_ = std::max(now_, deadline);
  return fired;
}

std::size_t Scheduler::run_for(Duration span, std::size_t max_events) {
  return run_until(now_ + std::max<Duration>(span, 0), max_events);
}

}  // namespace pfi::sim
