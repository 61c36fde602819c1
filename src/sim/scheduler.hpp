// Deterministic discrete-event scheduler.
//
// All asynchrony in the toolkit — network propagation delays, protocol
// retransmission timers, script-requested delays — is expressed as events on
// one scheduler. Events at equal timestamps fire in insertion order, so a
// given seed always replays the identical execution. This determinism is what
// lets the PFI experiments force "hard-to-reach" interleavings on purpose
// instead of hoping for them (paper §1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace pfi::sim {

/// Handle to a scheduled event; used to cancel it before it fires. Ids are
/// opaque: they name a slot and its generation, and carry no ordering.
using TimerId = std::uint64_t;

constexpr TimerId kInvalidTimer = 0;

/// Move-only `void()` callable for scheduled events. A closure of up to
/// kInlineBytes lives inside the Callback, so scheduling it allocates
/// nothing; a larger one is kept on the heap.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Callback() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // implicit: a closure converts where it is scheduled
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  void operator()() { ops_->call(buf_); }

 private:
  struct Ops {
    void (*call)(void* self);
    // Move-construct into `dst` and destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); }};

  void reset() {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Intrinsic instrumentation, always on: four integer updates per event is
/// cheap enough to never gate, and keeping it inside the scheduler means the
/// counts are a pure function of the simulation (exported into the campaign
/// metrics registry at collect time, never sampled off wall clocks).
struct SchedulerStats {
  std::uint64_t events_dispatched = 0;  // callbacks actually fired
  std::uint64_t timers_scheduled = 0;
  std::uint64_t timers_cancelled = 0;   // cancelled before firing
  std::uint64_t queue_high_water = 0;   // max live events ever queued
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` from now. Negative delays clamp to zero
  /// (the event fires "immediately", after already-queued events at `now`).
  TimerId schedule(Duration delay, Callback fn);

  /// Schedule `fn` at an absolute time (clamped to `now`).
  TimerId schedule_at(TimePoint when, Callback fn);

  /// Cancel a pending event. Returns true if the event had not yet fired.
  bool cancel(TimerId id);

  /// True if `id` refers to an event that has not yet fired or been cancelled.
  [[nodiscard]] bool pending(TimerId id) const;

  /// Number of events still to fire (cancelled ones excluded).
  [[nodiscard]] std::size_t queued() const { return live_count_; }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

  /// Run a single event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue is empty or `max_events` have fired.
  /// Returns the number of events fired.
  std::size_t run(std::size_t max_events = kDefaultEventBudget);

  /// Run all events with timestamp <= `deadline`, then advance the clock to
  /// `deadline` (even if idle). Returns the number of events fired. If
  /// `max_events` stops the run with due events still queued, the clock
  /// stays at the last fired event so a follow-up call resumes seamlessly.
  std::size_t run_until(TimePoint deadline,
                        std::size_t max_events = kDefaultEventBudget);

  /// Run for `span` of simulated time from `now()`.
  std::size_t run_for(Duration span,
                      std::size_t max_events = kDefaultEventBudget);

  /// Guard against runaway event loops (e.g. a buggy protocol ping-ponging
  /// messages at zero delay). run()/run_until() stop after this many events
  /// by default; callers with legitimately long runs pass a larger budget.
  static constexpr std::size_t kDefaultEventBudget = 50'000'000;

 private:
  // Callbacks live in a slab of slots reused through a free list; the heap
  // orders small entries that name a slot. A slot's generation is odd while
  // it holds a pending event and is bumped when the slot is taken and when
  // it fires or is cancelled, so a stale id or a cancelled entry (tombstone)
  // never matches a reused slot.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
  };
  struct Entry {
    TimePoint when = 0;
    std::uint64_t seq = 0;  // insertion order; breaks timestamp ties
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool is_live(const Entry& e) const {
    return slots_[e.slot].gen == e.gen;
  }
  /// Retire a pending slot and hand back its callback.
  Callback release(std::uint32_t slot);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_count_ = 0;
  SchedulerStats stats_;
};

/// RAII one-shot timer bound to a scheduler.
///
/// Protocol code holds a Timer per logical timeout (retransmit, keep-alive,
/// heartbeat-expect, ...). Destroying the Timer cancels any pending event, so
/// a destroyed connection can never fire a stale callback.
class Timer {
 public:
  explicit Timer(Scheduler& sched) : sched_(&sched) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arm (or re-arm) the timer to fire `delay` from now.
  void arm(Duration delay, Callback fn) {
    cancel();
    fn_ = std::move(fn);
    id_ = sched_->schedule(delay, [this] {
      id_ = kInvalidTimer;
      // Move out first: the callback may re-arm this same timer.
      Callback fn = std::move(fn_);
      fn();
    });
  }

  /// Cancel without firing. Safe if not armed.
  void cancel() {
    if (id_ != kInvalidTimer) {
      sched_->cancel(id_);
      id_ = kInvalidTimer;
      fn_ = {};
    }
  }

  [[nodiscard]] bool armed() const { return id_ != kInvalidTimer; }

 private:
  Scheduler* sched_;
  TimerId id_ = kInvalidTimer;
  Callback fn_;
};

}  // namespace pfi::sim
