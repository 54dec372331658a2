// Discrete-event simulation kernel.
//
// The simulator owns the virtual clock and an event queue ordered by
// (time, sequence number): ties in time fire in scheduling order, which
// makes runs fully deterministic.  Every higher layer — the CPU scheduler,
// the network links, the RTPB protocol — advances exclusively by
// scheduling events here.
//
// Scheduling allocates nothing once the kernel is warm.  An event's
// callback lives in place in a slot of a chunked slab (stable addresses,
// recycled through a free list); the queue is a heap of small
// {at, seq, slot, generation, tag} entries.  Handles name a slot and a
// generation, so a handle outliving its event never touches the slot's
// next occupant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/choice.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rtpb::sim {

class Simulator;

/// Cancellation handle for a scheduled event.  Default-constructed handles
/// are inert.  Cancelling an already-fired or already-cancelled event is a
/// harmless no-op — callers routinely cancel defensively during teardown.
/// A handle must not outlive its Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing.  Returns true if it was still pending.
  bool cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// An event callback constructed in place in fixed inline storage.  There
/// is no heap fallback: a closure larger than kCapacity does not compile.
/// kCapacity fills a 64-byte slot; the closures scheduled in src/ take at
/// most 24 bytes.  A closure that needs more captures an index or a
/// pointer instead, as the network's frame delivery does.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 48;

  EventFn() = default;
  ~EventFn() { reset(); }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event closure exceeds EventFn::kCapacity; capture an index or pointer");
    static_assert(alignof(Fn) <= alignof(void*), "event closure is over-aligned");
    RTPB_ASSERT(ops_ == nullptr);
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }
  void operator()() { ops_->invoke(storage_); }
  /// Destroy the held closure (and everything it captured), if any.
  void reset() {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };
  template <typename Fn>
  static constexpr Ops kOps{[](void* p) { (*static_cast<Fn*>(p))(); },
                            [](void* p) { static_cast<Fn*>(p)->~Fn(); }};

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[kCapacity];
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule fn at absolute virtual time `at` (must not be in the past).
  template <typename F>
  EventHandle schedule_at(TimePoint at, F&& fn) {
    return schedule_at(at, EventTag{}, std::forward<F>(fn));
  }
  /// Same, with an EventTag describing the event for the choice policy's
  /// tie-breaking (untagged events are treated as dependent on everything).
  template <typename F>
  EventHandle schedule_at(TimePoint at, EventTag tag, F&& fn);
  /// Schedule fn after `delay` (must be non-negative).
  template <typename F>
  EventHandle schedule_after(Duration delay, F&& fn) {
    RTPB_EXPECTS(delay >= Duration::zero());
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run until the queue drains or the clock passes `deadline`.
  /// Events exactly at `deadline` do fire — with or without a choice
  /// policy installed (the boundary semantics are pinned by tests; a
  /// policy may reorder same-instant events at the deadline but can
  /// neither fire an event beyond it nor skip one at it).
  void run_until(TimePoint deadline);
  /// Run until the queue drains (or stop() is called).
  void run();
  /// Fire the single next event; returns false if the queue is empty.
  bool step();
  /// Make run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Lower bound on the next live event's firing time: the earliest
  /// queued entry's timestamp (a held tie set precedes the heap), or
  /// TimePoint::max() when nothing is queued.  A cancelled entry at the
  /// head makes this conservative (the next live event may be later);
  /// callers use it as an idle check, never as an exact schedule.
  [[nodiscard]] TimePoint next_event_time() const {
    if (!ready_.empty()) return ready_.front().at;
    return queue_.empty() ? TimePoint::max() : queue_.top().at;
  }

  /// Queued entries, including cancelled ones not yet popped (deletion is
  /// lazy) and the tie set a choice policy picks from.  The count is the
  /// same whether the unpicked ties sit in the heap or in the held set:
  /// a tie cancelled after one step leaves it at the next.  The explorer
  /// hashes this count into its state hash.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size() + ready_.size(); }
  [[nodiscard]] std::uint64_t fired_events() const { return fired_events_; }
  /// Cancelled entries popped (or pruned from the held tie set) so far:
  /// every entry the queue gives up is either fired or one of these, so
  /// cancelled_pops() / (fired_events() + cancelled_pops()) is the share
  /// of the queue's work that lazy deletion wastes.
  [[nodiscard]] std::uint64_t cancelled_pops() const { return cancelled_pops_; }

  /// Root RNG for the run; components should fork() their own streams.
  Rng& rng() { return rng_; }

  /// Install (or clear, with nullptr) the choice strategy.  Not owned; the
  /// policy must outlive its installation.  With no policy the simulator
  /// is byte-identical to the pre-seam behaviour.  Clearing it returns the
  /// held tie set to the heap with its sequence numbers, so FIFO order
  /// resumes where the policy left off.
  void set_choice_policy(ChoicePolicy* policy);
  [[nodiscard]] ChoicePolicy* choice_policy() const { return policy_; }

  /// Route a boolean fault decision through the installed policy, or fall
  /// through to the same seeded Bernoulli draw the caller used before the
  /// seam existed (`rng` is the *caller's* stream, so digests are stable).
  bool decide_fault(const ChoiceContext& ctx, Rng& rng) {
    return policy_ != nullptr ? policy_->decide(ctx, rng) : rng.bernoulli(ctx.probability);
  }

  /// Telemetry runtime (metrics registry, causal update spans and the
  /// trace digest); disabled by default.  Components report through their
  /// telemetry::Facts tables.
  telemetry::Hub& telemetry() { return hub_; }
  [[nodiscard]] const telemetry::Hub& telemetry() const { return hub_; }

  /// Recycled bodies for the frames this run's senders encode (see
  /// util/frame.hpp).  Like the Hub, it belongs to this event loop alone.
  BodyPool& body_pool() { return bodies_; }

 private:
  friend class EventHandle;

  /// One event's storage.  `generation` advances each time the slot is
  /// freed, so handles and queue entries of earlier occupants go stale;
  /// `armed` is set from scheduling until the event fires or is cancelled.
  struct Slot {
    std::uint32_t generation = 0;
    bool armed = false;
    EventFn fn;
  };
  static_assert(sizeof(Slot) == 64, "one slot, one cache line");
  /// 32 cache-line aligned slots: 2 KiB, so many small simulators stay small.
  static constexpr std::size_t kSlotsPerChunk = 32;
  struct alignas(64) Chunk {
    Slot slots[kSlotsPerChunk];
  };

  struct QueueEntry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    EventTag tag;
    bool operator>(const QueueEntry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  Slot& slot(std::uint32_t index) {
    return chunks_[index / kSlotsPerChunk]->slots[index % kSlotsPerChunk];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return chunks_[index / kSlotsPerChunk]->slots[index % kSlotsPerChunk];
  }
  [[nodiscard]] bool armed(std::uint32_t index, std::uint32_t generation) const {
    const Slot& s = slot(index);
    return s.generation == generation && s.armed;
  }
  [[nodiscard]] bool live(const QueueEntry& e) const { return armed(e.slot, e.generation); }
  /// A free slot, growing the slab by one chunk when none is left.
  std::uint32_t acquire();
  /// Destroy the slot's callback and return it to the free list.
  void release(std::uint32_t index);
  bool cancel(std::uint32_t index, std::uint32_t generation);
  /// Advance the clock to `e` and run its callback in place.
  void fire(const QueueEntry& e);

  /// step() with a policy installed: bring the held tie set up to date
  /// and let the policy pick which member fires.
  bool step_with_policy();
  /// The earliest queued entry, live or not (nullptr when none): the held
  /// tie set's front, else the heap top.  Every heap entry follows the
  /// held set in (time, seq) order.
  [[nodiscard]] const QueueEntry* head() const;
  void pop_head();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_events_ = 0;
  std::uint64_t cancelled_pops_ = 0;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
  /// With a policy installed, the tie set at now(): entries the policy has
  /// not picked yet, in seq order, held across steps.  Always empty
  /// without a policy.
  std::vector<QueueEntry> ready_;
  std::vector<EventTag> tags_;  ///< step_with_policy scratch: ready_'s tags
  ChoicePolicy* policy_ = nullptr;
  Rng rng_;
  telemetry::Hub hub_;
  BodyPool bodies_;
};

template <typename F>
EventHandle Simulator::schedule_at(TimePoint at, EventTag tag, F&& fn) {
  RTPB_EXPECTS(at >= now_);
  if constexpr (std::is_same_v<std::decay_t<F>, std::function<void()>>) {
    RTPB_EXPECTS(fn != nullptr);
  }
  const std::uint32_t index = acquire();
  Slot& s = slot(index);
  s.fn.emplace(std::forward<F>(fn));
  s.armed = true;
  queue_.push(QueueEntry{at, next_seq_++, index, s.generation, tag});
  return EventHandle{this, index, s.generation};
}

inline bool EventHandle::cancel() {
  return sim_ != nullptr && sim_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->armed(slot_, generation_);
}

/// Self-rescheduling periodic timer.  The callback runs once per period
/// starting at `first`; stop() halts it.  Used for heartbeats and for
/// jobs whose dispatch is *not* mediated by the CPU scheduler.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Duration period, std::function<void()> fn,
                EventTag tag = {});
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start_at(TimePoint first);
  void start() { start_at(sim_.now() + period_); }
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  /// Change the period.  If an event is armed, it is re-armed so the new
  /// period takes effect IMMEDIATELY: the next firing moves to
  /// `base + p`, where `base` is the instant the current cycle started
  /// (last firing, or start time), clamped to now.  Without the re-arm a
  /// QoS renegotiation that loosens a heartbeat would still fire one
  /// beat at the old cadence — and one that tightens it would wait out
  /// the old, longer period before speeding up.
  void set_period(Duration p);
  [[nodiscard]] Duration period() const { return period_; }
  /// The instant the armed event will fire (TimePoint::max() if idle).
  [[nodiscard]] TimePoint next_fire() const {
    return pending_.pending() ? next_fire_ : TimePoint::max();
  }

 private:
  void arm(TimePoint at);
  Simulator& sim_;
  Duration period_;
  std::function<void()> fn_;
  EventTag tag_;
  EventHandle pending_;
  TimePoint next_fire_{};
  TimePoint cycle_base_{};  ///< instant the current cycle started
  bool running_ = false;
};

}  // namespace rtpb::sim
