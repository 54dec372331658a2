#include "sim/simulator.hpp"

namespace rtpb::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {
  hub_.set_clock([this] { return now_; });
}

Simulator::~Simulator() = default;

std::uint32_t Simulator::acquire() {
  if (free_slots_.empty()) {
    const std::size_t base = chunks_.size() * kSlotsPerChunk;
    RTPB_ASSERT(base + kSlotsPerChunk <= UINT32_MAX);
    chunks_.push_back(std::make_unique<Chunk>());
    // Push in reverse so the lowest index is handed out first.
    for (std::size_t i = kSlotsPerChunk; i-- > 0;) {
      free_slots_.push_back(static_cast<std::uint32_t>(base + i));
    }
  }
  const std::uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

void Simulator::release(std::uint32_t index) {
  Slot& s = slot(index);
  s.fn.reset();
  ++s.generation;
  free_slots_.push_back(index);
}

bool Simulator::cancel(std::uint32_t index, std::uint32_t generation) {
  if (!armed(index, generation)) return false;
  // Free the slot (and the captures) now; the queue entry stays until it
  // is popped, and is then recognised as stale by its generation.
  slot(index).armed = false;
  release(index);
  return true;
}

void Simulator::fire(const QueueEntry& e) {
  RTPB_ASSERT(e.at >= now_);
  now_ = e.at;
  // Disarm before running, so the callback sees its own handle as no
  // longer pending.  The slot stays taken until the callback returns:
  // chunks never move, so the closure runs in place.
  Slot& s = slot(e.slot);
  s.armed = false;
  ++fired_events_;
  s.fn();
  release(e.slot);
}

bool Simulator::step() {
  if (policy_ != nullptr) return step_with_policy();
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    queue_.pop();
    if (!live(entry)) {
      ++cancelled_pops_;
      continue;
    }
    fire(entry);
    return true;
  }
  return false;
}

void Simulator::set_choice_policy(ChoicePolicy* policy) {
  policy_ = policy;
  if (policy_ != nullptr) return;
  for (const QueueEntry& e : ready_) queue_.push(e);
  ready_.clear();
}

bool Simulator::step_with_policy() {
  // The tie set at the earliest instant is held in ready_ across steps.
  // Drop the members cancelled since the last step; if none is left, skim
  // cancelled heap entries to find the next instant.  Then append the
  // heap's live entries at that instant: events scheduled for now() since
  // the last step carry larger seqs, so ready_ stays in seq order and is
  // exactly the tie set popping the heap afresh would gather.  A policy
  // that always returns 0 therefore reproduces the FIFO tie-break.
  cancelled_pops_ += std::erase_if(ready_, [this](const QueueEntry& e) { return !live(e); });
  if (ready_.empty()) {
    while (!queue_.empty() && !live(queue_.top())) {
      queue_.pop();
      ++cancelled_pops_;
    }
    if (queue_.empty()) return false;
  }
  const TimePoint at = ready_.empty() ? queue_.top().at : ready_.front().at;
  while (!queue_.empty() && queue_.top().at == at) {
    if (live(queue_.top())) {
      ready_.push_back(queue_.top());
    } else {
      ++cancelled_pops_;
    }
    queue_.pop();
  }
  std::size_t pick = 0;
  if (ready_.size() > 1) {
    tags_.clear();
    for (const QueueEntry& e : ready_) tags_.push_back(e.tag);
    pick = policy_->pick_event(tags_);
    if (pick >= ready_.size()) pick = 0;
  }
  // Only the picked entry leaves; the rest keep their places.
  const QueueEntry chosen = ready_[pick];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(pick));
  fire(chosen);
  return true;
}

const Simulator::QueueEntry* Simulator::head() const {
  if (!ready_.empty()) return &ready_.front();
  return queue_.empty() ? nullptr : &queue_.top();
}

void Simulator::pop_head() {
  if (!ready_.empty()) {
    ready_.erase(ready_.begin());
  } else {
    queue_.pop();
  }
}

void Simulator::run_until(TimePoint deadline) {
  stopped_ = false;
  while (!stopped_) {
    const QueueEntry* next = head();
    if (next == nullptr) break;
    // Drop cancelled entries without advancing the clock.
    if (!live(*next)) {
      pop_head();
      ++cancelled_pops_;
      continue;
    }
    if (next->at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

PeriodicTimer::PeriodicTimer(Simulator& sim, Duration period, std::function<void()> fn,
                             EventTag tag)
    : sim_(sim), period_(period), fn_(std::move(fn)), tag_(tag) {
  RTPB_EXPECTS(period_ > Duration::zero());
  RTPB_EXPECTS(fn_ != nullptr);
}

void PeriodicTimer::start_at(TimePoint first) {
  stop();
  running_ = true;
  // The first cycle starts NOW, whatever offset `first` was armed at —
  // set_period() re-anchors on this instant, not on `first - period`.
  cycle_base_ = sim_.now();
  arm(first);
}

void PeriodicTimer::stop() {
  pending_.cancel();
  running_ = false;
}

void PeriodicTimer::set_period(Duration p) {
  RTPB_EXPECTS(p > Duration::zero());
  if (!running_ || !pending_.pending()) {
    period_ = p;
    return;
  }
  // Re-anchor the armed event on the cycle's recorded start instant (the
  // last firing, or the start_at() call), so the new period governs the
  // very next firing.  Deriving the base as next_fire_ - period_ instead
  // would fabricate it for a timer whose first fire is not one period
  // after the start.  Tightening into the past clamps to now (fires as
  // soon as the simulator reaches this instant's remaining events).
  period_ = p;
  pending_.cancel();
  TimePoint next = cycle_base_ + p;
  if (next < sim_.now()) next = sim_.now();
  arm(next);
}

void PeriodicTimer::arm(TimePoint at) {
  next_fire_ = at;
  pending_ = sim_.schedule_at(at, tag_, [this, at] {
    if (!running_) return;
    // This firing opens the next cycle; re-arm first so fn_ may call
    // stop()/set_period() and win.
    cycle_base_ = at;
    arm(at + period_);
    fn_();
  });
}

}  // namespace rtpb::sim
