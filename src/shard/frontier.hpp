// Per-shard stable-timestamp frontier.
//
// A shard's frontier F is the minimum, over its live objects, of the last
// origin timestamp each object is known to have reached — the instant up
// to which EVERY object of the shard is provably fresh.  Cross-shard
// inter-object constraints δ_ij reduce to frontier arithmetic: at time t
// the pair (i ∈ A, j ∈ B) satisfies δ_ij whenever t − F_A ≤ δ_ij and
// t − F_B ≤ δ_ij, so shards exchange one timestamp instead of object
// tables (core::FrontierRecord).
//
// Amortised O(1) per advance, zero steady-state allocations: values live
// in a flat slot vector; the cached minimum is only rescanned when the
// argmin slot itself advances.  Under a round-robin update pattern (every
// object refreshed once per rotation) that is one O(n) scan per n
// advances.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "core/types.hpp"
#include "util/time.hpp"

namespace rtpb::shard {

class FrontierTracker {
 public:
  /// Begin tracking `id` at `initial` (typically the registration time or
  /// TimePoint zero for never-written).  Duplicate track() is ignored.
  void track(core::ObjectId id, TimePoint initial);
  /// Stop tracking `id`; its slot is recycled.  Unknown ids are ignored.
  void forget(core::ObjectId id);
  /// Advance `id`'s stable timestamp (monotone: an older ts is ignored).
  /// Unknown ids are ignored — callers may feed every applied update
  /// through without filtering by shard membership first.
  void advance(core::ObjectId id, TimePoint ts);

  /// The frontier: min over tracked objects, TimePoint::max() when empty
  /// (an empty shard constrains nothing).
  [[nodiscard]] TimePoint frontier() const;

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }

 private:
  struct Slot {
    core::ObjectId id = core::kInvalidObject;
    TimePoint ts{};
    bool live = false;
  };

  std::vector<Slot> slots_;
  std::map<core::ObjectId, std::size_t> index_;
  std::vector<std::size_t> free_slots_;
  /// Cached argmin; invalidated when the minimum slot advances or dies.
  mutable std::size_t min_slot_ = 0;
  mutable bool min_valid_ = false;
};

}  // namespace rtpb::shard
