// In-memory replicated object table.  Both the primary and the backup keep
// one; the primary's versions advance on client updates, the backup's on
// applied UPDATE messages.  Timestamps record the T_i(t) of the paper's
// consistency definitions: the finish time of the last update at that site.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/types.hpp"
#include "util/bytebuffer.hpp"
#include "util/id_table.hpp"
#include "util/time.hpp"

namespace rtpb::core {

struct ObjectState {
  ObjectSpec spec;
  Bytes value;
  std::uint64_t version = 0;       ///< 0 = never written
  TimePoint timestamp{};           ///< finish time of the last update here
  /// Primary-side origin timestamp of the version the site holds.  On the
  /// primary this equals `timestamp`; on the backup it is the T_i^P
  /// carried in the UPDATE that produced this version.
  TimePoint origin_timestamp{};
  /// Encoded field order of a checkpointed state (util/codec.hpp).
  template <class S> static auto tie(S& s) {
    return std::tie(s.spec, s.value, s.version, s.timestamp, s.origin_timestamp);
  }
};

class ObjectStore {
 public:
  /// Insert a new object in the unwritten state.  Fails (returns false)
  /// on a duplicate id.
  bool insert(const ObjectSpec& spec);
  bool erase(ObjectId id);

  [[nodiscard]] bool contains(ObjectId id) const { return objects_.contains(id); }
  [[nodiscard]] std::size_t size() const { return objects_.size(); }

  /// Record a local write: bumps the version, stamps `now`.
  /// Returns the new version.  The bytes are copied into the held value,
  /// reusing its capacity; `value` must not alias it.
  std::uint64_t write(ObjectId id, std::span<const std::uint8_t> value, TimePoint now);

  /// Replace an object's spec in place (runtime QoS renegotiation keeps
  /// the renegotiated constraint here so it survives failover — promote()
  /// rebuilds admission from store specs).  Value/version/timestamps are
  /// untouched.  Returns false if the object is unknown.
  bool update_spec(ObjectId id, const ObjectSpec& spec);

  /// Apply a remote update (backup side).  Ignored (returns false) if
  /// `version` is not newer than what is held.  Copies like write().
  bool apply(ObjectId id, std::uint64_t version, TimePoint origin_ts,
             std::span<const std::uint8_t> value, TimePoint now);

  [[nodiscard]] const ObjectState& get(ObjectId id) const;
  /// A snapshot copy (spec and value bytes), unaffected by later writes.
  [[nodiscard]] std::optional<ObjectState> find(ObjectId id) const;
  /// The held state in place, or nullptr: no copy.  Valid until the next
  /// insert, erase or restore of any id (each may move every held state).
  /// Value bytes borrowed from it (`Payload::borrow`) outlive such a move:
  /// a moved value keeps its buffer.
  [[nodiscard]] const ObjectState* peek(ObjectId id) const;

  /// Iterate deterministically (ascending id).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [id, state] : objects_) fn(state);
  }

  [[nodiscard]] std::vector<ObjectId> ids() const;

  /// Crash recovery: install a fully-formed state (spec, value, version and
  /// both timestamps) exactly as the durability layer replayed it.
  /// Overwrites any existing entry for the same id.
  void restore(const ObjectState& state) { objects_[state.spec.id] = state; }

 private:
  IdTable<ObjectId, ObjectState> objects_;
};

}  // namespace rtpb::core
