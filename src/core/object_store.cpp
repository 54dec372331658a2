#include "core/object_store.hpp"

#include <functional>

#include "util/assert.hpp"

namespace rtpb::core {
namespace {

// vector::assign from a range inside the vector itself is undefined.
bool overlaps(std::span<const std::uint8_t> value, const Bytes& held) {
  if (value.empty() || held.empty()) return false;
  const std::less<const std::uint8_t*> before;
  return before(value.data(), held.data() + held.size()) &&
         before(held.data(), value.data() + value.size());
}

}  // namespace

bool ObjectStore::insert(const ObjectSpec& spec) {
  RTPB_EXPECTS(spec.id != kInvalidObject);
  ObjectState state;
  state.spec = spec;
  return objects_.insert(spec.id, std::move(state)).second;
}

bool ObjectStore::erase(ObjectId id) { return objects_.erase(id); }

std::uint64_t ObjectStore::write(ObjectId id, std::span<const std::uint8_t> value,
                                 TimePoint now) {
  ObjectState* held = objects_.find(id);
  RTPB_EXPECTS(held != nullptr);
  ObjectState& s = *held;
  RTPB_EXPECTS(!overlaps(value, s.value));
  s.value.assign(value.begin(), value.end());
  ++s.version;
  s.timestamp = now;
  s.origin_timestamp = now;
  return s.version;
}

bool ObjectStore::update_spec(ObjectId id, const ObjectSpec& spec) {
  ObjectState* s = objects_.find(id);
  if (s == nullptr) return false;
  RTPB_EXPECTS(spec.id == id);
  s->spec = spec;
  return true;
}

bool ObjectStore::apply(ObjectId id, std::uint64_t version, TimePoint origin_ts,
                        std::span<const std::uint8_t> value, TimePoint now) {
  ObjectState* held = objects_.find(id);
  RTPB_EXPECTS(held != nullptr);
  ObjectState& s = *held;
  if (version <= s.version) return false;  // stale or duplicate
  RTPB_EXPECTS(!overlaps(value, s.value));
  s.value.assign(value.begin(), value.end());
  s.version = version;
  s.timestamp = now;
  s.origin_timestamp = origin_ts;
  return true;
}

const ObjectState& ObjectStore::get(ObjectId id) const {
  const ObjectState* s = objects_.find(id);
  RTPB_EXPECTS(s != nullptr);
  return *s;
}

std::optional<ObjectState> ObjectStore::find(ObjectId id) const {
  if (const ObjectState* state = peek(id)) return *state;
  return std::nullopt;
}

const ObjectState* ObjectStore::peek(ObjectId id) const { return objects_.find(id); }

std::vector<ObjectId> ObjectStore::ids() const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [id, s] : objects_) out.push_back(id);
  return out;
}

}  // namespace rtpb::core
