// The client application of the paper (§4.1): it "continuously senses the
// environment and periodically sends updates to the primary" over a
// co-located IPC interface, modelled as periodic jobs on the primary's
// CPU whose completion invokes the server's write path.
//
// Two identical instances exist — one at the primary (active) and one at
// the backup (standby).  On failover the promoted server activates its
// local instance and feeds it the replicated state by up-call (§4.4).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/server.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace rtpb::core {

class ClientApp {
 public:
  /// `active`: primary-side clients start sensing as soon as objects are
  /// registered; the backup twin stays idle until activate().
  ClientApp(sim::Simulator& sim, ReplicaServer& home, Rng rng, bool active);

  ClientApp(const ClientApp&) = delete;
  ClientApp& operator=(const ClientApp&) = delete;

  /// Register an object with the home server (admission control applies)
  /// and, if admitted and this client is active, start its sensing task.
  AdmissionResult add_object(const ObjectSpec& spec);
  AdmissionStatus add_constraint(const InterObjectConstraint& c);

  /// Start sensing tasks for every object in the home server's store.
  /// Used by the backup twin after promotion — the "up call" of §4.4.
  void activate();
  void deactivate();
  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] std::size_t sensing_tasks() const { return tasks_.size(); }
  [[nodiscard]] std::uint64_t writes_issued() const { return writes_issued_; }

 private:
  void start_sensing(const ObjectSpec& spec);
  /// Sense a fresh value into sensed_ (reused across writes).
  [[nodiscard]] std::span<const std::uint8_t> sense_value(const ObjectSpec& spec);

  sim::Simulator& sim_;
  ReplicaServer& home_;
  Rng rng_;
  bool active_;
  std::map<ObjectId, sched::TaskId> tasks_;
  std::vector<ObjectSpec> specs_;
  std::uint64_t writes_issued_ = 0;
  Bytes sensed_;
};

}  // namespace rtpb::core
