// Sharded admission control: one AdmissionController per shard, routed
// through the ShardDirectory.
//
// Each shard is its own CPU/schedulability domain — the §4.2 checks run
// against only that shard's admitted set, so a registration costs the
// controller's amortised O(1) aggregate update regardless of how many
// objects the OTHER shards carry.  That is what lets a directory of a
// million objects admit at a flat per-registration cost (the shard-scale
// bench gates on exactly this).
//
// Cross-shard inter-object constraints δ_ij (i and j on different shards)
// cannot be judged inside one controller.  They decompose soundly: each
// side registers a SELF-PAIR constraint {i, i, δ_ij} on its home shard —
// capping that object's transmission period at δ_ij — and the runtime
// check becomes frontier arithmetic (each shard's stable-timestamp
// frontier must stay within δ_ij of now; see shard/frontier.hpp and the
// psim::PartitionedCluster frontier exchange).  If the second side's cap fails admission the
// first side's cap is rolled back, so a rejected constraint leaves no
// residue.
#pragma once

#include <cstdint>
#include <vector>

#include "core/admission.hpp"
#include "shard/directory.hpp"

namespace rtpb::shard {

/// The decomposition of a cross-shard constraint δ_ij: one SELF-PAIR
/// period cap per side (see the header comment for why this is sound).
/// Both consumers — ShardedAdmission and the parallel PartitionedCluster —
/// derive their caps through this one function so the two halves of a
/// decomposed constraint can never drift apart.
struct CrossShardCaps {
  core::InterObjectConstraint first;   ///< cap on c.first's home shard
  core::InterObjectConstraint second;  ///< cap on c.second's home shard
};

[[nodiscard]] inline CrossShardCaps decompose_cross_constraint(
    const core::InterObjectConstraint& c) {
  return {{c.first, c.first, c.delta}, {c.second, c.second, c.delta}};
}

class ShardedAdmission {
 public:
  /// One controller per shard, all with the same config and link bound ℓ.
  /// The directory outlives this object.
  ShardedAdmission(const ShardDirectory& directory, core::ServiceConfig config,
                   Duration link_delay_bound);

  /// Route the registration to the object's home shard.  O(1) amortised.
  core::AdmissionResult admit(const core::ObjectSpec& spec);
  /// Remove the object from its home shard; any cross-shard constraints it
  /// participates in are withdrawn on BOTH sides (partner caps restored).
  void remove(core::ObjectId id);

  /// Same-shard pairs delegate to the home controller.  Cross-shard pairs
  /// decompose into one self-pair cap per side (rolled back atomically on
  /// rejection) and are recorded in cross_constraints().
  core::AdmissionStatus add_constraint(const core::InterObjectConstraint& c);
  /// Withdraw a constraint added through add_constraint (by value).
  void remove_constraint(const core::InterObjectConstraint& c);

  [[nodiscard]] Duration update_period(core::ObjectId id) const;
  [[nodiscard]] std::size_t admitted_count() const { return admitted_total_; }
  [[nodiscard]] std::size_t admitted_in_shard(ShardId shard) const {
    return shards_[shard].admitted_count();
  }
  [[nodiscard]] const core::AdmissionController& shard(ShardId s) const { return shards_[s]; }
  [[nodiscard]] ShardId shard_count() const {
    return static_cast<ShardId>(shards_.size());
  }
  [[nodiscard]] const std::vector<core::InterObjectConstraint>& cross_constraints() const {
    return cross_;
  }
  /// Σ total_utilization over shards (each shard is its own CPU).
  [[nodiscard]] double total_utilization() const;

 private:
  [[nodiscard]] core::AdmissionController& home(core::ObjectId id) {
    return shards_[directory_.shard_of(id)];
  }

  const ShardDirectory& directory_;
  std::vector<core::AdmissionController> shards_;
  std::vector<core::InterObjectConstraint> cross_;
  std::size_t admitted_total_ = 0;
};

}  // namespace rtpb::shard
