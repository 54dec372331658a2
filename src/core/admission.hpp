// Admission control (paper §4.2).
//
// Before a client may stream updates for an object, the primary checks
//   (1) p_i ≤ δ_iP                — the client updates often enough,
//   (2) δ_i = δ_iB − δ_iP > ℓ    — the window can out-run the network,
//   (3) the update-transmission task set (period r_i = (δ_i − ℓ)/slack)
//       plus all client tasks passes a rate-monotonic schedulability test,
//   (4) every inter-object constraint δ_ij, converted to two external
//       constraints (§3), still holds.
// A rejected registration carries a reason so the client can negotiate an
// alternative quality of service.
//
// The controller maintains running aggregates (task count, total RM
// utilisation at the window-derived baseline periods) so a registration is
// amortised O(1): the schedulability check folds the candidate into the
// aggregate instead of re-deriving the whole admitted set.  Each object's
// baseline period is frozen at admission time — against the ℓ it was
// negotiated under — which is what makes the aggregate sound and what
// keeps a later ℓ change from silently re-judging old admissions.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "sched/analysis.hpp"
#include "util/result.hpp"

namespace rtpb::core {

struct AdmissionDecision {
  /// Assigned primary→backup transmission period r_i.
  Duration update_period{};
};

/// A rejection carries the reason plus, where one exists, a concrete
/// feasible alternative QoS for the same object — the paper's §4.2
/// "feedback so that the client can negotiate an alternative quality of
/// service".  Re-submitting the suggestion (when present) is guaranteed
/// to pass the same checks against the current admitted set.
struct AdmissionRejection {
  AdmissionError code{};
  std::string reason;
  std::optional<ObjectSpec> suggestion;
};

using AdmissionResult = Result<AdmissionDecision, AdmissionRejection>;
using AdmissionStatus = Status<Error<AdmissionError>>;

class AdmissionController {
 public:
  AdmissionController(ServiceConfig config, Duration link_delay_bound);

  /// Evaluate a registration.  On success the object is recorded and its
  /// transmission period returned.  Under compressed scheduling, periods
  /// of *all* admitted objects may be recomputed — read them back via
  /// update_periods().  Amortised O(1) (compressed-mode redistribution is
  /// deferred to the next period read).
  AdmissionResult admit(const ObjectSpec& spec);

  /// Remove an object and any constraints that reference it.  Constraint
  /// partners have their transmission periods re-derived from their own
  /// frozen baseline and the constraints that remain — a δ_ij tightening
  /// does not outlive the constraint that imposed it.
  void remove(ObjectId id);

  /// Register an inter-object constraint between two admitted objects.
  /// May tighten their transmission periods; re-runs schedulability (O(1),
  /// judged at the window-derived baselines like admission itself — a
  /// constraint must not be blocked by compressed-mode best-effort rates).
  /// A self-pair (first == second) caps just that object: the shard layer
  /// registers cross-shard δ_ij as one such external cap per side.
  AdmissionStatus add_constraint(const InterObjectConstraint& c);

  /// Validate a constraint against the current admitted set WITHOUT
  /// committing it — add_constraint() is exactly this check followed by
  /// the commit.  The shard layer uses it to pre-flight both halves of a
  /// cross-shard constraint before committing either side.
  [[nodiscard]] AdmissionStatus check_constraint(const InterObjectConstraint& c) const;

  [[nodiscard]] const std::map<ObjectId, Duration>& update_periods() const {
    materialize_compressed();
    return update_periods_;
  }
  [[nodiscard]] Duration update_period(ObjectId id) const;
  [[nodiscard]] std::size_t admitted_count() const { return admitted_.size(); }
  [[nodiscard]] const std::vector<InterObjectConstraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] Duration link_delay_bound() const { return ell_; }

  /// Re-derive ℓ when the frame budget grows (a larger object was
  /// registered).  Applies to subsequent admissions; already-admitted
  /// objects keep the baseline they were negotiated under — their frozen
  /// periods enter later schedulability checks unchanged, so growing ℓ can
  /// never retroactively fail (or spuriously pass) an earlier admission.
  void set_link_delay_bound(Duration ell) { ell_ = ell; }

  /// Total utilisation of client + transmission tasks as admitted.
  [[nodiscard]] double total_utilization() const;

  /// Compute a feasible alternative spec for a rejected registration, or
  /// nullopt when no plausible relaxation exists.  Public so clients can
  /// pre-negotiate without a rejected attempt.
  [[nodiscard]] std::optional<ObjectSpec> suggest_alternative(const ObjectSpec& spec) const;

 private:
  /// Per-object admission record.  `baseline` is the window-derived §4.3
  /// period frozen at admit time (against the ℓ of that moment);
  /// `effective` is the baseline after inter-object tightening — the
  /// period the RM aggregate judges this object at, and (in normal
  /// scheduling) the period it transmits at.
  struct Admitted {
    ObjectSpec spec;
    Duration baseline{};
    Duration effective{};
    double client_util = 0.0;  ///< e_i / p_i
    double update_util = 0.0;  ///< e'_i / effective
  };

  /// All §4.2 checks against the current admitted set, without admitting.
  /// nullopt = would be admitted.  O(1) via the maintained aggregates.
  [[nodiscard]] std::optional<AdmissionError> check(const ObjectSpec& spec) const;
  /// Baseline §4.3 period from the object's window (before inter-object
  /// tightening): (δ_i − ℓ) / slack_factor.
  [[nodiscard]] Duration normal_period(const ObjectSpec& spec) const;
  /// Tightest δ_ij involving `id`, or Duration::max().
  [[nodiscard]] Duration tightest_constraint(ObjectId id) const;
  /// Re-derive `id`'s effective period (baseline ∧ remaining constraints)
  /// and fold the change into the aggregates.
  void refresh_effective(ObjectId id);
  /// The compressed-mode period for one object given the current spare
  /// capacity split (§5.3).
  [[nodiscard]] Duration compressed_period(const Admitted& a) const;
  /// Recompute compressed-mode periods for the whole admitted set if a
  /// membership change left them stale (deferred from admit/remove so a
  /// registration stays O(1)).
  void materialize_compressed() const;

  ServiceConfig config_;
  Duration ell_;
  std::map<ObjectId, Admitted> admitted_;
  /// Published periods.  Normal scheduling: always == effective.
  /// Compressed: redistributed lazily (mutable + dirty flag below).
  mutable std::map<ObjectId, Duration> update_periods_;
  mutable bool compressed_stale_ = false;
  std::vector<InterObjectConstraint> constraints_;
  /// Running RM aggregate: Σ (client_util + update_util) over admitted_,
  /// accumulated in admit order — the O(1) schedulability check compares
  /// this plus the candidate against the Liu–Layland bound.
  double util_sum_ = 0.0;
  /// Running Σ client_util alone (spare-capacity input for compressed).
  double client_util_sum_ = 0.0;
};

}  // namespace rtpb::core
