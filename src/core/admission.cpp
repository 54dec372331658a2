#include "core/admission.hpp"

#include <algorithm>

#include "sched/theory.hpp"

namespace rtpb::core {

namespace {

/// Tolerance matching sched::rm_utilization_test, so the aggregate check
/// accepts exactly what a freshly built task set would.
constexpr double kRmSlop = 1e-12;

}  // namespace

AdmissionController::AdmissionController(ServiceConfig config, Duration link_delay_bound)
    : config_(config), ell_(link_delay_bound) {
  RTPB_EXPECTS(ell_ >= Duration::zero());
  RTPB_EXPECTS(config_.slack_factor >= 1);
}

Duration AdmissionController::normal_period(const ObjectSpec& spec) const {
  if (config_.update_period_override > Duration::zero()) {
    return config_.update_period_override;
  }
  Duration period = sched::theory::update_period(spec.window(), ell_, config_.slack_factor);
  if (config_.variance_aware_admission) {
    // Lemma 2-style sufficient condition, stated on the window: staleness
    // peaks at p + r + v' + ℓ and v' ≤ r − e' (Eq. 2.1), so requiring
    //   r ≤ (δ − ℓ − p + e') / 2
    // keeps the backup inside its window for ANY phase variance the
    // transmission task can exhibit — the guarantee the paper's §4.2
    // admission gives up when the CPU runs close to the RM bound.
    const Duration cap =
        (spec.window() - ell_ - spec.client_period + spec.update_exec) / 2;
    period = std::min(period, cap);
  }
  return period;
}

Duration AdmissionController::tightest_constraint(ObjectId id) const {
  Duration tightest = Duration::max();
  for (const auto& c : constraints_) {
    if (c.first == id || c.second == id) tightest = std::min(tightest, c.delta);
  }
  return tightest;
}

std::optional<AdmissionError> AdmissionController::check(const ObjectSpec& spec) const {
  if (admitted_.contains(spec.id)) return AdmissionError::kDuplicate;

  if (spec.id == kInvalidObject || spec.client_period <= Duration::zero() ||
      spec.client_exec <= Duration::zero() || spec.update_exec <= Duration::zero() ||
      spec.delta_primary <= Duration::zero() || spec.delta_backup <= Duration::zero()) {
    return AdmissionError::kInvalidSpec;
  }
  if (!config_.admission_control_enabled) return std::nullopt;

  // (1) p_i ≤ δ_iP: with zero-variance update scheduling at the client
  // (paper §4.2), the primary copy stays inside δ_iP iff the client
  // period is within it.
  if (spec.client_period > spec.delta_primary) return AdmissionError::kPeriodExceedsDelta;
  // (2) window must exceed the communication delay bound.
  if (spec.window() <= ell_) return AdmissionError::kWindowTooSmall;

  const Duration period = normal_period(spec);
  if (period <= Duration::zero()) return AdmissionError::kWindowTooSmall;
  if (period < spec.update_exec) return AdmissionError::kUnschedulable;
  // The client task must itself be a valid periodic task (e ≤ p) before
  // the utilisation bound means anything.
  if (spec.client_exec > spec.client_period) return AdmissionError::kUnschedulable;

  // (3) RM schedulability of everything on the primary's CPU, judged at
  // the window-derived baseline periods each object was admitted with.
  // Compressed scheduling may then send *more* often with the spare
  // capacity — that is best-effort and must not block admission of
  // further objects.  The admitted set's contribution is the maintained
  // running aggregate, so the test is O(1) per candidate.
  const double total = util_sum_ + spec.client_exec.ratio(spec.client_period) +
                       spec.update_exec.ratio(period);
  const std::size_t n_tasks = 2 * (admitted_.size() + 1);
  if (total > sched::liu_layland_bound(n_tasks) + kRmSlop) {
    return AdmissionError::kUnschedulable;
  }
  return std::nullopt;
}

std::optional<ObjectSpec> AdmissionController::suggest_alternative(const ObjectSpec& spec) const {
  if (spec.id == kInvalidObject || admitted_.contains(spec.id) ||
      spec.client_period <= Duration::zero() || spec.client_exec <= Duration::zero() ||
      spec.update_exec <= Duration::zero()) {
    return std::nullopt;  // nothing sensible to negotiate from
  }
  ObjectSpec cand = spec;
  // Satisfy (1): the primary constraint cannot be tighter than the rate
  // the client is willing to write at.
  cand.delta_primary = std::max(cand.delta_primary, cand.client_period);
  // Satisfy (2) and leave room for the transmission task: window w needs
  // (w − ℓ)/slack ≥ e', i.e. w ≥ ℓ + slack·e' — with margin so the
  // schedulability test has something to work with.
  const Duration min_window = ell_ + (spec.update_exec * config_.slack_factor) * 4;
  if (cand.window() < min_window) cand.delta_backup = cand.delta_primary + min_window;

  // Satisfy (3): halve the demanded rates (doubling periods and windows)
  // until the set becomes schedulable.  Give up after 1:64 — a client
  // asked for orders of magnitude more than the server can carry.
  for (int attempt = 0; attempt < 7; ++attempt) {
    if (!check(cand).has_value()) return cand;
    const Duration window = cand.window();
    cand.client_period = cand.client_period * 2;
    cand.delta_primary = std::max(cand.delta_primary * 2, cand.client_period);
    cand.delta_backup = cand.delta_primary + window * 2;
  }
  return std::nullopt;
}

AdmissionResult AdmissionController::admit(const ObjectSpec& spec) {
  if (const auto error = check(spec)) {
    AdmissionRejection rejection;
    rejection.code = *error;
    rejection.reason = admission_error_name(*error);
    if (*error != AdmissionError::kDuplicate && *error != AdmissionError::kInvalidSpec) {
      rejection.suggestion = suggest_alternative(spec);
    }
    return rejection;
  }

  Duration period = normal_period(spec);
  if (period <= Duration::zero()) period = spec.client_period;  // checks off: best effort
  if (period < spec.update_exec) period = spec.update_exec;

  Admitted entry;
  entry.spec = spec;
  entry.baseline = period;
  // A new id cannot be referenced by any existing constraint (constraints
  // require both members admitted and are erased with them), so the
  // effective period starts at the baseline — no constraint scan needed.
  entry.effective = period;
  entry.client_util = spec.client_exec.ratio(spec.client_period);
  entry.update_util = spec.update_exec.ratio(entry.effective);
  util_sum_ += entry.client_util;
  util_sum_ += entry.update_util;
  client_util_sum_ += entry.client_util;

  if (config_.update_scheduling == UpdateScheduling::kCompressed) {
    // The new object's own compressed rate follows from the aggregates in
    // O(1); everyone else's share shrank too, but rewriting the whole map
    // is deferred to the next period read (materialize_compressed).
    update_periods_[spec.id] = compressed_period(entry);
    compressed_stale_ = !admitted_.empty();
  } else {
    update_periods_[spec.id] = entry.effective;
  }
  admitted_.emplace(spec.id, std::move(entry));
  return AdmissionDecision{update_periods_[spec.id]};
}

void AdmissionController::remove(ObjectId id) {
  auto it = admitted_.find(id);
  if (it == admitted_.end()) return;
  util_sum_ -= it->second.client_util;
  util_sum_ -= it->second.update_util;
  client_util_sum_ -= it->second.client_util;
  admitted_.erase(it);
  update_periods_.erase(id);

  // Erase every constraint referencing the removed object, remembering the
  // surviving partners: each gets its period re-derived from its own
  // frozen baseline and whatever constraints remain, so a tightening
  // imposed by a now-gone δ_ij does not pin the survivor forever.
  std::vector<ObjectId> partners;
  std::erase_if(constraints_, [&](const InterObjectConstraint& c) {
    if (c.first != id && c.second != id) return false;
    const ObjectId partner = c.first == id ? c.second : c.first;
    if (partner != id && admitted_.contains(partner)) partners.push_back(partner);
    return true;
  });
  for (const ObjectId partner : partners) refresh_effective(partner);

  if (config_.update_scheduling == UpdateScheduling::kCompressed) compressed_stale_ = true;
}

void AdmissionController::refresh_effective(ObjectId id) {
  auto it = admitted_.find(id);
  if (it == admitted_.end()) return;
  Admitted& entry = it->second;
  const Duration effective = std::min(entry.baseline, tightest_constraint(id));
  if (effective == entry.effective) return;
  util_sum_ -= entry.update_util;
  entry.effective = effective;
  entry.update_util = entry.spec.update_exec.ratio(effective);
  util_sum_ += entry.update_util;
  if (config_.update_scheduling == UpdateScheduling::kCompressed) {
    compressed_stale_ = true;  // the constraint cap on this object moved
  } else {
    update_periods_[id] = effective;
  }
}

AdmissionStatus AdmissionController::check_constraint(const InterObjectConstraint& c) const {
  auto it_i = admitted_.find(c.first);
  auto it_j = admitted_.find(c.second);
  if (it_i == admitted_.end() || it_j == admitted_.end()) {
    return Error<AdmissionError>{AdmissionError::kUnknownObject,
                                 "inter-object constraint names unregistered object"};
  }
  if (c.delta <= Duration::zero()) {
    return Error<AdmissionError>{AdmissionError::kInvalidSpec, "non-positive delta_ij"};
  }
  if (!config_.admission_control_enabled) return {};

  // §3 / Theorem 6 with zero phase variance: both client periods must be
  // within δ_ij at the primary ...
  if (it_i->second.spec.client_period > c.delta ||
      it_j->second.spec.client_period > c.delta) {
    return Error<AdmissionError>{AdmissionError::kInterObjectViolation,
                                 "client period exceeds inter-object bound"};
  }
  // ... and both transmission periods within δ_ij at the backup; tighten
  // them if the constraint is stricter than what they run at.  The RM
  // re-check folds only the two affected objects' utilisation deltas into
  // the running aggregate (judged at baselines, like admission).
  std::vector<const Admitted*> members{&it_i->second};
  if (c.first != c.second) members.push_back(&it_j->second);
  double total = util_sum_;
  for (const Admitted* m : members) {
    const Duration tightened = std::min(m->effective, c.delta);
    if (tightened < m->spec.update_exec) {
      return Error<AdmissionError>{AdmissionError::kInterObjectViolation,
                                   "inter-object bound tighter than update execution time"};
    }
    total += m->spec.update_exec.ratio(tightened) - m->update_util;
  }
  if (total > sched::liu_layland_bound(2 * admitted_.size()) + kRmSlop) {
    return Error<AdmissionError>{AdmissionError::kUnschedulable,
                                 "tightened update task set fails RM schedulability"};
  }
  return {};
}

AdmissionStatus AdmissionController::add_constraint(const InterObjectConstraint& c) {
  AdmissionStatus status = check_constraint(c);
  if (!status.ok()) return status;
  if (!config_.admission_control_enabled) {
    constraints_.push_back(c);
    return {};
  }

  auto it_i = admitted_.find(c.first);
  auto it_j = admitted_.find(c.second);
  std::vector<Admitted*> members{&it_i->second};
  if (c.first != c.second) members.push_back(&it_j->second);
  for (Admitted* m : members) {
    const Duration tightened = std::min(m->effective, c.delta);
    util_sum_ -= m->update_util;
    m->effective = tightened;
    m->update_util = m->spec.update_exec.ratio(tightened);
    util_sum_ += m->update_util;
  }
  constraints_.push_back(c);
  if (config_.update_scheduling == UpdateScheduling::kCompressed) {
    compressed_stale_ = true;
  } else {
    update_periods_[c.first] = it_i->second.effective;
    update_periods_[c.second] = it_j->second.effective;
  }
  return {};
}

Duration AdmissionController::compressed_period(const Admitted& a) const {
  // Compressed scheduling (§5.3): update transmissions consume all spare
  // capacity up to the configured target, shared equally among objects.
  // The admitted count / client-utilisation aggregates make this O(1) per
  // object.  NOTE: callers fold the object being priced into the
  // aggregates first.
  const double spare =
      std::max(0.05, config_.compressed_target_utilization - client_util_sum_);
  const double per_object =
      spare / static_cast<double>(std::max<std::size_t>(1, admitted_.size() + 1));
  Duration r = a.spec.update_exec.scaled(1.0 / per_object);
  r = std::max(r, a.spec.update_exec);  // never below the job's own length
  // Inter-object constraints and the window-derived baseline still cap the
  // period: compressed scheduling spends spare capacity to send MORE often
  // than the window demands, never less — when client load eats the spare,
  // the equal split must not be allowed to stretch r past the §4.3 period
  // the object's window was admitted against.
  r = std::min(r, a.effective);
  return r;
}

void AdmissionController::materialize_compressed() const {
  if (!compressed_stale_) return;
  compressed_stale_ = false;
  const double spare =
      std::max(0.05, config_.compressed_target_utilization - client_util_sum_);
  const double per_object = spare / static_cast<double>(std::max<std::size_t>(1, admitted_.size()));
  for (const auto& [id, a] : admitted_) {
    Duration r = a.spec.update_exec.scaled(1.0 / per_object);
    r = std::max(r, a.spec.update_exec);
    r = std::min(r, a.effective);
    update_periods_[id] = r;
  }
}

Duration AdmissionController::update_period(ObjectId id) const {
  materialize_compressed();
  auto it = update_periods_.find(id);
  RTPB_EXPECTS(it != update_periods_.end());
  return it->second;
}

double AdmissionController::total_utilization() const {
  materialize_compressed();
  double u = 0.0;
  for (const auto& [id, a] : admitted_) {
    u += a.client_util;
    u += a.spec.update_exec.ratio(update_periods_.at(id));
  }
  return u;
}

}  // namespace rtpb::core
