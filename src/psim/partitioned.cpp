#include "psim/partitioned.hpp"

#include <algorithm>
#include <utility>

#include "shard/admission.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rtpb::psim {

// ---------------------------------------------------------------------------
// GroupPartition
// ---------------------------------------------------------------------------

GroupPartition::GroupPartition(std::uint32_t id, core::RtpbService& service,
                               std::size_t queue_capacity)
    : id_(id),
      service_(service),
      partition_(service.simulator()),
      queue_capacity_(queue_capacity) {
  RTPB_EXPECTS(queue_capacity >= 1);
}

void GroupPartition::connect(GroupPartition& from, GroupPartition& to) {
  RTPB_EXPECTS(from.id_ != to.id_);
  auto queue = std::make_unique<SpscQueue<core::FrontierRecord>>(to.queue_capacity_);
  from.outbound_.push_back(queue.get());
  to.inbound_.push_back({from.id_, std::move(queue)});
}

void GroupPartition::wire_mesh(const std::vector<std::unique_ptr<GroupPartition>>& parts) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      connect(*parts[i], *parts[j]);
      connect(*parts[j], *parts[i]);
    }
  }
  // The drain order at window begin must be a pure function of the
  // partition, independent of wiring order: ascending source id.
  for (const auto& p : parts) {
    std::sort(p->inbound_.begin(), p->inbound_.end(),
              [](const Inbound& a, const Inbound& b) { return a.source < b.source; });
  }
}

void GroupPartition::track(core::ObjectId id) {
  tracked_.push_back(id);
  // Frontier starts at the epoch origin: nothing has been made stable
  // for this object yet.
  frontier_.track(id, TimePoint::zero());
}

void GroupPartition::begin_window(TimePoint /*start*/) {
  // Drain peers' publishes from the previous window, ascending source id.
  // The driver's barrier ordered those pushes before this drain.
  for (Inbound& in : inbound_) {
    while (std::optional<core::FrontierRecord> f = in.queue->pop()) {
      service_.acting_primary().ingest_frontier(*f);
      ++records_ingested_;
    }
  }
}

void GroupPartition::advance_to(TimePoint horizon) { partition_.advance_to(horizon); }

void GroupPartition::end_window(TimePoint /*horizon*/) {
  // Stability is judged at the group's successor backup: the origin
  // timestamp it has APPLIED is what survives a primary crash.  A crashed
  // backup's store freezes, stalling the frontier — conservative.
  const core::ObjectStore& stable = service_.backups().front()->store();
  for (core::ObjectId id : tracked_) {
    const std::optional<core::ObjectState> state = stable.find(id);
    if (!state || state->version == 0) continue;
    frontier_.advance(id, state->origin_timestamp);
  }
  const TimePoint f = frontier_.frontier();
  // Publish only on advance: an empty partition (max) constrains nothing,
  // and peers' merge is monotone so a repeat carries no information.
  if (f == TimePoint::max() || f <= last_published_) return;
  last_published_ = f;
  const core::FrontierRecord record{id_, f};
  for (SpscQueue<core::FrontierRecord>* q : outbound_) {
    const bool pushed = q->push(record);
    // At most one publish per window per source; queues are sized far
    // above the worst backlog a slow consumer window could leave.
    RTPB_ASSERT(pushed);
  }
  ++records_published_;
}

// ---------------------------------------------------------------------------
// PartitionedCluster
// ---------------------------------------------------------------------------

PartitionedCluster::PartitionedCluster(PartitionedClusterParams params)
    : params_(std::move(params)),
      directory_(params_.group_count, params_.group_count) {
  RTPB_EXPECTS(params_.group_count >= 1);
  RTPB_EXPECTS(params_.backup_count >= 1);
  RTPB_EXPECTS(params_.group_seeds.empty() ||
               params_.group_seeds.size() == params_.group_count);

  for (std::uint32_t g = 0; g < params_.group_count; ++g) {
    core::ServiceParams sp;
    sp.seed = params_.group_seeds.empty() ? derive_stream_seed(params_.seed, g)
                                          : params_.group_seeds[g];
    sp.link = params_.link;
    sp.config = params_.config;
    sp.service_name = params_.service_prefix + "-" + std::to_string(g);
    sp.backup_count = params_.backup_count;
    services_.push_back(std::make_unique<core::RtpbService>(std::move(sp)));
    partitions_.push_back(std::make_unique<GroupPartition>(g, *services_.back()));
  }
  GroupPartition::wire_mesh(partitions_);

  if (params_.window > Duration::zero()) {
    window_ = params_.window;
  } else {
    // ℓ as admission control sees it; identical link params everywhere,
    // but take the max anyway so a future heterogeneous config stays
    // conservative.
    for (const auto& s : services_) window_ = std::max(window_, s->link_delay_bound());
    RTPB_ASSERT(window_ > Duration::zero());
  }
}

void PartitionedCluster::start() {
  RTPB_EXPECTS(!started_);
  started_ = true;
  for (auto& s : services_) s->start();
}

core::AdmissionResult PartitionedCluster::register_object(const core::ObjectSpec& spec) {
  return register_object_in(directory_.group_of(spec.id), spec);
}

core::AdmissionResult PartitionedCluster::register_object_in(std::uint32_t group,
                                                             const core::ObjectSpec& spec) {
  core::AdmissionResult r = services_[group]->register_object(spec);
  if (r.ok()) {
    partitions_[group]->track(spec.id);
    home_[spec.id] = group;
  }
  return r;
}

core::AdmissionStatus PartitionedCluster::add_constraint(const core::InterObjectConstraint& c) {
  const auto ia = home_.find(c.first);
  const auto ib = home_.find(c.second);
  if (ia == home_.end() || ib == home_.end()) {
    return Error<core::AdmissionError>{core::AdmissionError::kUnknownObject,
                                       "inter-object constraint names unregistered object"};
  }
  const std::uint32_t ga = ia->second;
  const std::uint32_t gb = ib->second;
  if (ga == gb) return services_[ga]->add_constraint(c);

  // Cross-group: dry-run both sides before either commits (a committed
  // cap replicates immediately and cannot be rolled back).
  const shard::CrossShardCaps caps = shard::decompose_cross_constraint(c);
  core::AdmissionStatus a =
      services_[ga]->acting_primary().admission().check_constraint(caps.first);
  if (!a.ok()) return a;
  core::AdmissionStatus b =
      services_[gb]->acting_primary().admission().check_constraint(caps.second);
  if (!b.ok()) return b;
  // Control plane is single-threaded: nothing can invalidate the
  // dry-runs between check and commit, so the commits must succeed.
  a = services_[ga]->add_constraint(caps.first);
  RTPB_ASSERT(a.ok());
  b = services_[gb]->add_constraint(caps.second);
  RTPB_ASSERT(b.ok());
  cross_.push_back(c);
  return {};
}

bool PartitionedCluster::cross_constraint_satisfied(const core::InterObjectConstraint& c,
                                                    TimePoint at) const {
  for (const core::ObjectId id : {c.first, c.second}) {
    const auto it = home_.find(id);
    if (it == home_.end()) continue;
    const TimePoint f = partitions_[it->second]->frontier_tracker().frontier();
    // An untracked partition (no objects) imposes nothing.
    if (f != TimePoint::max() && at - f > c.delta) return false;
  }
  return true;
}

DriverStats PartitionedCluster::run_for(Duration d, std::size_t threads) {
  std::vector<PartitionTask*> tasks;
  tasks.reserve(partitions_.size());
  for (auto& p : partitions_) tasks.push_back(p.get());
  const TimePoint from = now();
  for (const auto& s : services_) RTPB_ASSERT(s->simulator().now() == from);
  ParallelDriver driver(std::move(tasks), window_);
  return driver.run(from, from + d, threads);
}

void PartitionedCluster::finish() {
  for (auto& s : services_) s->finish();
}

std::vector<std::uint64_t> PartitionedCluster::digests() const {
  std::vector<std::uint64_t> out;
  out.reserve(services_.size());
  for (const auto& s : services_) out.push_back(s->simulator().trace().digest());
  return out;
}

std::uint64_t PartitionedCluster::frontier_records_published() const {
  std::uint64_t n = 0;
  for (const auto& p : partitions_) n += p->records_published();
  return n;
}

std::uint64_t PartitionedCluster::frontier_records_ingested() const {
  std::uint64_t n = 0;
  for (const auto& p : partitions_) n += p->records_ingested();
  return n;
}

}  // namespace rtpb::psim
