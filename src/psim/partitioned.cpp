#include "psim/partitioned.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rtpb::psim {

// ---------------------------------------------------------------------------
// GroupPartition
// ---------------------------------------------------------------------------

GroupPartition::GroupPartition(std::uint32_t id, core::RtpbService& service)
    : id_(id), service_(service) {}

void GroupPartition::wire_mesh(const std::vector<std::unique_ptr<GroupPartition>>& parts) {
  // The drain order at window begin must be a pure function of the
  // partition, independent of wiring order: slots in ascending source id.
  std::vector<GroupPartition*> by_id;
  by_id.reserve(parts.size());
  for (const auto& p : parts) by_id.push_back(p.get());
  std::sort(by_id.begin(), by_id.end(),
            [](const GroupPartition* a, const GroupPartition* b) { return a->id_ < b->id_; });
  auto board = std::make_shared<std::vector<core::FrontierRecord>>();
  board->reserve(by_id.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) {
    RTPB_EXPECTS(i == 0 || by_id[i - 1]->id_ != by_id[i]->id_);
    board->push_back({by_id[i]->id_, TimePoint{}});
    by_id[i]->board_ = board;
    by_id[i]->slot_ = i;
    by_id[i]->last_ingested_.assign(by_id.size(), TimePoint{});
  }
}

void GroupPartition::track(core::ObjectId id) { tracked_.push_back({id, TimePoint::zero()}); }

TimePoint GroupPartition::frontier() const {
  TimePoint f = TimePoint::max();
  for (const Tracked& t : tracked_) f = std::min(f, t.stable);
  return f;
}

void GroupPartition::begin_window(TimePoint /*start*/) {
  // Ingest peers' publishes from the previous window, ascending source
  // id.  The driver's barrier ordered those writes before this scan.  A
  // slot newer than what was last taken from it was written last window:
  // publishes only ever advance, and this runs every window.
  const std::vector<core::FrontierRecord>& board = *board_;
  for (std::size_t i = 0; i < board.size(); ++i) {
    if (i == slot_ || board[i].stable_ts <= last_ingested_[i]) continue;
    last_ingested_[i] = board[i].stable_ts;
    service_.acting_primary().ingest_frontier(board[i]);
    ++records_ingested_;
  }
}

void GroupPartition::advance_to(TimePoint horizon) {
  // Every event at or before the horizon fires and the clock lands on it,
  // so all partitions agree on "now" at each barrier.  run_until schedules
  // nothing, so windowed driving fires the same events as one long run.
  sim::Simulator& sim = service_.simulator();
  RTPB_EXPECTS(horizon >= sim.now());
  sim.run_until(horizon);
}

void GroupPartition::end_window(TimePoint /*horizon*/) {
  // Stability is judged at the group's successor backup: the origin
  // timestamp it has APPLIED is what survives a primary crash.  A crashed
  // backup's store freezes, stalling the frontier — conservative.
  const core::ObjectStore& stable = service_.backups().front()->store();
  for (Tracked& t : tracked_) {
    const core::ObjectState* state = stable.peek(t.id);
    if (state == nullptr || state->version == 0) continue;
    t.stable = std::max(t.stable, state->origin_timestamp);
  }
  const TimePoint f = frontier();
  // Publish only on advance: an empty partition (max) constrains nothing,
  // and peers' merge is monotone so a repeat carries no information.
  if (f == TimePoint::max() || f <= last_published_) return;
  last_published_ = f;
  // This partition is the slot's only writer.
  (*board_)[slot_].stable_ts = f;
  ++records_published_;
}

// ---------------------------------------------------------------------------
// PartitionedCluster
// ---------------------------------------------------------------------------

PartitionedCluster::PartitionedCluster(const PartitionedClusterParams& params) {
  RTPB_EXPECTS(params.group_count >= 1);
  RTPB_EXPECTS(params.backup_count >= 1);

  for (std::uint32_t g = 0; g < params.group_count; ++g) {
    core::ServiceParams sp;
    sp.seed = derive_stream_seed(params.seed, g);
    sp.link = params.link;
    sp.config = params.config;
    sp.service_name = std::string("pgroup-").append(std::to_string(g));
    sp.backup_count = params.backup_count;
    services_.push_back(std::make_unique<core::RtpbService>(std::move(sp)));
    partitions_.push_back(std::make_unique<GroupPartition>(g, *services_.back()));
  }
  GroupPartition::wire_mesh(partitions_);

  // ℓ as admission control sees it; identical link params everywhere,
  // but take the max anyway so a future heterogeneous config stays
  // conservative.
  for (const auto& s : services_) window_ = std::max(window_, s->link_delay_bound());
  RTPB_ASSERT(window_ > Duration::zero());
}

void PartitionedCluster::start() {
  RTPB_EXPECTS(!started_);
  started_ = true;
  for (auto& s : services_) s->start();
}

core::AdmissionResult PartitionedCluster::register_object(const core::ObjectSpec& spec) {
  return register_object_in(core::shard_of(spec.id, group_count()), spec);
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

  // Cross-group: no one controller sees both objects.  The pair decomposes
  // soundly into a SELF-PAIR cap {i, i, δ_ij} on each side, capping that
  // object's transmission period at δ_ij; at run time the pair reduces to
  // frontier arithmetic (cross_constraint_satisfied).  Dry-run both caps
  // before either commits: a committed cap replicates immediately and
  // cannot be rolled back.
  const core::InterObjectConstraint cap_a{c.first, c.first, c.delta};
  const core::InterObjectConstraint cap_b{c.second, c.second, c.delta};
  core::AdmissionStatus a = services_[ga]->acting_primary().admission().check_constraint(cap_a);
  if (!a.ok()) return a;
  core::AdmissionStatus b = services_[gb]->acting_primary().admission().check_constraint(cap_b);
  if (!b.ok()) return b;
  // Control plane is single-threaded: nothing can invalidate the
  // dry-runs between check and commit, so the commits must succeed.
  a = services_[ga]->add_constraint(cap_a);
  RTPB_ASSERT(a.ok());
  b = services_[gb]->add_constraint(cap_b);
  RTPB_ASSERT(b.ok());
  cross_.push_back(c);
  return {};
}

bool PartitionedCluster::cross_constraint_satisfied(const core::InterObjectConstraint& c,
                                                    TimePoint at) const {
  for (const core::ObjectId id : {c.first, c.second}) {
    const auto it = home_.find(id);
    if (it == home_.end()) continue;
    const TimePoint f = partitions_[it->second]->frontier();
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
  for (const auto& s : services_) out.push_back(s->simulator().telemetry().digest().value());
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
