#include "core/service.hpp"

namespace rtpb::core {

namespace {
/// The kStart detail, "<service> primary=node<N>": `a` is the interned
/// service name.
void render_start(const telemetry::Hub& hub, const telemetry::Event& e, telemetry::Part,
                  std::string& out) {
  telemetry::append(out, hub.text(static_cast<telemetry::TextId>(e.a)), " primary=node", e.b);
}
}  // namespace

RtpbService::RtpbService(ServiceParams params)
    : params_(std::move(params)),
      sim_(params_.seed),
      network_(sim_),
      facts_("service", &render_start, &sim_.telemetry()) {
  RTPB_EXPECTS(params_.backup_count >= 1);
  primary_ = std::make_unique<ReplicaServer>(sim_, network_, names_, params_.config, metrics_,
                                             Role::kPrimary, params_.service_name);
  for (std::size_t i = 0; i < params_.backup_count; ++i) {
    auto backup = std::make_unique<ReplicaServer>(sim_, network_, names_, params_.config,
                                                  metrics_, Role::kBackup, params_.service_name);
    network_.connect(primary_->node(), backup->node(), params_.link);
    primary_->add_peer(backup->endpoint());
    backup->add_peer(primary_->endpoint());
    backup->set_successor(i == 0);
    backups_.push_back(std::move(backup));
  }
  // Backups must be able to reach each other after a failover.
  for (std::size_t i = 0; i < backups_.size(); ++i) {
    for (std::size_t j = i + 1; j < backups_.size(); ++j) {
      network_.connect(backups_[i]->node(), backups_[j]->node(), params_.link);
    }
  }

  client_ = std::make_unique<ClientApp>(sim_, *primary_, sim_.rng().fork(), /*active=*/true);
  backup_client_ =
      std::make_unique<ClientApp>(sim_, *backups_.front(), sim_.rng().fork(), /*active=*/false);

  if (params_.durable) {
    // One WAL + checkpoint device pair per replica, attached before
    // start() so even the boot metadata is persisted.
    storage_.push_back(std::make_unique<ReplicaStorage>(params_.checkpoint_every));
    primary_->attach_storage(&storage_.back()->durable);
    for (auto& b : backups_) {
      storage_.push_back(std::make_unique<ReplicaStorage>(params_.checkpoint_every));
      b->attach_storage(&storage_.back()->durable);
    }
  }

  wire_backup_hooks();
}

void RtpbService::wire_backup_hooks() {
  // Primary: if it is ever deposed (a higher epoch was promoted over it —
  // split-brain resolution), stop its client application so the orphan
  // generates no further writes.
  ReplicaServer::Hooks primary_hooks;
  primary_hooks.on_deposed = [this] { client_->deactivate(); };
  primary_->set_hooks(std::move(primary_hooks));

  // Successor: on promotion, activate its local client twin and recruit
  // every other surviving backup.
  ReplicaServer::Hooks successor_hooks;
  successor_hooks.on_promoted = [this] {
    backup_client_->activate();
    for (auto& b : backups_) {
      if (b.get() == backups_.front().get()) continue;
      if (b->crashed()) continue;
      backups_.front()->recruit_backup(b->endpoint());
    }
  };
  successor_hooks.on_deposed = [this] { backup_client_->deactivate(); };
  backups_.front()->set_hooks(std::move(successor_hooks));

  // Non-successors: when they lose the primary, follow whoever the name
  // service points at once it changes.
  const net::Endpoint original_primary = primary_->endpoint();
  for (std::size_t i = 1; i < backups_.size(); ++i) {
    ReplicaServer* b = backups_[i].get();
    ReplicaServer::Hooks hooks;
    hooks.on_primary_lost = [this, b, original_primary] {
      repoint_backup(*b, original_primary);
    };
    b->set_hooks(std::move(hooks));
  }
}

void RtpbService::repoint_backup(ReplicaServer& backup, net::Endpoint dead_primary) {
  if (backup.crashed()) return;
  const auto addr = names_.lookup(params_.service_name);
  if (addr && *addr != dead_primary && addr->node != backup.node()) {
    backup.follow_new_primary(*addr);
    return;
  }
  // Successor hasn't rewritten the name file yet: retry shortly.
  sim_.schedule_after(params_.config.ping_period,
                      [this, &backup, dead_primary] { repoint_backup(backup, dead_primary); });
}

void RtpbService::start() {
  RTPB_EXPECTS(!started_);
  started_ = true;
  telemetry::Hub& hub = sim_.telemetry();
  facts_.emit(ServiceFact::kStart, {.a = hub.enabled() ? hub.intern(params_.service_name) : 0,
                                    .b = primary_->node(),
                                    .value = static_cast<std::int64_t>(backups_.size())});
  primary_->start();
  for (auto& b : backups_) b->start();
}

void RtpbService::run_for(Duration d) { sim_.run_until(sim_.now() + d); }

void RtpbService::warm_up(Duration d) {
  run_for(d);
  metrics_.reset_statistics();
}

void RtpbService::finish() {
  metrics_.finish(sim_.now());
  // End-of-run export of the temporal-slack SLO accounting (core.slo.*):
  // the monitor is fed inline from the replication path; percentiles and
  // burn rates are rendered into the registry exactly once, here.
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled() && hub.slo().enabled()) hub.slo().export_to(hub.registry());
}

void RtpbService::crash_primary() { primary_->crash(); }

void RtpbService::crash_backup() { backups_.front()->crash(); }

RtpbService::ReplicaStorage* RtpbService::storage_for(std::size_t replica_index) {
  return replica_index < storage_.size() ? storage_[replica_index].get() : nullptr;
}

store::SimStorageDevice* RtpbService::wal_device(std::size_t replica_index) {
  ReplicaStorage* s = storage_for(replica_index);
  return s ? &s->wal : nullptr;
}

store::SimStorageDevice* RtpbService::checkpoint_device(std::size_t replica_index) {
  ReplicaStorage* s = storage_for(replica_index);
  return s ? &s->checkpoint : nullptr;
}

void RtpbService::restart_primary() { restart_replica(*primary_); }

void RtpbService::restart_backup(std::size_t index) {
  RTPB_EXPECTS(index < backups_.size());
  restart_replica(*backups_[index]);
}

void RtpbService::restart_replica(ReplicaServer& replica) {
  RTPB_EXPECTS(params_.durable);
  // The original primary's client twin must not keep generating writes
  // into a replica that rejoins as a backup.  (The successor's twin is
  // hook-managed: on_deposed already deactivates it.)
  if (&replica == primary_.get()) client_->deactivate();
  replica.restart();
  rejoin_when_primary_known(replica);
}

void RtpbService::rejoin_when_primary_known(ReplicaServer& replica) {
  if (replica.crashed()) return;  // crashed again while waiting
  const auto addr = names_.lookup(params_.service_name);
  if (addr && addr->node != replica.node()) {
    // Only follow a LIVE primary: the name file may still point at the
    // very replica that just died (failover not yet settled), or at a
    // node that has since crashed too.
    bool addr_live = false;
    for_each_replica([&](const ReplicaServer& r) {
      if (r.node() == addr->node && !r.crashed() && r.role() == Role::kPrimary) {
        addr_live = true;
      }
    });
    if (addr_live) {
      replica.follow_new_primary(*addr);
      replica.request_resync();
      // A restarted replica comes back as a non-successor orphan.  Once
      // the front backup is following a live primary again, re-designate
      // it: otherwise a later primary crash would leave the cluster
      // primary-less forever.
      if (&replica == backups_.front().get()) replica.set_successor(true);
      return;
    }
  }
  sim_.schedule_after(params_.config.ping_period,
                      [this, &replica] { rejoin_when_primary_known(replica); });
}

ReplicaServer& RtpbService::acting_primary() {
  if (!primary_->crashed() && primary_->role() == Role::kPrimary) return *primary_;
  for (auto& b : backups_) {
    if (!b->crashed() && b->role() == Role::kPrimary) return *b;
  }
  if (standby_ && standby_->role() == Role::kPrimary) return *standby_;
  return *primary_;
}

void RtpbService::for_each_replica(const std::function<void(const ReplicaServer&)>& fn) const {
  fn(*primary_);
  for (const auto& b : backups_) fn(*b);
  if (standby_) fn(*standby_);
}

std::size_t RtpbService::primaries_alive() const {
  std::size_t n = 0;
  for_each_replica([&n](const ReplicaServer& r) {
    if (!r.crashed() && r.role() == Role::kPrimary) ++n;
  });
  return n;
}

ReplicaServer& RtpbService::add_standby() {
  RTPB_EXPECTS(standby_ == nullptr);
  standby_ = std::make_unique<ReplicaServer>(sim_, network_, names_, params_.config, metrics_,
                                             Role::kBackup, params_.service_name);
  if (params_.durable) {
    storage_.push_back(std::make_unique<ReplicaStorage>(params_.checkpoint_every));
    standby_->attach_storage(&storage_.back()->durable);
  }
  ReplicaServer& new_primary = acting_primary();
  // Connect the standby to every replica, not just the acting primary: in
  // a multi-backup chain a later failover may have a different survivor
  // recruit it.
  network_.connect(new_primary.node(), standby_->node(), params_.link);
  for_each_replica([this](const ReplicaServer& r) {
    if (r.node() == standby_->node()) return;
    if (!network_.link_params(r.node(), standby_->node())) {
      network_.connect(r.node(), standby_->node(), params_.link);
    }
  });
  standby_->add_peer(new_primary.endpoint());
  standby_->start();
  if (!new_primary.crashed() && new_primary.role() == Role::kPrimary) {
    new_primary.recruit_backup(standby_->endpoint());
  } else {
    // No live primary to recruit from (failover never settled): the
    // standby comes up orphaned and no state transfer reaches it.  It
    // does not stay cold: a standby is a successor by default, so once
    // its detector declares the dead primary gone it promotes itself
    // with an empty store (ROADMAP item 1).
    facts_.emit(ServiceFact::kOrphanStandby, {.a = standby_->node()});
  }
  return *standby_;
}

Duration RtpbService::link_delay_bound() const {
  auto p = network_.link_params(primary_->node(), backups_.front()->node());
  // Sized for the primary's current frame budget (grows with the largest
  // registered payload), matching what admission control uses.
  return p ? p->delay_bound(primary_->frame_budget()) : Duration::zero();
}

}  // namespace rtpb::core
