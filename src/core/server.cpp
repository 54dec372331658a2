#include "core/server.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace rtpb::core {

namespace {
/// The Hub event renderer of the fact table: the detail of fact `tag`,
/// formatted from its fields (a: object, b: version, c: epoch, d: value).
void describe(const telemetry::Hub& /*hub*/, const telemetry::Event& e, telemetry::Part,
              std::string& out) {
  using telemetry::append;
  const std::uint64_t object = e.a;
  const std::uint64_t version = e.b;
  const std::uint64_t epoch = e.c;
  const auto value = static_cast<std::int64_t>(e.d);
  switch (static_cast<Fact>(e.tag)) {
    case Fact::kWriteStart: case Fact::kXmitStart: return;
    case Fact::kQosRestore: case Fact::kRestoreReceived: return append(out, "obj", object);
    case Fact::kBatchFrame: case Fact::kStateTransfer: case Fact::kStateDelta:
      return append(out, value, " entries");
    case Fact::kStaleTransfer: case Fact::kStaleDelta:
      return append(out, value, " entries (stale id)");
    case Fact::kShed: return append(out, "obj", object, " slack ", nanos(value).to_string());
    case Fact::kQosDowngrade: case Fact::kDowngradeReceived:
      return append(out, "obj", object, " window ", nanos(value).to_string());
    case Fact::kNack: return append(out, "obj", object, " v", version, " held");
    case Fact::kRetxRequest: return append(out, "obj", object, " v", version, " held by backup");
    case Fact::kPromote: return append(out, "epoch ", epoch);
    case Fact::kStepDown: return append(out, "deposed by epoch ", value);
    case Fact::kEpochReject:  // value: the fenced message type; version: its epoch
      return append(out, wire::msg_type_name(static_cast<wire::MsgType>(value)), " epoch ",
                    version, " < ", epoch);
    case Fact::kRestart:  // value: WAL records; version: checkpoints
      return append(out, value, " wal records on ", version, " checkpoint(s)");
    case Fact::kResyncDelta:  // value: dirty objects; version: store size; object: peer
      return append(out, value, "/", version, " dirty to node", object);
    case Fact::kFrontier: return append(out, "shard", value);
    case Fact::kAckReceived: return append(out, "obj", object, " v", version, " from node", value);
    case Fact::kPeerDead: return append(out, "node", value);
    default: return append(out, "obj", object, " v", version);
  }
}
}  // namespace

ReplicaServer::ReplicaServer(sim::Simulator& sim, net::Network& network, NameService& names,
                             ServiceConfig config, Metrics& metrics, Role role,
                             std::string service_name)
    : sim_(sim),
      network_(network),
      names_(names),
      config_(config),
      metrics_(metrics),
      role_(role),
      service_name_(std::move(service_name)),
      stack_(network),
      cpu_(sim, config.cpu_policy, std::string(role_name(role)) + "-cpu"),
      transfer_backoff_({config.ping_period * 2, config.ping_period * 32, 0.25}),
      rng_(sim.rng().fork()),
      facts_("rtpb", &describe, &sim.telemetry()) {
  // The initial primary is epoch 1; backups start at 0 ("unknown") and
  // learn the cluster epoch from the first accepted message.  Epoch-0
  // traffic is never fenced, so a fresh standby can bootstrap.
  if (role_ == Role::kPrimary) epoch_ = 1;
  if (config_.enable_fragmentation) {
    frag_ = std::make_unique<xkernel::FragLite>(sim, config_.fragment_payload);
    frag_->set_telemetry(&sim.telemetry(), node());
    frag_->connect_down(stack_.udp());
    frag_->set_handler([this](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
      handle_message(msg, attrs);
    });
    stack_.udp().bind(kRtpbPort, [this](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
      xkernel::MsgAttrs mutable_attrs = attrs;
      frag_->demux(msg, mutable_attrs);
    });
  } else {
    stack_.udp().bind(kRtpbPort, [this](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
      handle_message(msg, attrs);
    });
  }
}

ReplicaServer::~ReplicaServer() = default;

void ReplicaServer::add_peer(net::Endpoint peer) {
  RTPB_EXPECTS(peer.node != net::kInvalidNode);
  peers_.push_back(peer);
  peer_state_.try_emplace(peer.node);
}

void ReplicaServer::start() {
  RTPB_EXPECTS(!started_);
  started_ = true;

  // Admission control needs the delay bound ℓ of the replication link,
  // sized for the largest update frame we may send.  The budget starts at
  // the historical 1 KiB floor and grows with each larger registration
  // (grow_frame_budget) — a hardcoded budget silently under-estimated ℓ
  // for big objects.
  Duration ell = Duration::zero();
  if (!peers_.empty()) {
    if (auto params = network_.link_params(node(), peers_.front().node)) {
      link_params_ = *params;
      ell = params->delay_bound(frame_budget_);
    }
  }
  admission_ = std::make_unique<AdmissionController>(config_, ell);

  // Overload detection baseline: a full-frame round trip with empty
  // queues is 2ℓ; the smoothed ping RTT climbing past kOverloadRttFactor ×
  // that means queueing (throttled bandwidth, inflated latency) is building.
  constexpr double kOverloadRttFactor = 4.0;
  DegradationController::Params dp;
  dp.rtt_baseline = ell > Duration::zero() ? ell * 2 : config_.ping_period / 4;
  dp.rtt_factor = kOverloadRttFactor;
  dp.queue_depth = config_.overload_queue_depth;
  degrade_ = std::make_unique<DegradationController>(dp);
  // Overload triggers double as SLO degradation signals (pure observer;
  // the monitor no-ops unless someone enabled it on the hub).
  degrade_->set_slo(&sim_.telemetry().slo());

  cpu_.start(sim_.now());
  if (role_ == Role::kPrimary) {
    names_.publish(service_name_, endpoint());
    arm_qos_tick();
  }
  if (!peers_.empty()) start_heartbeat();

  // Persist the boot metadata (the initial primary's epoch 1, or a
  // backup's epoch-0 placeholder) so even a replica that crashes before
  // its first write recovers a fenced identity.
  durable_log_meta();
}

void ReplicaServer::start_heartbeat() {
  RTPB_EXPECTS(!peers_.empty());
  for (const net::Endpoint peer : peers_) ensure_detector(peer);
}

void ReplicaServer::ensure_detector(net::Endpoint peer) {
  PeerState& ps = peer_state_[peer.node];
  if (ps.detector && ps.detector->running()) return;
  // A replica recruited after start() may not have captured link
  // parameters yet — fetch them now so the derived ack timeout (and the
  // overload RTT baseline) see the real link instead of the fallback.
  if (!link_params_) {
    if (auto params = network_.link_params(node(), peer.node)) link_params_ = *params;
  }
  FailureDetector::Params params;
  params.ping_period = config_.ping_period;
  params.ack_timeout = derived_ack_timeout();
  params.max_misses = config_.ping_max_misses;
  ps.detector = std::make_unique<FailureDetector>(
      sim_, params,
      [this, peer](std::uint64_t seq) {
        send_to(peer, wire::encode(wire::Ping{seq, epoch_}));
      },
      [this, dead = peer.node] { on_peer_dead(dead); });
  ps.detector->set_rtt_callback([this](Duration rtt) { on_rtt_sample(rtt); });
  ps.detector->start();
}

Duration ReplicaServer::derived_ack_timeout() const {
  Duration t = config_.ping_ack_timeout;
  if (t <= Duration::zero()) {
    if (link_params_) {
      t = link_params_->delay_bound(frame_budget_) * 4;
    } else {
      t = config_.ping_period / 2;
    }
    t = std::max(t, millis(5));
  }
  return std::min(t, config_.ping_period);
}

void ReplicaServer::on_rtt_sample(Duration rtt) {
  if (!degrade_) return;
  degrade_->on_rtt_sample(sim_.now(), rtt);
  emit(Fact::kSmoothedRtt, 0, 0, telemetry::kNoSpan, degrade_->rtt().srtt().nanos());
  emit(Fact::kRto, 0, 0, telemetry::kNoSpan, degrade_->rtt().rto().nanos());
  if (!config_.adaptive_timeouts) return;
  const Duration rto = degrade_->rtt().rto();
  if (rto <= Duration::zero()) return;
  const Duration t = std::clamp(rto, millis(5), config_.ping_period);
  for (auto& [n, ps] : peer_state_) {
    if (ps.detector) ps.detector->set_ack_timeout(t);
  }
}

void ReplicaServer::on_peer_dead(net::NodeId peer) {
  RTPB_INFO("rtpb", "%s@node%u: heartbeat peer node%u declared dead", role_name(role_), node(),
            peer);
  if (role_ == Role::kBackup) {
    // A backup's only peer is (its view of) the primary.
    if (successor_) {
      promote();
    } else if (hooks_.on_primary_lost) {
      hooks_.on_primary_lost();
    }
    return;
  }
  // Primary: drop just this backup from the replication set.  The erase is
  // deferred one event because we are inside the dying detector's own
  // callback.
  if (peer_state_.contains(peer)) emit(Fact::kPeerDead, 0, 0, telemetry::kNoSpan, peer);
  sim_.schedule_after(Duration::zero(), [this, peer] { remove_peer(peer); });
}

bool ReplicaServer::is_peer(net::NodeId node) const {
  return std::ranges::any_of(peers_, [node](const net::Endpoint& e) { return e.node == node; });
}

void ReplicaServer::remove_peer(net::NodeId peer) {
  if (auto it = peer_state_.find(peer); it != peer_state_.end()) {
    retire(it->second);
    peer_state_.erase(it);
  }
  std::erase_if(peers_, [peer](const net::Endpoint& e) { return e.node == peer; });
  for (auto t = primary_.transfers.begin(); t != primary_.transfers.end();) {
    t->second.awaiting.erase(peer);
    t = t->second.awaiting.empty() ? primary_.transfers.erase(t) : std::next(t);
  }
  if (primary_.transfers.empty()) transfers_settled();
  if (peers_.empty() && role_ == Role::kPrimary) {
    // §4.4: "If the backup is dead, the primary cancels the ping messages
    // as well as update events for each registered object."  With N peers
    // this applies once the LAST backup is gone.
    for (auto& [id, rec] : objects_) drop_update_task(rec);
  }
}

void ReplicaServer::retire(PeerState& ps) {
  if (!ps.detector) return;
  ps.detector->stop();
  retired_detectors_.push_back(std::move(ps.detector));
}

void ReplicaServer::clear_peers() {
  for (auto& [n, ps] : peer_state_) retire(ps);
  peer_state_.clear();
  peers_.clear();
}

void ReplicaServer::crash() {
  if (crashed_) return;
  // Snapshot what this replica could have acknowledged: every version its
  // in-memory store held at the instant of the crash.  Under the
  // log-before-apply discipline all of it is already durable; restart()
  // diffs the recovered image against this snapshot to feed the
  // durable-recovery oracle (recovery_lost_updates() must stay 0).
  if (storage_ != nullptr) {
    store_.for_each(
        [this](const ObjectState& s) { objects_[s.spec.id].life.version_at_crash = s.version; });
  }
  // Every timer stops, and the CPU with it; what the role holds stays
  // until restart(), role included (the explorer's state hash reads it).
  crashed_ = true;
  cpu_.stop();
  for (auto& [n, ps] : peer_state_) {
    if (ps.detector) ps.detector->stop();
  }
  primary_.stop();
  incarnation_.resync_retry.cancel();
  for (auto& [id, rec] : objects_) rec.stop();
  network_.set_node_up(node(), false);
  emit(Fact::kCrash);
  // A crash fault is one of the post-mortem triggers: dump the ring so the
  // artifact shows what led up to it (first trigger wins).
  sim_.telemetry().flight_recorder().trigger_dump(
      "crash:node" + std::to_string(node()), sim_.now());
  RTPB_INFO("rtpb", "%s@node%u crashed", role_name(role_), node());
}

// ---------------------------------------------------------------------------
// Client-facing interface.
// ---------------------------------------------------------------------------

void ReplicaServer::grow_frame_budget(std::size_t payload_bytes) {
  if (payload_bytes <= frame_budget_) return;
  frame_budget_ = payload_bytes;
  if (link_params_) {
    const Duration ell = link_params_->delay_bound(frame_budget_);
    admission_->set_link_delay_bound(ell);
    RTPB_INFO("rtpb", "frame budget grown to %zu B; admission ℓ now %s", frame_budget_,
              ell.to_string().c_str());
  }
}

AdmissionResult ReplicaServer::register_object(const ObjectSpec& spec) {
  RTPB_EXPECTS(started_);
  RTPB_EXPECTS(role_ == Role::kPrimary);
  // Re-derive ℓ before admitting: a payload larger than the current frame
  // budget makes the replication frame — and thus the admission delay
  // bound — bigger for this and subsequent registrations.
  grow_frame_budget(spec.size_bytes);
  AdmissionResult result = admission_->admit(spec);
  if (!result.ok()) {
    RTPB_DEBUG("rtpb", "admission rejected object %u: %s", spec.id,
               admission_error_name(result.code()));
    return result;
  }
  if (!durable_log_insert(spec)) return result;  // fail-stopped
  const bool inserted = store_.insert(spec);
  RTPB_ASSERT(inserted);
  metrics_.track_object(spec.id, spec.window(), spec.client_period);

  // One periodic update-transmission task per admitted object (§4.3).
  sync_update_tasks();
  if (!peers_.empty()) begin_transfer({spec.id}, peers_, /*delta=*/false);
  RTPB_INFO("rtpb", "admitted object %u (r=%s)", spec.id,
            admission_->update_period(spec.id).to_string().c_str());
  return result;
}

AdmissionStatus ReplicaServer::add_constraint(const InterObjectConstraint& c) {
  RTPB_EXPECTS(started_);
  RTPB_EXPECTS(role_ == Role::kPrimary);
  AdmissionStatus status = admission_->add_constraint(c);
  if (status.ok()) {
    replicated_constraints_.push_back(c);
    sync_update_tasks();  // constraint may have tightened periods

    // Replicate the constraint table to the backups (acked + retried like
    // a registration, with no object entries).
    if (!peers_.empty()) begin_transfer({}, peers_, /*delta=*/false);
  }
  return status;
}

void ReplicaServer::local_write(ObjectId id, std::span<const std::uint8_t> value,
                                const sched::JobInfo& info) {
  // A client job already on the CPU queue can fire after a step-down
  // deposed this primary; drop the write instead of asserting.
  if (role_ != Role::kPrimary) return;
  if (!store_.contains(id)) return;  // racing a failed registration
  // Log-before-apply: the write (at the version it is about to get) is
  // durable before the in-memory store — and through it any ack a client
  // or backup could observe — sees it.
  if (storage_ != nullptr &&
      !storage_->log_write(id, store_.get(id).version + 1, info.finish, info.finish, value)) {
    fail_stop("wal-write");
    return;
  }
  const std::uint64_t version = store_.write(id, value, info.finish);
  metrics_.record_response(info.finish - info.release);
  metrics_.on_primary_write(id, info.finish);

  // Mint the causal span for this update version (none while the Hub is
  // off), back-dated with the sensing job's scheduling history so the
  // span's first hops show how long the write waited for the CPU.
  const telemetry::SpanId span = sim_.telemetry().begin_span(id, version, epoch_);
  emit(Fact::kWriteRelease, id, version, span, 0, info.release);
  emit(Fact::kWriteStart, id, version, span, 0, info.start);
  emit(Fact::kWrite, id, version, span, (info.finish - info.release).nanos(), info.finish);

  // Window-consistent baseline: each write immediately queues its own
  // transmission job (coupled), instead of the decoupled periodic tasks.
  if (config_.update_scheduling == UpdateScheduling::kCoupled && !peers_.empty() &&
      cpu_.started()) {
    const Duration cost = store_.get(id).spec.update_exec;
    cpu_.submit_job("xmit-now-" + std::to_string(id), cost,
                    [this, id](const sched::JobInfo& job) { send_update(id, false, &job); });
  }
  maybe_checkpoint();
}

std::optional<ObjectState> ReplicaServer::read(ObjectId id) const { return store_.find(id); }

// ---------------------------------------------------------------------------
// Update transmission (primary side).
// ---------------------------------------------------------------------------

void ReplicaServer::sync_update_tasks() {
  if (role_ != Role::kPrimary || peers_.empty()) return;
  if (config_.update_scheduling == UpdateScheduling::kCoupled) return;  // per-write sends
  for (const auto& [id, period] : admission_->update_periods()) {
    ObjectRecord& rec = objects_[id];
    if (rec.primary.task != sched::kInvalidTask && rec.primary.task_period == period) continue;
    drop_update_task(rec);

    sched::TaskSpec task;
    task.name = "xmit-" + std::to_string(id);
    task.period = period;
    task.wcet = store_.contains(id) ? store_.get(id).spec.update_exec : millis(1);
    const ObjectId obj = id;
    rec.primary.task = cpu_.add_task(task, [this, obj](const sched::JobInfo& job) {
      send_update(obj, /*retransmission=*/false, &job);
    });
    rec.primary.task_period = period;
  }
  // Drop tasks for objects no longer admitted.
  for (auto& [id, rec] : objects_) {
    if (!admission_->update_periods().contains(id)) drop_update_task(rec);
  }
}

void ReplicaServer::drop_update_task(ObjectRecord& rec) {
  if (rec.primary.task == sched::kInvalidTask) return;
  cpu_.remove_task(rec.primary.task);
  rec.primary.task = sched::kInvalidTask;
  rec.primary.task_period = {};
}

void ReplicaServer::send_update(ObjectId id, bool retransmission, const sched::JobInfo* job,
                                const std::vector<net::Endpoint>* targets) {
  if (crashed_ || peers_.empty() || !store_.contains(id)) return;
  const ObjectState& state = store_.get(id);
  if (state.version == 0) return;  // nothing written yet

  telemetry::Hub& hub = sim_.telemetry();
  const telemetry::SpanId span = hub.span_for(id, state.version);
  // Everything pushed synchronously below (FRAGLITE → UDPLITE → IPLITE →
  // SIMETH → the link) records against this update's span.
  telemetry::ScopedSpan span_scope(hub, span);
  if (job != nullptr && span != telemetry::kNoSpan) {
    emit(Fact::kXmitRelease, id, state.version, span, 0, job->release);
    emit(Fact::kXmitStart, id, state.version, span, 0, job->start);
  }
  emit(retransmission ? Fact::kRetransmit : Fact::kUpdateSend, id, state.version, span);

  // §5 methodology: loss injected on the update stream itself (the paper's
  // "probability of message loss from the primary to the backup").  A
  // per-object override (shard-targeted chaos verbs) takes precedence;
  // bernoulli(0) draws nothing, so unused overrides leave the rng stream —
  // and with it the trace digest — untouched.
  if (rng_.bernoulli(record(id).loss_override.value_or(config_.update_loss_probability))) {
    emit(Fact::kLossInjected, id, state.version, span);
  } else if (config_.batch_updates && !retransmission && targets == nullptr) {
    // Stage for the open batch window instead of sending immediately.  The
    // staged entry is just the object id — the flush reads the store, so a
    // write landing inside the window rides out with its newest version.
    if (std::find(primary_.staged.begin(), primary_.staged.end(), id) == primary_.staged.end()) {
      primary_.staged.push_back(id);
    }
    if (!primary_.batch_flush.pending()) {
      // The window bounds the added staging delay and must stay well
      // inside the admission slack (δ_i − ℓ)/2: 2 ms is an order of
      // magnitude below the paper's tightest windows.
      constexpr Duration kUpdateBatchWindow = millis(2);
      primary_.batch_flush =
          sim_.schedule_after(kUpdateBatchWindow, [this] { flush_staged_updates(); });
    }
  } else {
    wire::Update u;
    u.object = id;
    u.version = state.version;
    u.timestamp = state.origin_timestamp;
    u.retransmission = retransmission;
    // Borrowed: the value is copied once, into the frame encoded below.
    u.value = Payload::borrow(state.value);
    u.epoch = epoch_;
    emit(Fact::kUpdateFrame);
    // Encode once; each peer's copy shares the body buffer.
    xkernel::Message frame{wire::encode(u)};
    const std::vector<net::Endpoint>& dst = targets != nullptr ? *targets : peers_;
    for (const net::Endpoint& peer : dst) send_to(peer, frame);
  }

  if (config_.ack_every_update && !retransmission) arm_ack_timeout(id, state.version);
}

void ReplicaServer::flush_staged_updates() {
  if (crashed_ || role_ != Role::kPrimary || peers_.empty()) {
    primary_.staged.clear();
    return;
  }
  if (config_.degradation_enabled) shed_staged_updates();
  // Entries borrow their values from the store; the batch is encoded and
  // emptied before anything can write the store again.
  std::vector<wire::UpdateBatchEntry>& entries = batch_.entries;
  entries.clear();
  for (ObjectId id : primary_.staged) {
    if (!store_.contains(id)) continue;  // deregistered inside the window
    const ObjectState& state = store_.get(id);
    if (state.version == 0) continue;
    entries.push_back(wire::UpdateBatchEntry{id, state.version, state.origin_timestamp,
                                             Payload::borrow(state.value)});
  }
  primary_.staged.clear();
  if (entries.empty()) return;
  batch_.epoch = epoch_;
  telemetry::Hub& hub = sim_.telemetry();
  // The frame carries several updates but a stack event attaches to one
  // span: the first coalesced update stands in for the frame (its span
  // threads write → udp-push → net-deliver → apply; siblings still get
  // their own apply events at the backup).
  const telemetry::SpanId span = hub.span_for(entries.front().object, entries.front().version);
  telemetry::ScopedSpan span_scope(hub, span);
  emit(Fact::kBatchFrame, entries.front().object, entries.front().version, span,
       static_cast<std::int64_t>(entries.size()));
  xkernel::Message frame{wire::encode(batch_)};
  entries.clear();
  for (const net::Endpoint& peer : peers_) send_to(peer, frame);
}

void ReplicaServer::shed_staged_updates() {
  if (!degrade_ || primary_.staged.empty()) return;
  const TimePoint now = sim_.now();
  degrade_->on_queue_depth(now, primary_.staged.size());

  // Slack = time until this object's (currently admitted) window is
  // violated at the backup: window − d_i(now).  The shared Metrics holds
  // both sites' timestamps, so the primary can read d_i directly.
  by_slack_.clear();
  for (ObjectId id : primary_.staged) {
    if (!store_.contains(id)) continue;
    const Duration window = store_.get(id).spec.window();
    const Duration slack = window - metrics_.current_distance(id);
    if (slack <= Duration::zero()) degrade_->on_missed_window(now);
    by_slack_.emplace_back(slack, id);
  }
  if (!degrade_->overloaded(now)) return;  // staging order stands

  // Overloaded: ship in time-to-violation order and drop what a fresh
  // client write will supersede before its slack expires (the write lands
  // within one period, ships within another — 2 p_i of margin keeps the
  // drop safe).  The most urgent update always ships.
  std::stable_sort(by_slack_.begin(), by_slack_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  telemetry::Hub& hub = sim_.telemetry();
  primary_.staged.clear();  // refilled from by_slack_, in its order
  for (const auto& [slack, id] : by_slack_) {
    const Duration period = store_.get(id).spec.client_period;
    if (!primary_.staged.empty() && slack > period * 2) {
      emit(Fact::kShed, id, 0, hub.latest_span(id), slack.nanos());
      continue;
    }
    primary_.staged.push_back(id);
  }
}

void ReplicaServer::arm_ack_timeout(ObjectId id, std::uint64_t version) {
  ObjectRecord& rec = objects_[id];
  const Duration period =
      rec.primary.task != sched::kInvalidTask ? rec.primary.task_period : config_.ping_period;
  // An armed deadline sticks: re-arming on every periodic send (one per
  // period, deadline two periods out) would postpone it forever and the
  // ack path would never retransmit while the stream flows.  The pending
  // deadline checks the version it was armed with; the next send arms a
  // fresh one, so every version eventually faces its deadline.
  if (rec.primary.ack_timeout.pending()) return;
  // Fixed mode: the historical two transmission periods.  Adaptive
  // mode adds the current RTO on top of one period, so a throttled or
  // latency-inflated link stretches the deadline instead of triggering a
  // retransmission storm into an already-congested queue.
  constexpr std::int64_t kAckTimeoutPeriods = 2;
  Duration deadline = period * kAckTimeoutPeriods;
  if (config_.adaptive_timeouts && degrade_ && degrade_->rtt().has_sample()) {
    deadline = std::max(deadline, period + degrade_->rtt().rto());
  }
  rec.primary.ack_timeout = sim_.schedule_after(deadline, [this, id, version] {
    // Retransmit only to the peers still behind: one fast backup's ack
    // must not cancel retransmission for a backup that never received the
    // update (the old shared acked_version slot did exactly that).
    std::vector<net::Endpoint> lagging;
    for (const net::Endpoint& peer : peers_) {
      std::uint64_t acked = 0;
      if (auto ps = peer_state_.find(peer.node); ps != peer_state_.end()) {
        if (auto a = ps->second.acked.find(id); a != ps->second.acked.end()) acked = a->second;
      }
      if (acked < version) lagging.push_back(peer);
    }
    if (lagging.empty()) return;
    RTPB_DEBUG("rtpb", "update %u v%llu unacked by %zu peer(s); retransmitting", id,
               static_cast<unsigned long long>(version), lagging.size());
    send_update(id, /*retransmission=*/true, nullptr, &lagging);
    arm_ack_timeout(id, version);
  });
}

// ---------------------------------------------------------------------------
// Registration replication.
// ---------------------------------------------------------------------------

Duration ReplicaServer::effective_update_interval(ObjectId id) const {
  if (config_.update_scheduling == UpdateScheduling::kCoupled) {
    return store_.get(id).spec.client_period;
  }
  return admission_->update_period(id);
}

void ReplicaServer::begin_transfer(std::vector<ObjectId> ids,
                                   const std::vector<net::Endpoint>& targets, bool delta) {
  const std::uint64_t tid = mint_transfer_id();
  PendingTransfer& pending = primary_.transfers[tid];
  pending.ids = std::move(ids);
  for (const net::Endpoint& peer : targets) pending.awaiting.insert(peer.node);
  pending.delta = delta;
  send_transfer(tid, pending);
  arm_transfer_retry();
}

void ReplicaServer::send_transfer(std::uint64_t transfer_id, const PendingTransfer& pending) {
  // A retry re-encodes from the live store under the SAME transfer id, so
  // the receiver's per-sender reorder guard treats it exactly like the
  // original.
  std::vector<wire::StateEntry> entries;
  entries.reserve(pending.ids.size());
  for (ObjectId id : pending.ids) {
    if (store_.contains(id)) entries.push_back(state_entry_for(id));
  }
  xkernel::Message frame{
      pending.delta ? wire::encode(wire::StateDelta{transfer_id, std::move(entries),
                                                    replicated_constraints_, epoch_})
                    : wire::encode(wire::StateTransfer{transfer_id, std::move(entries),
                                                       replicated_constraints_, epoch_})};
  for (const net::Endpoint& peer : peers_) {
    if (pending.awaiting.contains(peer.node)) send_to(peer, frame);
  }
}

void ReplicaServer::arm_transfer_retry() {
  if (primary_.transfer_retry.pending()) return;
  const Duration delay =
      config_.degradation_enabled ? transfer_backoff_.next(rng_) : config_.ping_period * 2;
  primary_.transfer_retry = sim_.schedule_after(delay, [this] { retry_pending_registrations(); });
}

void ReplicaServer::retry_pending_registrations() {
  if (crashed_ || peers_.empty() || primary_.transfers.empty()) return;
  for (auto it = primary_.transfers.begin(); it != primary_.transfers.end();) {
    PendingTransfer& pending = it->second;
    ++pending.attempts;
    if (config_.transfer_retry_limit > 0 &&
        pending.attempts > config_.transfer_retry_limit) {
      // The peer never acked across the whole backoff ladder: retrying
      // forever would keep storming a link that is not delivering.  Give
      // up and report the silent peer as suspected-down — the same path a
      // heartbeat declaration takes (deferred remove_peer on a primary).
      for (const net::NodeId n : pending.awaiting) {
        emit(Fact::kTransferGiveUp);
        RTPB_WARN("rtpb", "transfer %llu to node%u unacked after %u attempts; suspecting peer",
                  static_cast<unsigned long long>(it->first), n, pending.attempts - 1);
        on_peer_dead(n);
      }
      it = primary_.transfers.erase(it);
      continue;
    }
    send_transfer(it->first, pending);
    ++it;
  }
  if (primary_.transfers.empty()) {
    transfers_settled();
    return;
  }
  arm_transfer_retry();
  emit(Fact::kBackoffLevel, 0, 0, telemetry::kNoSpan, transfer_backoff_.level());
}

void ReplicaServer::transfers_settled() {
  primary_.transfer_retry.cancel();
  transfer_backoff_.reset();
}

// ---------------------------------------------------------------------------
// Failover.
// ---------------------------------------------------------------------------

void ReplicaServer::promote() {
  RTPB_EXPECTS(role_ == Role::kBackup);
  RTPB_EXPECTS(!crashed_);
  role_ = Role::kPrimary;
  promoted_at_ = sim_.now();
  // Mint a new incarnation: strictly above every epoch this replica has
  // seen, and above the initial primary's epoch 1 even if this backup
  // never received a single message before promoting.
  epoch_ = std::max<std::uint64_t>(epoch_, 1) + 1;
  durable_log_meta();  // the minted incarnation must survive a crash
  emit(Fact::kPromote, 0, 0, telemetry::kNoSpan, static_cast<std::int64_t>(epoch_));
  emit(Fact::kEpochChange);
  leave_backup();  // the old primary is gone, and the watchdogs with it

  // Rewrite the name file to point clients at us (§4.4).
  names_.publish(service_name_, endpoint());

  // Rebuild admission state from the replicated specs so the service can
  // keep enforcing temporal constraints for new registrations.  The frame
  // budget is re-derived from the replicated payload sizes — the largest
  // replicated object bounds the frames this new primary will send.
  Duration ell = admission_ ? admission_->link_delay_bound() : Duration::zero();
  store_.for_each([this](const ObjectState& state) {
    if (state.spec.size_bytes > frame_budget_) frame_budget_ = state.spec.size_bytes;
  });
  if (link_params_) ell = link_params_->delay_bound(frame_budget_);
  admission_ = std::make_unique<AdmissionController>(config_, ell);
  store_.for_each([this](const ObjectState& state) {
    const AdmissionResult r = admission_->admit(state.spec);
    if (!r.ok()) {
      RTPB_WARN("rtpb", "object %u no longer admissible after failover: %s", state.spec.id,
                admission_error_name(r.code()));
    }
  });
  for (const auto& c : replicated_constraints_) (void)admission_->add_constraint(c);

  // QoS renegotiation state: specs in the store already reflect any
  // downgrade this replica heard about (they were re-admitted above), so
  // the loosened constraint survives the failover.  The original specs
  // were only known to the dead primary — the downgraded QoS becomes the
  // admitted one here.  Seed our seq counter above every seq we applied
  // so our own future notices are never discarded as stale.
  for (const auto& [id, rec] : objects_) {
    next_qos_seq_ = std::max(next_qos_seq_, rec.life.qos_applied_seq + 1);
  }
  arm_qos_tick();

  RTPB_INFO("rtpb", "backup promoted to primary at %s (epoch %llu)",
            sim_.now().to_string().c_str(), static_cast<unsigned long long>(epoch_));
  // Bring up the local (backup) client application via up-call.
  if (hooks_.on_promoted) hooks_.on_promoted();
}

void ReplicaServer::step_down(std::uint64_t new_epoch) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  RTPB_INFO("rtpb", "primary@node%u deposed: saw epoch %llu > own %llu; stepping down", node(),
            static_cast<unsigned long long>(new_epoch),
            static_cast<unsigned long long>(epoch_));
  emit(Fact::kStepDown, 0, 0, telemetry::kNoSpan, static_cast<std::int64_t>(new_epoch));
  role_ = Role::kBackup;
  epoch_ = new_epoch;
  durable_log_meta();
  emit(Fact::kDemoted);
  emit(Fact::kEpochChange);
  // The deposed replica stays up as an ORPHANED backup: its store may
  // hold a divergent suffix the new primary never saw, so it must not
  // rejoin the chain until a state transfer from the new primary re-peers
  // it.
  leave_primary();
  if (hooks_.on_deposed) hooks_.on_deposed();
}

void ReplicaServer::leave_primary() {
  for (auto& [id, rec] : objects_) {
    drop_update_task(rec);
    rec.primary.ack_timeout.cancel();
    rec.primary = {};
  }
  primary_.stop();
  primary_.transfers.clear();
  clear_peers();
}

void ReplicaServer::leave_backup() {
  for (auto& [id, rec] : objects_) {
    rec.backup.watchdog.cancel();
    rec.backup = {};
  }
  clear_peers();
}

void ReplicaServer::follow_new_primary(net::Endpoint new_primary) {
  RTPB_EXPECTS(role_ == Role::kBackup);
  RTPB_EXPECTS(!crashed_);
  clear_peers();
  add_peer(new_primary);
  start_heartbeat();
  RTPB_INFO("rtpb", "backup@node%u now follows primary at node%u", node(), new_primary.node);
}

// ---------------------------------------------------------------------------
// Runtime QoS renegotiation (graceful degradation).
// ---------------------------------------------------------------------------

void ReplicaServer::arm_qos_tick() {
  if (!config_.degradation_enabled) return;
  if (crashed_ || role_ != Role::kPrimary) return;
  if (primary_.qos_tick.pending()) return;
  primary_.qos_tick = sim_.schedule_after(millis(10), [this] { qos_tick(); });
}

void ReplicaServer::qos_tick() {
  if (crashed_ || role_ != Role::kPrimary || !degrade_) return;
  const TimePoint now = sim_.now();

  if (!peers_.empty()) {
    // Downgrade pass: an object more than half-way through its window
    // while the system is overloaded — or nearly fully through it under
    // any conditions — is about to violate.  Renegotiate BEFORE that
    // happens so the violation-to-be is inside an announced window.
    // In place: downgrade_object rewrites an entry's spec but never
    // inserts into or erases from the store.
    store_.for_each([&](const ObjectState& state) {
      const ObjectId id = state.spec.id;
      if (qos_downgrade_active(id)) return;
      const Duration window = state.spec.window();
      if (window <= Duration::zero()) return;
      const Duration dist = metrics_.current_distance(id);
      const bool imminent = dist > window.scaled(0.75);
      // An imminent violation is overload evidence in itself (the update
      // stream fell behind the window) — feed the detector so shedding
      // and hysteresis see it too.
      if (imminent) degrade_->on_missed_window(now);
      if ((degrade_->overloaded(now) && dist > window / 2) || imminent) {
        downgrade_object(id);
      }
    });
  }

  // Restore pass: original QoS comes back only after the overload has
  // been quiet for the hysteresis hold (floored at one failure-detection
  // period so restore can never flap within one detector cycle) AND the
  // backup has genuinely caught back up into the original window.
  const Duration hold = std::max(config_.degrade_restore_hold, config_.ping_period);
  std::size_t active = 0;
  for (auto& [id, rec] : objects_) {
    if (!rec.primary.downgrade) continue;
    const QosState& qos = *rec.primary.downgrade;
    const bool calm = !degrade_->overloaded(now) && degrade_->calm_for(now) >= hold;
    const bool aged = now - qos.since >= hold;
    const bool caught_up =
        store_.contains(id) &&
        metrics_.current_distance(id) + qos.original.client_period < qos.original.window();
    if (!(calm && aged && caught_up) || !restore_object(id)) ++active;
  }

  emit(Fact::kActiveDowngrades, 0, 0, telemetry::kNoSpan, static_cast<std::int64_t>(active));
  emit(Fact::kOverloaded, 0, 0, telemetry::kNoSpan, degrade_->overloaded(now) ? 1 : 0);
  arm_qos_tick();
}

bool ReplicaServer::downgrade_object(ObjectId id) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  if (!store_.contains(id) || qos_downgrade_active(id)) return false;
  // Widen the window δ_iB − δ_iP kDegradeWindowFactor-fold.
  constexpr std::int64_t kDegradeWindowFactor = 2;
  const ObjectSpec& original = store_.get(id).spec;
  ObjectSpec loosened = original;
  loosened.delta_backup = original.delta_primary + original.window() * kDegradeWindowFactor;
  return renegotiate(id, loosened, /*downgrade=*/true);
}

bool ReplicaServer::restore_object(ObjectId id) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  if (!qos_downgrade_active(id) || !store_.contains(id)) return false;
  return renegotiate(id, objects_[id].primary.downgrade->original, /*downgrade=*/false);
}

bool ReplicaServer::renegotiate(ObjectId id, ObjectSpec to, bool downgrade) {
  // The object must leave the admitted set first — suggest/admit evaluate
  // against it.  A downgrade falls back to admission's §4.2 suggestion
  // machinery if the straight relaxation is still infeasible; a restore
  // whose original no longer fits (the admitted set grew while degraded)
  // stays on the downgraded QoS rather than over-promise.
  const ObjectSpec from = store_.get(id).spec;
  admission_->remove(id);
  AdmissionResult result = admission_->admit(to);
  if (!result.ok() && downgrade) {
    if (auto suggestion = admission_->suggest_alternative(to)) {
      to = *suggestion;
      result = admission_->admit(to);
    }
  }
  if (!result.ok()) {
    (void)admission_->admit(from);
    sync_update_tasks();
    return false;
  }

  store_.update_spec(id, to);
  metrics_.track_object(id, to.window(), to.client_period);
  sync_update_tasks();

  ObjectRecord& rec = objects_[id];
  const std::uint64_t seq = next_qos_seq_++;
  if (downgrade) {
    rec.primary.downgrade = QosState{from, sim_.now()};
  } else {
    rec.primary.downgrade.reset();
  }
  rec.life.qos_applied_seq = seq;
  rec.qos_notice_at = sim_.now();

  const Duration period = admission_->update_period(id);
  xkernel::Message frame{
      downgrade ? wire::encode(wire::ConstraintDowngrade{id, to.delta_primary, to.delta_backup,
                                                         period, seq, epoch_})
                : wire::encode(wire::ConstraintRestore{id, to.delta_backup, period, seq, epoch_})};
  for (const net::Endpoint& peer : peers_) send_to(peer, frame);

  RTPB_INFO("rtpb", "QoS %s: object %u window %s -> %s (r=%s, seq %llu)",
            downgrade ? "downgrade" : "restore", id, from.window().to_string().c_str(),
            to.window().to_string().c_str(), period.to_string().c_str(),
            static_cast<unsigned long long>(seq));
  emit(downgrade ? Fact::kQosDowngrade : Fact::kQosRestore, id, 0, telemetry::kNoSpan,
       to.window().nanos());
  return true;
}

const ReplicaServer::ObjectRecord& ReplicaServer::record(ObjectId id) const {
  static const ObjectRecord kNone;
  const auto it = objects_.find(id);
  return it != objects_.end() ? it->second : kNone;
}

bool ReplicaServer::qos_downgrade_active(ObjectId id) const {
  return record(id).primary.downgrade.has_value();
}

TimePoint ReplicaServer::qos_last_notice_at(ObjectId id) const {
  return record(id).qos_notice_at;
}

void ReplicaServer::recruit_backup(net::Endpoint new_backup) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  RTPB_EXPECTS(!crashed_);
  if (!is_peer(new_backup.node)) add_peer(new_backup);
  begin_transfer(store_.ids(), {new_backup}, /*delta=*/false);
}

// ---------------------------------------------------------------------------
// Message handling.
// ---------------------------------------------------------------------------

void ReplicaServer::send_to(net::Endpoint to, Bytes payload) {
  send_to(to, xkernel::Message{std::move(payload)});
}

void ReplicaServer::send_to(net::Endpoint to, xkernel::Message msg) {
  if (crashed_) return;
  if (frag_) {
    xkernel::MsgAttrs attrs;
    attrs.src = endpoint();
    attrs.dst = to;
    frag_->push(msg, attrs);
  } else {
    stack_.send_message(kRtpbPort, to, std::move(msg));
  }
}

void ReplicaServer::handle_message(xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
  if (crashed_) return;
  // Non-const: state-transfer entries are moved out during apply.  Update
  // values are borrowed from `msg`, so nothing may keep `decoded`.
  auto decoded = wire::decode(msg.contents());
  if (!decoded) {
    RTPB_WARN("rtpb", "undecodable RTPB message from node%u; dropped", attrs.src.node);
    return;
  }
  const net::Endpoint from = attrs.src;

  // ---- epoch fencing ----
  // Traffic stamped with a LOWER epoch comes from a deposed primary (or a
  // not-yet-repointed backup) and is rejected outright; epoch 0 is the
  // bootstrap wildcard.  A ping still gets an answer carrying OUR epoch:
  // that ack is the depose notice a zombie primary steps down on.
  const std::uint64_t msg_epoch = wire::epoch_of(*decoded);
  if (config_.epoch_fencing && msg_epoch != 0 && msg_epoch < epoch_) {
    const wire::MsgType type = wire::type_of(*decoded);
    emit(Fact::kEpochReject, 0, msg_epoch, sim_.telemetry().current_span(),
         static_cast<std::int64_t>(type));
    RTPB_DEBUG("rtpb", "%s from node%u fenced: epoch %llu < %llu", wire::msg_type_name(type),
               from.node, static_cast<unsigned long long>(msg_epoch),
               static_cast<unsigned long long>(epoch_));
    if (const auto* ping = std::get_if<wire::Ping>(&*decoded)) {
      send_to(from, wire::encode(wire::PingAck{ping->seq, epoch_}));
    }
    return;
  }
  if (msg_epoch > epoch_) {
    if (role_ == Role::kBackup) {
      // Backups adopt the highest epoch seen on accepted traffic.
      epoch_ = msg_epoch;
      durable_log_meta();
    } else if (config_.epoch_fencing) {
      // A higher epoch at a primary means someone was promoted over us:
      // we were deposed without noticing.  Step down, then handle the
      // message as the backup we now are.
      step_down(msg_epoch);
    }
    // With fencing off a primary ignores the higher epoch — the historic
    // split-brain behaviour the chaos sabotage self-test relies on.
  }

  if (auto ps = peer_state_.find(from.node); ps != peer_state_.end() && ps->second.detector) {
    ps->second.detector->note_traffic();
  }

  std::visit([&](auto& m) { handle(m, from); }, *decoded);
}

void ReplicaServer::handle(const wire::ActivePrepare& /*p*/, net::Endpoint /*from*/) {
  RTPB_WARN("rtpb", "unexpected active-replication message; dropped");
}

void ReplicaServer::handle(const wire::ActiveAck& /*a*/, net::Endpoint /*from*/) {
  RTPB_WARN("rtpb", "unexpected active-replication message; dropped");
}

void ReplicaServer::handle(const wire::Update& u, net::Endpoint from) {
  telemetry::Hub& hub = sim_.telemetry();
  if (role_ != Role::kBackup) {
    // Role guard: a primary must never apply (or ack) an update stream.
    // Reachable when fencing is off — a deposed old primary keeps sending
    // after this replica was promoted over it.
    emit(Fact::kUpdateRoleReject, u.object, u.version, hub.current_span());
    return;
  }
  if (!store_.contains(u.object)) {
    // Registration hasn't reached us yet; the acked transfer will retry.
    emit(Fact::kUnknownObject, u.object, u.version, hub.current_span());
    return;
  }
  const ApplyOutcome outcome =
      apply_remote(u.object, u.version, u.timestamp, u.value.bytes(), u.epoch);
  if (outcome == ApplyOutcome::kFailStopped) return;  // no apply, no ack
  const bool applied = outcome == ApplyOutcome::kApplied;
  if (applied) {
    // Temporal-slack SLO sample: staleness at apply vs the negotiated
    // window δ.  Fed inline (no timers) so it stays a pure observer.
    telemetry::SloMonitor& slo = sim_.telemetry().slo();
    if (slo.enabled()) {
      slo.observe(u.object, sim_.now(), sim_.now() - u.timestamp,
                  metrics_.window_of(u.object));
    }
  }
  emit(applied ? Fact::kApply : Fact::kStaleUpdate, u.object, u.version,
       hub.span_for(u.object, u.version), (sim_.now() - u.timestamp).nanos());
  arm_watchdog(u.object);
  if (config_.ack_every_update) {
    emit(Fact::kAckSent);
    send_to(from, wire::encode(wire::UpdateAck{u.object, u.version, epoch_}));
  }
  maybe_checkpoint();
}

ReplicaServer::ApplyOutcome ReplicaServer::apply_remote(ObjectId id, std::uint64_t version,
                                                        TimePoint origin_ts,
                                                        std::span<const std::uint8_t> value,
                                                        std::uint64_t epoch) {
  // Log-before-apply (backup side): the version must be durable before
  // the store — and any ack — can expose it.  Staleness is gated here
  // first so duplicate/old versions never hit the WAL.
  if (version > store_.get(id).version && !durable_log_update(id, version, origin_ts, value)) {
    return ApplyOutcome::kFailStopped;
  }
  if (!store_.apply(id, version, origin_ts, value, sim_.now())) return ApplyOutcome::kStale;
  // Only reachable with fencing disabled: we just applied state from a
  // deposed primary's incarnation.  The chaos no-cross-epoch-apply oracle
  // trips on this count.
  if (epoch != 0 && epoch < epoch_) emit(Fact::kCrossEpochApply);
  metrics_.on_backup_apply(id, origin_ts, sim_.now());
  return ApplyOutcome::kApplied;
}

void ReplicaServer::handle(const wire::UpdateBatch& b, net::Endpoint from) {
  // Entries apply strictly in batch order, each through the single-update
  // path so role guards, staleness accounting, watchdogs and (in ack mode)
  // per-object acks behave exactly as for kUpdate frames.
  for (const wire::UpdateBatchEntry& entry : b.entries) {
    handle(wire::Update{entry.object, entry.version, entry.timestamp, /*retransmission=*/false,
                        entry.value, b.epoch},
           from);
  }
}

void ReplicaServer::handle(const wire::UpdateAck& a, net::Endpoint from) {
  if (role_ != Role::kPrimary) return;
  auto it = peer_state_.find(from.node);
  if (it == peer_state_.end()) return;  // ack from a node we no longer replicate to
  std::uint64_t& acked = it->second.acked[a.object];
  acked = std::max(acked, a.version);
  emit(Fact::kAckReceived, a.object, a.version, telemetry::kNoSpan, from.node);
}

void ReplicaServer::handle(const wire::RetransmitRequest& r,
                                              net::Endpoint /*from*/) {
  if (role_ != Role::kPrimary) return;
  if (!store_.contains(r.object)) return;
  if (store_.get(r.object).version <= r.have_version) return;  // backup is current
  emit(Fact::kRetxRequest, r.object, r.have_version,
       sim_.telemetry().span_for(r.object, store_.get(r.object).version));
  // Serving a retransmission costs CPU like a regular transmission, but at
  // background priority: it must not perturb the admitted periodic tasks.
  const ObjectId id = r.object;
  const Duration cost = store_.get(id).spec.update_exec;
  if (cpu_.started()) {
    cpu_.submit_job("retx-" + std::to_string(id), cost, [this, id](const sched::JobInfo& job) {
      send_update(id, /*retransmission=*/true, &job);
    });
  } else {
    send_update(id, /*retransmission=*/true);
  }
}

void ReplicaServer::handle(const wire::Ping& p, net::Endpoint from) {
  send_to(from, wire::encode(wire::PingAck{p.seq, epoch_}));
}

void ReplicaServer::handle(const wire::PingAck& p, net::Endpoint from) {
  auto it = peer_state_.find(from.node);
  if (it != peer_state_.end() && it->second.detector) it->second.detector->on_ping_ack(p.seq);
}

void ReplicaServer::handle(wire::StateTransfer& st, net::Endpoint from) {
  apply_transfer(st.transfer_id, st.entries, st.constraints, st.epoch, /*delta=*/false, from);
}

void ReplicaServer::handle(wire::StateDelta& sd, net::Endpoint from) {
  apply_transfer(sd.transfer_id, sd.entries, sd.constraints, sd.epoch, /*delta=*/true, from);
}

void ReplicaServer::apply_transfer(std::uint64_t transfer_id,
                                   std::vector<wire::StateEntry>& entries,
                                   std::vector<InterObjectConstraint>& constraints,
                                   std::uint64_t epoch, bool delta, net::Endpoint from) {
  if (role_ != Role::kBackup) {
    // Role guard: a primary never takes state from another primary.
    emit(Fact::kRoleReject);
    return;
  }
  // Re-peer: a transfer from a node we do not follow is a recruitment —
  // after a failover the new primary recruits the surviving backups, and
  // they must stop heartbeating the dead (or deposed) old primary.
  if (!is_peer(from.node)) follow_new_primary(from);

  // Reorder guard: per-sender transfer ids are monotone, and deltas and
  // full transfers are totally ordered against each other.  Object entries
  // are safe to apply idempotently from ANY transfer (versions gate the
  // store), but the constraint table, adopted specs and watchdog
  // expectations are last-writer-wins snapshots — a delayed retry of an
  // older transfer must not clobber the newer state we already hold.
  std::uint64_t& high_water = incarnation_.transfer_high_water[from.node];
  const bool newest = transfer_id > high_water;
  if (newest) high_water = transfer_id;
  const Fact fact = delta ? (newest ? Fact::kStateDelta : Fact::kStaleDelta)
                          : (newest ? Fact::kStateTransfer : Fact::kStaleTransfer);
  emit(fact, 0, transfer_id, sim_.telemetry().current_span(),
       static_cast<std::int64_t>(entries.size()));
  for (wire::StateEntry& entry : entries) {
    const ObjectId id = entry.spec.id;
    if (!store_.contains(id)) {
      if (!durable_log_insert(entry.spec)) return;  // fail-stopped
      store_.insert(entry.spec);
      metrics_.track_object(id, entry.spec.window(), entry.spec.client_period);
    } else if (newest) {
      // A rejoiner may hold a stale spec (e.g. its recovered image
      // predates a QoS downgrade the sender still runs under): the
      // sender's spec is the admitted one, adopt it like the constraint
      // table.
      store_.update_spec(id, entry.spec);
      metrics_.track_object(id, entry.spec.window(), entry.spec.client_period);
    }
    if (entry.version > 0 && apply_remote(id, entry.version, entry.timestamp, entry.value,
                                          epoch) == ApplyOutcome::kFailStopped) {
      return;  // no apply, no ack
    }
    if (newest) {
      objects_[id].backup.watchdog_period = entry.update_period;
      arm_watchdog(id);
    }
  }
  if (newest) replicated_constraints_ = std::move(constraints);
  // Any transfer satisfies a pending resync (a full one is the fallback).
  incarnation_.resync_pending = false;
  incarnation_.resync_retry.cancel();
  // Always ack — even a stale transfer id — so the sender's retry loop
  // terminates.
  send_to(from, wire::encode(wire::StateTransferAck{transfer_id, epoch_}));
  maybe_checkpoint();
}

void ReplicaServer::handle(const wire::StateTransferAck& ack,
                                              net::Endpoint from) {
  if (role_ != Role::kPrimary) return;
  auto it = primary_.transfers.find(ack.transfer_id);
  if (it == primary_.transfers.end()) return;
  it->second.awaiting.erase(from.node);
  if (!it->second.awaiting.empty()) return;
  primary_.transfers.erase(it);
  if (primary_.transfers.empty()) transfers_settled();
  if (!peers_.empty()) {
    // Recruited backup (or fresh registration) confirmed: (re)start
    // replication machinery.
    sync_update_tasks();
    start_heartbeat();
  }
}

void ReplicaServer::handle(const wire::ConstraintDowngrade& d, net::Endpoint /*from*/) {
  apply_qos_notice(d.object, d.qos_seq, d.update_period, d.delta_primary, d.delta_backup);
}

void ReplicaServer::handle(const wire::ConstraintRestore& rs, net::Endpoint /*from*/) {
  apply_qos_notice(rs.object, rs.qos_seq, rs.update_period, std::nullopt, rs.delta_backup);
}

void ReplicaServer::apply_qos_notice(ObjectId id, std::uint64_t qos_seq, Duration update_period,
                                     std::optional<Duration> delta_primary,
                                     Duration delta_backup) {
  if (role_ != Role::kBackup) {
    emit(Fact::kRoleReject);
    return;
  }
  if (!store_.contains(id)) return;
  // Reorder guard: per-object renegotiation seqs are monotone.  A delayed
  // duplicate of an older downgrade (or a downgrade arriving after the
  // restore that undid it) must not clobber the newer QoS.
  ObjectRecord& rec = objects_[id];
  if (qos_seq <= rec.life.qos_applied_seq) return;
  rec.life.qos_applied_seq = qos_seq;
  next_qos_seq_ = std::max(next_qos_seq_, qos_seq + 1);

  ObjectSpec spec = store_.get(id).spec;
  if (delta_primary) spec.delta_primary = *delta_primary;
  spec.delta_backup = delta_backup;
  store_.update_spec(id, spec);
  metrics_.track_object(id, spec.window(), spec.client_period);
  rec.backup.watchdog_period = update_period;
  arm_watchdog(id);
  rec.qos_notice_at = sim_.now();
  RTPB_INFO("rtpb", "backup@node%u applied QoS %s: object %u window %s (seq %llu)", node(),
            delta_primary ? "downgrade" : "restore", id, spec.window().to_string().c_str(),
            static_cast<unsigned long long>(qos_seq));
  emit(delta_primary ? Fact::kDowngradeReceived : Fact::kRestoreReceived, id, 0,
       telemetry::kNoSpan, spec.window().nanos());
}

// ---------------------------------------------------------------------------
// Cross-group frontier (parallel scale-out).
// ---------------------------------------------------------------------------

void ReplicaServer::ingest_frontier(const FrontierRecord& f) {
  if (crashed_) return;
  // Monotone merge: a frontier only ever advances, so a repeated or stale
  // record can never drag the view backwards.
  TimePoint& have = peer_frontiers_[f.shard];
  have = std::max(have, f.stable_ts);
  emit(Fact::kFrontier, 0, 0, sim_.telemetry().current_span(), f.shard);
}

TimePoint ReplicaServer::peer_frontier(std::uint32_t shard) const {
  auto it = peer_frontiers_.find(shard);
  return it != peer_frontiers_.end() ? it->second : TimePoint{};
}

void ReplicaServer::arm_watchdog(ObjectId id) {
  if (role_ != Role::kBackup) return;
  auto it = objects_.find(id);
  if (it == objects_.end() || it->second.backup.watchdog_period <= Duration::zero()) return;
  ObjectRecord::Backup& b = it->second.backup;
  b.watchdog.cancel();
  // crash() and leave_backup() cancel it, so it fires only on a live backup.
  b.watchdog = sim_.schedule_after(b.watchdog_period * config_.watchdog_factor, [this, id] {
    const ObjectState* state = store_.peek(id);
    if (state == nullptr) return;
    // Blame the newest span the primary minted for this object — that is
    // the update whose absence tripped the watchdog.
    emit(Fact::kNack, id, state->version, sim_.telemetry().latest_span(id));
    if (!peers_.empty()) {
      send_to(peers_.front(), wire::encode(wire::RetransmitRequest{id, state->version, epoch_}));
    }
    arm_watchdog(id);
  });
}

// ---------------------------------------------------------------------------
// Durability & crash recovery.
// ---------------------------------------------------------------------------

wire::StateEntry ReplicaServer::state_entry_for(ObjectId id) const {
  const ObjectState& state = store_.get(id);
  wire::StateEntry entry;
  entry.spec = state.spec;
  entry.update_period = effective_update_interval(id);
  entry.version = state.version;
  entry.timestamp = state.origin_timestamp;
  entry.value = state.value;
  return entry;
}

bool ReplicaServer::durable_log_insert(const ObjectSpec& spec) {
  if (storage_ == nullptr) return true;
  if (!storage_->log_insert(spec)) {
    fail_stop("wal-insert");
    return false;
  }
  emit(Fact::kWalRecord);
  return true;
}

bool ReplicaServer::durable_log_update(ObjectId id, std::uint64_t version, TimePoint origin_ts,
                                       std::span<const std::uint8_t> value) {
  if (storage_ == nullptr) return true;
  // `timestamp` is this site's apply time — exactly what store_.apply()
  // stamps next — so the recovered state matches the in-memory one
  // byte-for-byte.
  if (!storage_->log_write(id, version, sim_.now(), origin_ts, value)) {
    fail_stop("wal-write");
    return false;
  }
  emit(Fact::kWalRecord);
  return true;
}

void ReplicaServer::durable_log_meta() {
  if (storage_ == nullptr || crashed_) return;
  if (!storage_->log_meta(epoch_, next_transfer_id_)) fail_stop("wal-meta");
}

std::uint64_t ReplicaServer::mint_transfer_id() {
  const std::uint64_t tid = next_transfer_id_++;
  // Persist the new high water before the id can reach the wire: a
  // restarted primary must never re-mint an id its peers already saw, or
  // their per-sender reorder guards would discard the fresh transfer.
  durable_log_meta();
  return tid;
}

void ReplicaServer::maybe_checkpoint() {
  if (storage_ == nullptr || crashed_ || !storage_->should_checkpoint()) return;
  if (!storage_->checkpoint(store_, epoch_, next_transfer_id_)) {
    fail_stop("checkpoint");
    return;
  }
  emit(Fact::kCheckpoint);
}

void ReplicaServer::fail_stop(const char* what) {
  if (crashed_) return;
  RTPB_WARN("rtpb", "%s@node%u: storage append failed (%s); fail-stop", role_name(role_),
            node(), what);
  emit(Fact::kFailStop);
  crash();
}

void ReplicaServer::restart() {
  RTPB_EXPECTS(started_);
  RTPB_EXPECTS(crashed_);
  RTPB_EXPECTS(storage_ != nullptr);
  // Power-cycle: the devices keep their contents; any armed crash point or
  // latched failure clears with the power.
  storage_->wal_device().clear_failure();
  storage_->checkpoint_device().clear_failure();
  store::RecoveryResult rec = storage_->recover();

  // Rebuild the in-memory store from the recovered image: last valid
  // checkpoint plus the WAL tail, already merged by the durability layer.
  store_ = ObjectStore{};
  for (const ObjectState& s : rec.states) {
    store_.restore(s);
    metrics_.track_object(s.spec.id, s.spec.window(), s.spec.client_period);
  }
  epoch_ = rec.epoch;
  next_transfer_id_ = rec.next_transfer_id;

  // Shed every trace of the dead incarnation.  It leaves the role it
  // crashed in: the CPU restart below re-arms every registered task, so a
  // primary's update tasks must go first (crash() cancelled the timers).
  if (role_ == Role::kPrimary) {
    leave_primary();
  } else {
    leave_backup();
  }
  // Its per-object state goes too.  QoS renegotiation is not durable: the
  // recovered specs predate any notice it applied, and claiming the old
  // seqs in the resync vector would hide a spec-stale object from the
  // dirty set, so they restart at 0.
  for (auto& [id, r] : objects_) {
    // Durable-recovery oracle: every version the dead incarnation's store
    // held (= could have acked) must be in the recovered image, and an
    // object missing from it lost them all.  Under log-before-apply this
    // count stays 0; a torn WAL tail only ever holds writes that were
    // never applied or acked.
    const std::uint64_t have = store_.contains(id) ? store_.get(id).version : 0;
    if (have < r.life.version_at_crash) {
      emit(Fact::kLostUpdates, id, 0, telemetry::kNoSpan,
           static_cast<std::int64_t>(r.life.version_at_crash - have));
    }
    r.life = {};
  }
  incarnation_ = {};

  // The rejoiner always comes back as an ORPHANED, non-successor backup —
  // even a crashed primary.  Its recovered epoch may predate a failover
  // it slept through, so it must not claim any role until the service
  // re-points it at the acting primary and a transfer re-peers it.
  role_ = Role::kBackup;
  successor_ = false;
  crashed_ = false;

  network_.set_node_up(node(), true);
  cpu_.start(sim_.now());

  const auto wal_records = static_cast<std::int64_t>(rec.wal_records);
  emit(Fact::kWalReplay, 0, 0, telemetry::kNoSpan, wal_records);
  if (rec.wal_torn) emit(Fact::kTornWalTail);
  if (rec.checkpoint_torn) emit(Fact::kTornCheckpointTail);
  emit(Fact::kRestart, 0, rec.checkpoint_records, telemetry::kNoSpan, wal_records);
  RTPB_INFO("rtpb",
            "node%u restarted from durable state: %zu object(s), epoch %llu, "
            "%zu wal record(s)%s",
            node(), store_.size(), static_cast<unsigned long long>(epoch_), rec.wal_records,
            rec.wal_torn ? " (torn tail discarded)" : "");
}

void ReplicaServer::request_resync() {
  if (crashed_ || role_ != Role::kBackup || peers_.empty()) return;
  const std::uint32_t attempts = incarnation_.resync_attempts;
  if (config_.transfer_retry_limit > 0 && attempts > config_.transfer_retry_limit) {
    RTPB_WARN("rtpb", "backup@node%u gave up resyncing after %u attempts", node(), attempts - 1);
    incarnation_.resync_pending = false;
    return;
  }
  wire::ResyncRequest rq;
  store_.for_each([this, &rq](const ObjectState& s) {
    const ObjectId id = s.spec.id;
    rq.have.push_back(wire::ResyncEntry{id, s.version, record(id).life.qos_applied_seq});
  });
  // Deliberately the epoch-0 bootstrap wildcard (see wire.hpp): the
  // recovered epoch may be stale and a fenced resync would strand us.
  emit(Fact::kResyncRequest);
  ++incarnation_.resync_attempts;
  incarnation_.resync_pending = true;
  send_to(peers_.front(), wire::encode(rq));
  // Re-ask until a kStateDelta or full kStateTransfer lands.
  incarnation_.resync_retry.cancel();
  incarnation_.resync_retry = sim_.schedule_after(config_.ping_period * 2, [this] {
    if (incarnation_.resync_pending) request_resync();
  });
}

void ReplicaServer::handle(const wire::ResyncRequest& rq, net::Endpoint from) {
  if (role_ != Role::kPrimary) {
    emit(Fact::kRoleReject);
    return;
  }
  // Dirty set: everything the rejoiner has never seen, is version-behind
  // on, or holds under an older QoS spec than the one admitted here (QoS
  // state is not durable — a restarted replica reports seq 0, so any
  // object this primary ever renegotiated resyncs its spec too).
  std::map<ObjectId, const wire::ResyncEntry*> have;
  for (const wire::ResyncEntry& e : rq.have) have[e.object] = &e;
  std::vector<ObjectId> dirty;
  store_.for_each([&](const ObjectState& s) {
    const auto it = have.find(s.spec.id);
    if (it == have.end() || it->second->version < s.version ||
        it->second->qos_seq < record(s.spec.id).life.qos_applied_seq) {
      dirty.push_back(s.spec.id);
    }
  });

  if (rq.have.empty() || dirty.size() == store_.size()) {
    // The delta saves nothing (empty vector, or everything is dirty):
    // fall back to the full-transfer recruitment path.
    emit(Fact::kResyncFull);
    recruit_backup(from);
    return;
  }

  if (!is_peer(from.node)) add_peer(from);

  const auto dirty_count = static_cast<std::int64_t>(dirty.size());
  emit(Fact::kDeltaEntries, 0, 0, telemetry::kNoSpan, dirty_count);
  emit(Fact::kResyncDelta, from.node, store_.size(), telemetry::kNoSpan, dirty_count);
  RTPB_INFO("rtpb", "primary@node%u resyncs node%u incrementally: %zu/%zu object(s) dirty",
            node(), from.node, dirty.size(), store_.size());
  begin_transfer(std::move(dirty), {from}, /*delta=*/true);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

const FailureDetector* ReplicaServer::detector(net::NodeId peer) const {
  auto it = peer_state_.find(peer);
  return it != peer_state_.end() ? it->second.detector.get() : nullptr;
}

std::uint64_t ReplicaServer::peer_acked_version(net::NodeId peer, ObjectId id) const {
  auto it = peer_state_.find(peer);
  if (it == peer_state_.end()) return 0;
  auto a = it->second.acked.find(id);
  return a != it->second.acked.end() ? a->second : 0;
}

std::uint64_t ReplicaServer::highest_transfer_applied(net::NodeId sender) const {
  auto it = incarnation_.transfer_high_water.find(sender);
  return it != incarnation_.transfer_high_water.end() ? it->second : 0;
}

}  // namespace rtpb::core
