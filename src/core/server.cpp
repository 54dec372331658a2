#include "core/server.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace rtpb::core {

namespace {
std::string rtpb_track(net::NodeId n) { return "node" + std::to_string(n) + "/rtpb"; }

std::string obj_tag(ObjectId id, std::uint64_t version) {
  return "obj" + std::to_string(id) + " v" + std::to_string(version);
}

std::string peer_counter(net::NodeId peer, const char* what) {
  return "core.primary.peer.node" + std::to_string(peer) + "." + what;
}

/// Flight-recorder hook: one enabled-branch when the recorder is off, one
/// O(1) ring write when on.  `label` must be a string literal.
void flight(sim::Simulator& sim, telemetry::FlightKind kind, std::uint32_t node,
            std::uint64_t object = 0, std::uint64_t version = 0, std::uint64_t epoch = 0,
            std::uint64_t span = 0, std::int64_t arg = 0, const char* label = nullptr) {
  telemetry::FlightRecorder& fr = sim.telemetry().flight_recorder();
  if (!fr.enabled()) return;
  telemetry::FlightRecord r;
  r.at = sim.now();
  r.span = span;
  r.object = object;
  r.version = version;
  r.epoch = epoch;
  r.arg = arg;
  r.label = label;
  r.node = node;
  r.kind = kind;
  fr.record(r);
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
      rng_(sim.rng().fork()) {
  // The initial primary is epoch 1; backups start at 0 ("unknown") and
  // learn the cluster epoch from the first accepted message.  Epoch-0
  // traffic is never fenced, so a fresh standby can bootstrap.
  if (role_ == Role::kPrimary) epoch_ = 1;
  transfer_backoff_.emplace(BackoffPolicy::Params{
      config_.ping_period * 2, config_.ping_period * 32, 0.25});
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
  peer_state_[peer.node].endpoint = peer;
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
  // queues is 2ℓ; the smoothed ping RTT climbing past rtt_factor × that
  // means queueing (throttled bandwidth, inflated latency) is building.
  DegradationController::Params dp;
  dp.rtt_baseline = ell > Duration::zero() ? ell * 2 : config_.ping_period / 4;
  dp.rtt_factor = config_.overload_rtt_factor;
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
  ps.endpoint = peer;
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
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().gauge("core.degrade.rtt_ms").set(degrade_->rtt().srtt().millis());
    hub.registry().gauge("core.degrade.rto_ms").set(degrade_->rtt().rto().millis());
  }
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
  if (sim_.telemetry().enabled()) {
    sim_.telemetry().registry().counter(peer_counter(peer, "dead")).add();
  }
  sim_.schedule_after(Duration::zero(), [this, peer] { remove_peer(peer); });
}

void ReplicaServer::remove_peer(net::NodeId peer) {
  auto it = peer_state_.find(peer);
  if (it != peer_state_.end()) {
    if (it->second.detector) {
      it->second.detector->stop();
      retired_detectors_.push_back(std::move(it->second.detector));
    }
    peer_state_.erase(it);
  }
  peers_.erase(std::remove_if(peers_.begin(), peers_.end(),
                              [peer](const net::Endpoint& e) { return e.node == peer; }),
               peers_.end());
  for (auto t = pending_transfers_.begin(); t != pending_transfers_.end();) {
    t->second.awaiting.erase(peer);
    if (t->second.awaiting.empty()) {
      t = pending_transfers_.erase(t);
    } else {
      ++t;
    }
  }
  if (pending_transfers_.empty()) {
    transfer_retry_.cancel();
    if (transfer_backoff_) transfer_backoff_->reset();
  }
  if (peers_.empty() && role_ == Role::kPrimary) {
    // §4.4: "If the backup is dead, the primary cancels the ping messages
    // as well as update events for each registered object."  With N peers
    // this applies once the LAST backup is gone.
    for (auto& [id, task] : update_tasks_) cpu_.remove_task(task.task);
    update_tasks_.clear();
  }
}

void ReplicaServer::clear_peers() {
  for (auto& [n, ps] : peer_state_) {
    if (ps.detector) {
      ps.detector->stop();
      retired_detectors_.push_back(std::move(ps.detector));
    }
  }
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
    acked_at_crash_.clear();
    store_.for_each(
        [this](const ObjectState& s) { acked_at_crash_[s.spec.id] = s.version; });
  }
  crashed_ = true;
  cpu_.stop();
  for (auto& [n, ps] : peer_state_) {
    if (ps.detector) ps.detector->stop();
  }
  transfer_retry_.cancel();
  resync_retry_.cancel();
  resync_pending_ = false;
  qos_tick_.cancel();
  batch_flush_.cancel();
  staged_updates_.clear();
  for (auto& [id, w] : watchdogs_) w.timer.cancel();
  for (auto& [id, a] : ack_state_) a.timeout.cancel();
  network_.set_node_up(node(), false);
  flight(sim_, telemetry::FlightKind::kCrash, node(), 0, 0, epoch_);
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
  if (link_params_ && admission_) {
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
  replicate_registration(spec.id);
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
    if (!peers_.empty()) {
      const std::uint64_t tid = mint_transfer_id();
      PendingTransfer& pending = pending_transfers_[tid];
      for (const net::Endpoint& peer : peers_) pending.awaiting.insert(peer.node);
      wire::StateTransfer st;
      st.transfer_id = tid;
      st.constraints = replicated_constraints_;
      st.epoch = epoch_;
      xkernel::Message frame{wire::encode(st)};
      for (const net::Endpoint& peer : peers_) send_to(peer, frame);
      arm_transfer_retry();
    }
  }
  return status;
}

void ReplicaServer::local_write(ObjectId id, Bytes value, const sched::JobInfo& info) {
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
  store_.write(id, std::move(value), info.finish);
  metrics_.record_response(info.finish - info.release);
  metrics_.on_primary_write(id, info.finish);

  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    // Mint the causal span for this update version, back-dated with the
    // sensing job's scheduling history so the span's first hops show how
    // long the write waited for the CPU.
    const std::uint64_t version = store_.get(id).version;
    const telemetry::SpanId span = hub.begin_span(id, version, epoch_);
    hub.registry().counter("core.primary.writes").add();
    hub.registry().histogram("core.primary.write_response_ms").record(info.finish - info.release);
    const std::string track = rtpb_track(node());
    hub.record_at(info.release, span, node(), telemetry::EventKind::kInstant, track,
                  "write-release", obj_tag(id, version));
    hub.record_at(info.start, span, node(), telemetry::EventKind::kInstant, track,
                  "write-start");
    hub.record_at(info.finish, span, node(), telemetry::EventKind::kInstant, track, "write",
                  obj_tag(id, version));
  }

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
    auto it = update_tasks_.find(id);
    if (it != update_tasks_.end() && it->second.period == period) continue;
    if (it != update_tasks_.end()) cpu_.remove_task(it->second.task);

    sched::TaskSpec task;
    task.name = "xmit-" + std::to_string(id);
    task.period = period;
    task.wcet = store_.contains(id) ? store_.get(id).spec.update_exec : millis(1);
    const ObjectId obj = id;
    const sched::TaskId tid = cpu_.add_task(task, [this, obj](const sched::JobInfo& job) {
      send_update(obj, /*retransmission=*/false, &job);
    });
    update_tasks_[id] = UpdateTaskState{tid, period};
  }
  // Drop tasks for objects no longer admitted.
  for (auto it = update_tasks_.begin(); it != update_tasks_.end();) {
    if (!admission_->update_periods().contains(it->first)) {
      cpu_.remove_task(it->second.task);
      it = update_tasks_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReplicaServer::send_update(ObjectId id, bool retransmission, const sched::JobInfo* job,
                                const std::vector<net::Endpoint>* targets) {
  if (crashed_ || peers_.empty() || !store_.contains(id)) return;
  const ObjectState& state = store_.get(id);
  if (state.version == 0) return;  // nothing written yet

  ++updates_sent_;
  if (retransmission) ++retransmissions_;

  telemetry::Hub& hub = sim_.telemetry();
  const telemetry::SpanId span =
      hub.enabled() ? hub.span_for(id, state.version) : telemetry::kNoSpan;
  // Everything pushed synchronously below (FRAGLITE → UDPLITE → IPLITE →
  // SIMETH → the link) records against this update's span.
  telemetry::ScopedSpan span_scope(hub, span);
  if (hub.enabled()) {
    const std::string track = rtpb_track(node());
    if (job != nullptr && span != telemetry::kNoSpan) {
      hub.record_at(job->release, span, node(), telemetry::EventKind::kInstant, track,
                    "xmit-release", obj_tag(id, state.version));
      hub.record_at(job->start, span, node(), telemetry::EventKind::kInstant, track,
                    "xmit-start");
    }
    hub.registry()
        .counter(retransmission ? "core.primary.retransmissions" : "core.primary.update_sends")
        .add();
    hub.record(span, node(), telemetry::EventKind::kInstant, track,
               retransmission ? "update-retx" : "update-send", obj_tag(id, state.version));
  }
  flight(sim_, telemetry::FlightKind::kUpdateSend, node(), id, state.version, epoch_, span,
         retransmission ? 1 : 0);

  // §5 methodology: loss injected on the update stream itself (the paper's
  // "probability of message loss from the primary to the backup").  A
  // per-object override (shard-targeted chaos verbs) takes precedence;
  // bernoulli(0) draws nothing, so unused overrides leave the rng stream —
  // and with it the trace digest — untouched.
  const auto loss_it = object_loss_override_.find(id);
  const double loss_p =
      loss_it != object_loss_override_.end() ? loss_it->second : config_.update_loss_probability;
  if (rng_.bernoulli(loss_p)) {
    ++updates_loss_injected_;
    if (hub.enabled()) {
      hub.registry().counter("core.primary.loss_injected").add();
      hub.record(span, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
                 "update-loss-injected", obj_tag(id, state.version));
    }
  } else if (config_.batch_updates && !retransmission && targets == nullptr) {
    // Stage for the open batch window instead of sending immediately.  The
    // staged entry is just the object id — the flush reads the store, so a
    // write landing inside the window rides out with its newest version.
    if (std::find(staged_updates_.begin(), staged_updates_.end(), id) == staged_updates_.end()) {
      staged_updates_.push_back(id);
    }
    if (!batch_flush_.pending()) {
      batch_flush_ =
          sim_.schedule_after(config_.update_batch_window, [this] { flush_staged_updates(); });
    }
  } else {
    wire::Update u;
    u.object = id;
    u.version = state.version;
    u.timestamp = state.origin_timestamp;
    u.retransmission = retransmission;
    u.value = state.value;
    u.epoch = epoch_;
    ++update_frames_sent_;
    // Encode once; each peer's copy shares the body buffer.
    xkernel::Message frame{wire::encode(u)};
    const std::vector<net::Endpoint>& dst = targets != nullptr ? *targets : peers_;
    for (const net::Endpoint& peer : dst) send_to(peer, frame);
  }

  if (config_.ack_every_update && !retransmission) arm_ack_timeout(id, state.version);
}

void ReplicaServer::flush_staged_updates() {
  if (crashed_ || role_ != Role::kPrimary || peers_.empty()) {
    staged_updates_.clear();
    return;
  }
  if (config_.degradation_enabled) shed_staged_updates();
  wire::UpdateBatch batch;
  batch.entries.reserve(staged_updates_.size());
  for (ObjectId id : staged_updates_) {
    if (!store_.contains(id)) continue;  // deregistered inside the window
    const ObjectState& state = store_.get(id);
    if (state.version == 0) continue;
    wire::UpdateBatchEntry entry;
    entry.object = id;
    entry.version = state.version;
    entry.timestamp = state.origin_timestamp;
    entry.value = state.value;
    batch.entries.push_back(std::move(entry));
  }
  staged_updates_.clear();
  if (batch.entries.empty()) return;
  batch.epoch = epoch_;
  ++update_frames_sent_;
  updates_batched_ += batch.entries.size();
  telemetry::Hub& hub = sim_.telemetry();
  // The frame carries several updates but a stack event attaches to one
  // span: the first coalesced update stands in for the frame (its span
  // threads write → udp-push → net-deliver → apply; siblings still get
  // their own apply events at the backup).
  const telemetry::SpanId span =
      hub.enabled() ? hub.span_for(batch.entries.front().object, batch.entries.front().version)
                    : telemetry::kNoSpan;
  telemetry::ScopedSpan span_scope(hub, span);
  if (hub.enabled()) {
    hub.registry().counter("core.primary.batch_frames").add();
    hub.registry().histogram("core.primary.batch_entries").record_ms(
        static_cast<double>(batch.entries.size()));
    hub.record(span, node(), telemetry::EventKind::kInstant, rtpb_track(node()), "batch-send",
               std::to_string(batch.entries.size()) + " entries");
  }
  flight(sim_, telemetry::FlightKind::kUpdateBatch, node(), batch.entries.front().object,
         batch.entries.front().version, epoch_, span,
         static_cast<std::int64_t>(batch.entries.size()));
  xkernel::Message frame{wire::encode(batch)};
  for (const net::Endpoint& peer : peers_) send_to(peer, frame);
}

void ReplicaServer::shed_staged_updates() {
  if (!degrade_ || staged_updates_.empty()) return;
  const TimePoint now = sim_.now();
  degrade_->on_queue_depth(now, staged_updates_.size());

  // Slack = time until this object's (currently admitted) window is
  // violated at the backup: window − d_i(now).  The shared Metrics holds
  // both sites' timestamps, so the primary can read d_i directly.
  std::vector<std::pair<Duration, ObjectId>> by_slack;
  by_slack.reserve(staged_updates_.size());
  for (ObjectId id : staged_updates_) {
    if (!store_.contains(id)) continue;
    const Duration window = store_.get(id).spec.window();
    const Duration slack = window - metrics_.current_distance(id);
    if (slack <= Duration::zero()) degrade_->on_missed_window(now);
    by_slack.emplace_back(slack, id);
  }
  if (!degrade_->overloaded(now)) return;  // staging order stands

  // Overloaded: ship in time-to-violation order and drop what a fresh
  // client write will supersede before its slack expires (the write lands
  // within one period, ships within another — 2 p_i of margin keeps the
  // drop safe).  The most urgent update always ships.
  std::stable_sort(by_slack.begin(), by_slack.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  telemetry::Hub& hub = sim_.telemetry();
  std::vector<ObjectId> keep;
  keep.reserve(by_slack.size());
  for (const auto& [slack, id] : by_slack) {
    const Duration period = store_.get(id).spec.client_period;
    if (!keep.empty() && slack > period * 2) {
      ++updates_shed_;
      if (hub.enabled()) {
        hub.registry().counter("core.degrade.shed").add();
        hub.record(hub.latest_span(id), node(), telemetry::EventKind::kInstant,
                   rtpb_track(node()), "update-shed",
                   "obj" + std::to_string(id) + " slack " + slack.to_string());
      }
      flight(sim_, telemetry::FlightKind::kShed, node(), id, 0, epoch_, hub.latest_span(id),
             slack.nanos() / 1'000'000);
      continue;
    }
    keep.push_back(id);
  }
  staged_updates_ = std::move(keep);
}

void ReplicaServer::arm_ack_timeout(ObjectId id, std::uint64_t version) {
  auto task_it = update_tasks_.find(id);
  const Duration period =
      task_it != update_tasks_.end() ? task_it->second.period : config_.ping_period;
  AckState& ack = ack_state_[id];
  // An armed deadline sticks: re-arming on every periodic send (one per
  // period, deadline two periods out) would postpone it forever and the
  // ack path would never retransmit while the stream flows.  The pending
  // deadline checks the version it was armed with; the next send arms a
  // fresh one, so every version eventually faces its deadline.
  if (ack.timeout.pending()) return;
  // Fixed mode: the historical period × ack_timeout_periods.  Adaptive
  // mode adds the current RTO on top of one period, so a throttled or
  // latency-inflated link stretches the deadline instead of triggering a
  // retransmission storm into an already-congested queue.
  Duration deadline = period * config_.ack_timeout_periods;
  if (config_.adaptive_timeouts && degrade_ && degrade_->rtt().has_sample()) {
    deadline = std::max(deadline, period + degrade_->rtt().rto());
  }
  ack.timeout = sim_.schedule_after(deadline, [this, id, version] {
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

void ReplicaServer::replicate_registration(ObjectId id) {
  if (peers_.empty()) return;
  const std::uint64_t tid = mint_transfer_id();
  PendingTransfer& pending = pending_transfers_[tid];
  pending.ids = {id};
  for (const net::Endpoint& peer : peers_) pending.awaiting.insert(peer.node);

  wire::StateTransfer st;
  st.transfer_id = tid;
  st.entries.push_back(state_entry_for(id));
  st.constraints = replicated_constraints_;
  st.epoch = epoch_;

  xkernel::Message frame{wire::encode(st)};
  for (const net::Endpoint& peer : peers_) send_to(peer, frame);
  arm_transfer_retry();
}

Duration ReplicaServer::transfer_retry_delay() {
  if (config_.degradation_enabled && transfer_backoff_) {
    return transfer_backoff_->next(rng_);
  }
  return config_.ping_period * 2;
}

void ReplicaServer::arm_transfer_retry() {
  if (transfer_retry_.pending()) return;
  transfer_retry_ =
      sim_.schedule_after(transfer_retry_delay(), [this] { retry_pending_registrations(); });
}

void ReplicaServer::retry_pending_registrations() {
  if (crashed_ || peers_.empty() || pending_transfers_.empty()) return;
  telemetry::Hub& hub = sim_.telemetry();
  for (auto it = pending_transfers_.begin(); it != pending_transfers_.end();) {
    PendingTransfer& pending = it->second;
    ++pending.attempts;
    if (config_.transfer_retry_limit > 0 &&
        pending.attempts > config_.transfer_retry_limit) {
      // The peer never acked across the whole backoff ladder: retrying
      // forever would keep storming a link that is not delivering.  Give
      // up and report the silent peer as suspected-down — the same path a
      // heartbeat declaration takes (deferred remove_peer on a primary).
      for (const net::NodeId n : pending.awaiting) {
        ++transfer_give_ups_;
        RTPB_WARN("rtpb", "transfer %llu to node%u unacked after %u attempts; suspecting peer",
                  static_cast<unsigned long long>(it->first), n, pending.attempts - 1);
        if (hub.enabled()) hub.registry().counter("core.degrade.transfer_give_ups").add();
        on_peer_dead(n);
      }
      it = pending_transfers_.erase(it);
      continue;
    }
    if (pending.delta) {
      // Incremental-rejoin retry: re-encode the dirty set as a kStateDelta
      // with the SAME transfer id, so the receiver's per-sender reorder
      // guard treats the retry exactly like the original.
      wire::StateDelta sd;
      sd.transfer_id = it->first;
      for (ObjectId id : pending.ids) {
        if (store_.contains(id)) sd.entries.push_back(state_entry_for(id));
      }
      sd.constraints = replicated_constraints_;
      sd.epoch = epoch_;
      xkernel::Message frame{wire::encode(sd)};
      for (const net::Endpoint& peer : peers_) {
        if (pending.awaiting.contains(peer.node)) send_to(peer, frame);
      }
      ++it;
      continue;
    }
    wire::StateTransfer st;
    st.transfer_id = it->first;
    for (ObjectId id : pending.ids) {
      if (store_.contains(id)) st.entries.push_back(state_entry_for(id));
    }
    st.constraints = replicated_constraints_;
    st.epoch = epoch_;
    xkernel::Message frame{wire::encode(st)};
    // Only peers that have not acknowledged yet need the retry.
    for (const net::Endpoint& peer : peers_) {
      if (pending.awaiting.contains(peer.node)) send_to(peer, frame);
    }
    ++it;
  }
  if (pending_transfers_.empty()) {
    if (transfer_backoff_) transfer_backoff_->reset();
    return;
  }
  transfer_retry_ =
      sim_.schedule_after(transfer_retry_delay(), [this] { retry_pending_registrations(); });
  if (hub.enabled() && transfer_backoff_) {
    hub.registry().gauge("core.degrade.backoff_level")
        .set(static_cast<double>(transfer_backoff_->level()));
  }
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
  if (sim_.trace().enabled()) {
    sim_.trace().record(sim_.now(), sim::TraceCategory::kService, "promote",
                        "node" + std::to_string(node()) + " epoch" + std::to_string(epoch_));
  }
  {
    telemetry::Hub& hub = sim_.telemetry();
    if (hub.enabled()) {
      hub.registry().counter("core.failovers").add();
      hub.registry().gauge("core.epoch").set(static_cast<double>(epoch_));
      hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
                 "promote", "epoch " + std::to_string(epoch_));
    }
  }
  flight(sim_, telemetry::FlightKind::kRoleChange, node(), 0, 0, epoch_, 0, /*arg=*/1,
         "promote");
  flight(sim_, telemetry::FlightKind::kEpoch, node(), 0, 0, epoch_);
  clear_peers();  // the old primary is gone
  for (auto& [id, w] : watchdogs_) w.timer.cancel();
  watchdogs_.clear();

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
  for (const auto& [id, seq] : qos_applied_seq_) {
    next_qos_seq_ = std::max(next_qos_seq_, seq + 1);
  }
  downgrades_.clear();
  arm_qos_tick();

  RTPB_INFO("rtpb", "backup promoted to primary at %s (epoch %llu)",
            sim_.now().to_string().c_str(), static_cast<unsigned long long>(epoch_));
  // Bring up the local (backup) client application via up-call.
  if (hooks_.on_promoted) hooks_.on_promoted();
}

void ReplicaServer::step_down(std::uint64_t new_epoch) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  ++step_downs_;
  RTPB_INFO("rtpb", "primary@node%u deposed: saw epoch %llu > own %llu; stepping down", node(),
            static_cast<unsigned long long>(new_epoch),
            static_cast<unsigned long long>(epoch_));
  if (sim_.trace().enabled()) {
    sim_.trace().record(sim_.now(), sim::TraceCategory::kService, "step-down",
                        "node" + std::to_string(node()) + " epoch" + std::to_string(new_epoch));
  }
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().counter("core.epoch.step_downs").add();
    hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "step-down", "deposed by epoch " + std::to_string(new_epoch));
  }
  role_ = Role::kBackup;
  epoch_ = new_epoch;
  durable_log_meta();
  flight(sim_, telemetry::FlightKind::kRoleChange, node(), 0, 0, epoch_, 0, /*arg=*/0,
         "step-down");
  flight(sim_, telemetry::FlightKind::kEpoch, node(), 0, 0, epoch_);
  // Tear down the primary-side machinery.  The deposed replica stays up
  // as an ORPHANED backup: its store may hold a divergent suffix the new
  // primary never saw, so it must not rejoin the chain until a state
  // transfer from the new primary re-peers it.
  for (auto& [id, task] : update_tasks_) cpu_.remove_task(task.task);
  update_tasks_.clear();
  for (auto& [id, a] : ack_state_) a.timeout.cancel();
  ack_state_.clear();
  transfer_retry_.cancel();
  qos_tick_.cancel();
  downgrades_.clear();
  batch_flush_.cancel();
  staged_updates_.clear();
  pending_transfers_.clear();
  clear_peers();
  if (hooks_.on_deposed) hooks_.on_deposed();
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
  if (qos_tick_.pending()) return;
  qos_tick_ = sim_.schedule_after(millis(10), [this] { qos_tick(); });
}

void ReplicaServer::qos_tick() {
  if (crashed_ || role_ != Role::kPrimary || !degrade_) return;
  const TimePoint now = sim_.now();

  if (!peers_.empty()) {
    // Downgrade pass: an object more than half-way through its window
    // while the system is overloaded — or nearly fully through it under
    // any conditions — is about to violate.  Renegotiate BEFORE that
    // happens so the violation-to-be is inside an announced window.
    for (const ObjectId id : store_.ids()) {
      if (downgrades_.contains(id)) continue;
      const ObjectSpec& spec = store_.get(id).spec;
      const Duration window = spec.window();
      if (window <= Duration::zero()) continue;
      const Duration dist = metrics_.current_distance(id);
      const bool imminent = dist > window.scaled(0.75);
      // An imminent violation is overload evidence in itself (the update
      // stream fell behind the window) — feed the detector so shedding
      // and hysteresis see it too.
      if (imminent) degrade_->on_missed_window(now);
      if ((degrade_->overloaded(now) && dist > window / 2) || imminent) {
        downgrade_object(id);
      }
    }
  }

  // Restore pass: original QoS comes back only after the overload has
  // been quiet for the hysteresis hold (floored at one failure-detection
  // period so restore can never flap within one detector cycle) AND the
  // backup has genuinely caught back up into the original window.
  const Duration hold = std::max(config_.degrade_restore_hold, config_.ping_period);
  for (auto it = downgrades_.begin(); it != downgrades_.end();) {
    const ObjectId id = it->first;
    const QosState& qos = it->second;
    const bool calm = !degrade_->overloaded(now) && degrade_->calm_for(now) >= hold;
    const bool aged = now - qos.since >= hold;
    const bool caught_up =
        store_.contains(id) &&
        metrics_.current_distance(id) + qos.original.client_period < qos.original.window();
    ++it;  // restore_object erases the entry
    if (calm && aged && caught_up) restore_object(id);
  }

  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().gauge("core.degrade.active_downgrades")
        .set(static_cast<double>(downgrades_.size()));
    hub.registry().gauge("core.degrade.overloaded")
        .set(degrade_->overloaded(now) ? 1.0 : 0.0);
  }
  arm_qos_tick();
}

bool ReplicaServer::downgrade_object(ObjectId id) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  if (!store_.contains(id) || downgrades_.contains(id) || !admission_) return false;
  const ObjectSpec original = store_.get(id).spec;
  const Duration original_period = admission_->update_period(id);

  // Loosen δ_iB by degrade_window_factor windows, then run the result
  // through admission (falling back to its §4.2 suggestion machinery if
  // the straight relaxation is still infeasible).  The object must leave
  // the admitted set first — suggest/admit evaluate against it.
  ObjectSpec loosened = original;
  loosened.delta_backup =
      original.delta_primary + original.window() * config_.degrade_window_factor;
  admission_->remove(id);
  AdmissionResult result = admission_->admit(loosened);
  if (!result.ok()) {
    if (auto suggestion = admission_->suggest_alternative(loosened)) {
      loosened = *suggestion;
      result = admission_->admit(loosened);
    }
  }
  if (!result.ok()) {
    // No feasible relaxation: put the original back and keep limping.
    (void)admission_->admit(original);
    sync_update_tasks();
    return false;
  }

  store_.update_spec(id, loosened);
  metrics_.track_object(id, loosened.window(), loosened.client_period);
  sync_update_tasks();

  QosState qos;
  qos.original = original;
  qos.original_period = original_period;
  qos.qos_seq = next_qos_seq_++;
  qos.since = sim_.now();
  downgrades_[id] = qos;
  qos_applied_seq_[id] = qos.qos_seq;
  qos_notice_at_[id] = sim_.now();
  ++downgrades_sent_;

  wire::ConstraintDowngrade d;
  d.object = id;
  d.delta_primary = loosened.delta_primary;
  d.delta_backup = loosened.delta_backup;
  d.update_period = admission_->update_period(id);
  d.qos_seq = qos.qos_seq;
  d.epoch = epoch_;
  xkernel::Message frame{wire::encode(d)};
  for (const net::Endpoint& peer : peers_) send_to(peer, frame);

  RTPB_INFO("rtpb", "QoS downgrade: object %u window %s -> %s (r=%s, seq %llu)", id,
            original.window().to_string().c_str(), loosened.window().to_string().c_str(),
            d.update_period.to_string().c_str(),
            static_cast<unsigned long long>(d.qos_seq));
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().counter("core.degrade.downgrades").add();
    hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "qos-downgrade",
               "obj" + std::to_string(id) + " window " + loosened.window().to_string());
  }
  flight(sim_, telemetry::FlightKind::kQosDowngrade, node(), id, 0, epoch_, 0,
         loosened.window().nanos() / 1'000'000);
  if (hooks_.on_qos_changed) hooks_.on_qos_changed(id, loosened);
  return true;
}

bool ReplicaServer::restore_object(ObjectId id) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  auto it = downgrades_.find(id);
  if (it == downgrades_.end() || !store_.contains(id) || !admission_) return false;
  const ObjectSpec original = it->second.original;

  admission_->remove(id);
  const AdmissionResult result = admission_->admit(original);
  if (!result.ok()) {
    // The original no longer fits (e.g. the admitted set grew while
    // degraded): stay on the downgraded QoS rather than over-promise.
    const ObjectSpec downgraded = store_.get(id).spec;
    (void)admission_->admit(downgraded);
    sync_update_tasks();
    return false;
  }

  store_.update_spec(id, original);
  metrics_.track_object(id, original.window(), original.client_period);
  sync_update_tasks();

  const std::uint64_t seq = next_qos_seq_++;
  downgrades_.erase(it);
  qos_applied_seq_[id] = seq;
  qos_notice_at_[id] = sim_.now();
  ++restores_sent_;

  wire::ConstraintRestore rs;
  rs.object = id;
  rs.delta_backup = original.delta_backup;
  rs.update_period = admission_->update_period(id);
  rs.qos_seq = seq;
  rs.epoch = epoch_;
  xkernel::Message frame{wire::encode(rs)};
  for (const net::Endpoint& peer : peers_) send_to(peer, frame);

  RTPB_INFO("rtpb", "QoS restore: object %u window back to %s (r=%s, seq %llu)", id,
            original.window().to_string().c_str(), rs.update_period.to_string().c_str(),
            static_cast<unsigned long long>(seq));
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().counter("core.degrade.restores").add();
    hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "qos-restore", "obj" + std::to_string(id));
  }
  flight(sim_, telemetry::FlightKind::kQosRestore, node(), id, 0, epoch_, 0,
         original.window().nanos() / 1'000'000);
  if (hooks_.on_qos_changed) hooks_.on_qos_changed(id, original);
  return true;
}

TimePoint ReplicaServer::qos_last_notice_at(ObjectId id) const {
  auto it = qos_notice_at_.find(id);
  return it != qos_notice_at_.end() ? it->second : TimePoint::zero();
}

void ReplicaServer::recruit_backup(net::Endpoint new_backup) {
  RTPB_EXPECTS(role_ == Role::kPrimary);
  RTPB_EXPECTS(!crashed_);
  if (std::find(peers_.begin(), peers_.end(), new_backup) == peers_.end()) {
    add_peer(new_backup);
  }

  const std::uint64_t tid = mint_transfer_id();
  std::vector<ObjectId> ids = store_.ids();
  PendingTransfer& pending = pending_transfers_[tid];
  pending.ids = ids;
  pending.awaiting.insert(new_backup.node);

  wire::StateTransfer st;
  st.transfer_id = tid;
  for (ObjectId id : ids) st.entries.push_back(state_entry_for(id));
  st.constraints = replicated_constraints_;
  st.epoch = epoch_;
  send_to(new_backup, wire::encode(st));
  arm_transfer_retry();
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
  // Non-const: batch entry values are moved out during apply.
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
    ++epoch_rejections_;
    const char* type_name = wire::msg_type_name(wire::type_of(*decoded));
    telemetry::Hub& hub = sim_.telemetry();
    if (hub.enabled()) {
      hub.registry().counter("core.epoch.rejected").add();
      hub.record(hub.current_span(), node(), telemetry::EventKind::kInstant, rtpb_track(node()),
                 "epoch-reject",
                 std::string(type_name) + " epoch " + std::to_string(msg_epoch) + " < " +
                     std::to_string(epoch_));
    }
    RTPB_DEBUG("rtpb", "%s from node%u fenced: epoch %llu < %llu", type_name, from.node,
               static_cast<unsigned long long>(msg_epoch),
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
    ++role_rejections_;
    if (hub.enabled()) {
      hub.registry().counter("core.role_rejected").add();
      hub.record(hub.current_span(), node(), telemetry::EventKind::kInstant, rtpb_track(node()),
                 "update-role-reject", obj_tag(u.object, u.version));
    }
    return;
  }
  if (!store_.contains(u.object)) {
    // Registration hasn't reached us yet; the acked transfer will retry.
    ++stale_updates_;
    if (hub.enabled()) {
      hub.registry().counter("core.backup.unknown_object").add();
      hub.record(hub.current_span(), node(), telemetry::EventKind::kInstant, rtpb_track(node()),
                 "update-unknown", obj_tag(u.object, u.version));
    }
    return;
  }
  // Log-before-apply (backup side): the version must be durable before
  // the store — and the ack below — can expose it.  Staleness is gated
  // here first so duplicate/old versions never hit the WAL.
  if (u.version > store_.get(u.object).version &&
      !durable_log_update(u.object, u.version, u.timestamp, u.value)) {
    return;  // fail-stopped: no apply, no ack
  }
  const bool applied = store_.apply(u.object, u.version, u.timestamp, u.value, sim_.now());
  if (applied) {
    ++updates_applied_;
    if (u.epoch != 0 && u.epoch < epoch_) {
      // Only reachable with fencing disabled: we just applied state from
      // a deposed primary's incarnation.  The chaos no-cross-epoch-apply
      // oracle trips on this counter.
      ++cross_epoch_applies_;
      if (hub.enabled()) hub.registry().counter("core.epoch.cross_epoch_applies").add();
    }
    metrics_.on_backup_apply(u.object, u.timestamp, sim_.now());
    // Temporal-slack SLO sample: staleness at apply vs the negotiated
    // window δ.  Fed inline (no timers) so it stays a pure observer.
    telemetry::SloMonitor& slo = sim_.telemetry().slo();
    if (slo.enabled()) {
      slo.observe(u.object, sim_.now(), sim_.now() - u.timestamp,
                  metrics_.window_of(u.object));
    }
    flight(sim_, telemetry::FlightKind::kUpdateApply, node(), u.object, u.version, epoch_,
           hub.enabled() ? hub.span_for(u.object, u.version) : 0);
  } else {
    ++stale_updates_;
  }
  if (hub.enabled()) {
    const telemetry::SpanId span = hub.span_for(u.object, u.version);
    if (applied) {
      hub.registry().counter("core.backup.applies").add();
      hub.registry().histogram("core.backup.apply_latency_ms").record(sim_.now() - u.timestamp);
      hub.record(span, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
                 "update-apply", obj_tag(u.object, u.version));
    } else {
      hub.registry().counter("core.backup.stale").add();
      hub.record(span, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
                 "update-stale", obj_tag(u.object, u.version));
    }
  }
  arm_watchdog(u.object);
  if (config_.ack_every_update) {
    ++acks_sent_;
    send_to(from, wire::encode(wire::UpdateAck{u.object, u.version, epoch_}));
  }
  maybe_checkpoint();
}

void ReplicaServer::handle(wire::UpdateBatch& b, net::Endpoint from) {
  // Entries apply strictly in batch order, each through the single-update
  // path so role guards, staleness accounting, watchdogs and (in ack mode)
  // per-object acks behave exactly as for kUpdate frames.
  for (wire::UpdateBatchEntry& entry : b.entries) {
    wire::Update u;
    u.object = entry.object;
    u.version = entry.version;
    u.timestamp = entry.timestamp;
    u.retransmission = false;
    u.value = std::move(entry.value);
    u.epoch = b.epoch;
    handle(u, from);
  }
}

void ReplicaServer::handle(const wire::UpdateAck& a, net::Endpoint from) {
  if (role_ != Role::kPrimary) return;
  auto it = peer_state_.find(from.node);
  if (it == peer_state_.end()) return;  // ack from a node we no longer replicate to
  std::uint64_t& acked = it->second.acked[a.object];
  acked = std::max(acked, a.version);
  if (sim_.telemetry().enabled()) {
    sim_.telemetry().registry().counter(peer_counter(from.node, "acks")).add();
  }
  flight(sim_, telemetry::FlightKind::kAck, node(), a.object, a.version, epoch_, 0,
         from.node);
}

void ReplicaServer::handle(const wire::RetransmitRequest& r,
                                              net::Endpoint /*from*/) {
  if (role_ != Role::kPrimary) return;
  if (!store_.contains(r.object)) return;
  if (store_.get(r.object).version <= r.have_version) return;  // backup is current
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().counter("core.primary.retransmit_requests").add();
    hub.record(hub.span_for(r.object, store_.get(r.object).version), node(),
               telemetry::EventKind::kInstant, rtpb_track(node()), "retx-request",
               obj_tag(r.object, r.have_version) + " held by backup");
  }
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

void ReplicaServer::handle(const wire::StateTransfer& st, net::Endpoint from) {
  telemetry::Hub& hub = sim_.telemetry();
  if (role_ != Role::kBackup) {
    // Role guard: a primary never takes state from another primary.
    ++role_rejections_;
    if (hub.enabled()) hub.registry().counter("core.role_rejected").add();
    return;
  }
  // Re-peer: a transfer from a node we do not follow is a recruitment —
  // after a failover the new primary recruits the surviving backups, and
  // they must stop heartbeating the dead (or deposed) old primary.
  const bool known_peer =
      std::find_if(peers_.begin(), peers_.end(),
                   [&](const net::Endpoint& e) { return e.node == from.node; }) != peers_.end();
  if (!known_peer) follow_new_primary(from);

  // Reorder guard: per-sender transfer ids are monotone.  Object entries
  // are safe to apply idempotently from ANY transfer (versions gate the
  // store), but the constraint table and watchdog expectations are
  // last-writer-wins snapshots — a delayed retry of an older transfer
  // must not clobber the newer state we already hold.
  std::uint64_t& high_water = transfer_high_water_[from.node];
  const bool newest = st.transfer_id > high_water;
  if (newest) high_water = st.transfer_id;
  if (hub.enabled()) {
    hub.registry().counter("core.backup.state_transfers").add();
    if (!newest) hub.registry().counter("core.backup.state_transfers_stale").add();
    hub.record(hub.current_span(), node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "state-transfer",
               std::to_string(st.entries.size()) + " entries" + (newest ? "" : " (stale id)"));
  }
  for (const auto& entry : st.entries) {
    if (!store_.contains(entry.spec.id)) {
      if (!durable_log_insert(entry.spec)) return;  // fail-stopped
      store_.insert(entry.spec);
      metrics_.track_object(entry.spec.id, entry.spec.window(), entry.spec.client_period);
    } else if (newest) {
      // A rejoiner may hold a stale spec (e.g. its recovered image
      // predates a QoS downgrade the sender still runs under): the
      // sender's spec is the admitted one, adopt it like the constraint
      // table — a last-writer-wins snapshot behind the reorder guard.
      store_.update_spec(entry.spec.id, entry.spec);
      metrics_.track_object(entry.spec.id, entry.spec.window(), entry.spec.client_period);
    }
    if (entry.version > 0) {
      if (entry.version > store_.get(entry.spec.id).version &&
          !durable_log_update(entry.spec.id, entry.version, entry.timestamp, entry.value)) {
        return;  // fail-stopped: no apply, no ack
      }
      if (store_.apply(entry.spec.id, entry.version, entry.timestamp, entry.value, sim_.now())) {
        if (st.epoch != 0 && st.epoch < epoch_) {
          ++cross_epoch_applies_;
          if (hub.enabled()) hub.registry().counter("core.epoch.cross_epoch_applies").add();
        }
        metrics_.on_backup_apply(entry.spec.id, entry.timestamp, sim_.now());
      }
    }
    if (newest) {
      WatchdogState& w = watchdogs_[entry.spec.id];
      w.expected_period = entry.update_period;
      arm_watchdog(entry.spec.id);
    }
  }
  if (newest) replicated_constraints_ = st.constraints;
  // A full transfer also satisfies a pending resync (the fallback path).
  resync_pending_ = false;
  resync_retry_.cancel();
  // Always ack — even a stale transfer id — so the sender's retry loop
  // terminates.
  send_to(from, wire::encode(wire::StateTransferAck{st.transfer_id, epoch_}));
  maybe_checkpoint();
}

void ReplicaServer::handle(const wire::StateTransferAck& ack,
                                              net::Endpoint from) {
  if (role_ != Role::kPrimary) return;
  auto it = pending_transfers_.find(ack.transfer_id);
  if (it == pending_transfers_.end()) return;
  it->second.awaiting.erase(from.node);
  const bool was_pending = it->second.awaiting.empty();
  if (was_pending) pending_transfers_.erase(it);
  if (was_pending && pending_transfers_.empty()) {
    transfer_retry_.cancel();
    if (transfer_backoff_) transfer_backoff_->reset();
  }
  if (was_pending && !peers_.empty()) {
    // Recruited backup (or fresh registration) confirmed: (re)start
    // replication machinery.
    sync_update_tasks();
    start_heartbeat();
    if (hooks_.on_backup_recruited) hooks_.on_backup_recruited();
  }
}

void ReplicaServer::handle(const wire::ConstraintDowngrade& d,
                                                net::Endpoint from) {
  (void)from;
  telemetry::Hub& hub = sim_.telemetry();
  if (role_ != Role::kBackup) {
    ++role_rejections_;
    if (hub.enabled()) hub.registry().counter("core.role_rejected").add();
    return;
  }
  if (!store_.contains(d.object)) return;
  // Reorder guard: per-object renegotiation seqs are monotone.  A delayed
  // duplicate of an older downgrade (or a downgrade arriving after the
  // restore that undid it) must not clobber the newer QoS.
  std::uint64_t& applied = qos_applied_seq_[d.object];
  if (d.qos_seq <= applied) return;
  applied = d.qos_seq;
  next_qos_seq_ = std::max(next_qos_seq_, d.qos_seq + 1);

  ObjectSpec spec = store_.get(d.object).spec;
  spec.delta_primary = d.delta_primary;
  spec.delta_backup = d.delta_backup;
  store_.update_spec(d.object, spec);
  metrics_.track_object(d.object, spec.window(), spec.client_period);
  WatchdogState& w = watchdogs_[d.object];
  w.expected_period = d.update_period;
  arm_watchdog(d.object);
  qos_notice_at_[d.object] = sim_.now();
  ++downgrades_received_;
  RTPB_INFO("rtpb", "backup@node%u applied QoS downgrade: object %u window %s (seq %llu)", node(),
            d.object, spec.window().to_string().c_str(),
            static_cast<unsigned long long>(d.qos_seq));
  if (hub.enabled()) {
    hub.registry().counter("core.degrade.downgrades_received").add();
    hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "qos-downgrade-recv",
               "obj" + std::to_string(d.object) + " window " + spec.window().to_string());
  }
}

void ReplicaServer::handle(const wire::ConstraintRestore& rs,
                                              net::Endpoint from) {
  (void)from;
  telemetry::Hub& hub = sim_.telemetry();
  if (role_ != Role::kBackup) {
    ++role_rejections_;
    if (hub.enabled()) hub.registry().counter("core.role_rejected").add();
    return;
  }
  if (!store_.contains(rs.object)) return;
  std::uint64_t& applied = qos_applied_seq_[rs.object];
  if (rs.qos_seq <= applied) return;
  applied = rs.qos_seq;
  next_qos_seq_ = std::max(next_qos_seq_, rs.qos_seq + 1);

  ObjectSpec spec = store_.get(rs.object).spec;
  spec.delta_backup = rs.delta_backup;
  store_.update_spec(rs.object, spec);
  metrics_.track_object(rs.object, spec.window(), spec.client_period);
  WatchdogState& w = watchdogs_[rs.object];
  w.expected_period = rs.update_period;
  arm_watchdog(rs.object);
  qos_notice_at_[rs.object] = sim_.now();
  RTPB_INFO("rtpb", "backup@node%u applied QoS restore: object %u window %s (seq %llu)", node(),
            rs.object, spec.window().to_string().c_str(),
            static_cast<unsigned long long>(rs.qos_seq));
  if (hub.enabled()) {
    hub.registry().counter("core.degrade.restores_received").add();
    hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "qos-restore-recv", "obj" + std::to_string(rs.object));
  }
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
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().counter("core.shard.frontier_received").add();
    hub.record(hub.current_span(), node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "frontier-recv", "shard" + std::to_string(f.shard));
  }
}

TimePoint ReplicaServer::peer_frontier(std::uint32_t shard) const {
  auto it = peer_frontiers_.find(shard);
  return it != peer_frontiers_.end() ? it->second : TimePoint{};
}

void ReplicaServer::arm_watchdog(ObjectId id) {
  if (role_ != Role::kBackup) return;
  auto it = watchdogs_.find(id);
  if (it == watchdogs_.end()) return;
  WatchdogState& w = it->second;
  if (w.expected_period <= Duration::zero()) return;
  w.timer.cancel();
  w.timer = sim_.schedule_after(w.expected_period * config_.watchdog_factor, [this, id] {
    if (crashed_ || role_ != Role::kBackup) return;
    const auto state = store_.find(id);
    if (!state) return;
    ++nacks_sent_;
    telemetry::Hub& hub = sim_.telemetry();
    if (hub.enabled()) {
      hub.registry().counter("core.backup.nacks").add();
      // Blame the newest span the primary minted for this object — that is
      // the update whose absence tripped the watchdog.
      hub.record(hub.latest_span(id), node(), telemetry::EventKind::kInstant,
                 rtpb_track(node()), "watchdog-nack", obj_tag(id, state->version) + " held");
    }
    flight(sim_, telemetry::FlightKind::kRetransmitReq, node(), id, state->version, epoch_,
           hub.enabled() ? hub.latest_span(id) : 0);
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
  if (sim_.telemetry().enabled()) {
    sim_.telemetry().registry().counter("core.store.wal_records").add();
  }
  return true;
}

bool ReplicaServer::durable_log_update(ObjectId id, std::uint64_t version, TimePoint origin_ts,
                                       const Bytes& value) {
  if (storage_ == nullptr) return true;
  // `timestamp` is this site's apply time — exactly what store_.apply()
  // stamps next — so the recovered state matches the in-memory one
  // byte-for-byte.
  if (!storage_->log_write(id, version, sim_.now(), origin_ts, value)) {
    fail_stop("wal-write");
    return false;
  }
  if (sim_.telemetry().enabled()) {
    sim_.telemetry().registry().counter("core.store.wal_records").add();
  }
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
  std::vector<ObjectState> states;
  states.reserve(store_.size());
  store_.for_each([&states](const ObjectState& s) { states.push_back(s); });
  if (!storage_->checkpoint(states, epoch_, next_transfer_id_)) {
    fail_stop("checkpoint");
    return;
  }
  if (sim_.telemetry().enabled()) {
    sim_.telemetry().registry().counter("core.store.checkpoints").add();
  }
}

void ReplicaServer::fail_stop(const char* what) {
  if (crashed_) return;
  RTPB_WARN("rtpb", "%s@node%u: storage append failed (%s); fail-stop", role_name(role_),
            node(), what);
  if (sim_.telemetry().enabled()) {
    sim_.telemetry().registry().counter("core.store.fail_stops").add();
  }
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

  // Durable-recovery oracle: every version the dead incarnation's store
  // held (= could have acked) must be in the recovered image.  Under
  // log-before-apply this count stays 0; a torn WAL tail only ever holds
  // writes that were never applied or acked.
  for (const auto& [id, acked_version] : acked_at_crash_) {
    std::uint64_t have = 0;
    if (const auto s = store_.find(id)) have = s->version;
    if (have < acked_version) recovery_lost_updates_ += acked_version - have;
  }
  acked_at_crash_.clear();

  // Shed every trace of the dead incarnation's runtime machinery.  The
  // CPU restart below re-arms all registered tasks, so the old update
  // tasks must be removed from the scheduler first.
  for (auto& [id, task] : update_tasks_) cpu_.remove_task(task.task);
  update_tasks_.clear();
  ack_state_.clear();
  staged_updates_.clear();
  watchdogs_.clear();  // timers were cancelled at crash()
  pending_transfers_.clear();
  transfer_high_water_.clear();
  downgrades_.clear();
  // QoS renegotiation is not durable: the recovered specs are whatever
  // the WAL image holds, which predates any notice this incarnation
  // applied.  Claiming the old seqs in the resync vector would hide a
  // spec-stale object from the dirty set — report 0 and re-learn.
  qos_applied_seq_.clear();
  clear_peers();

  // The rejoiner always comes back as an ORPHANED, non-successor backup —
  // even a crashed primary.  Its recovered epoch may predate a failover
  // it slept through, so it must not claim any role until the service
  // re-points it at the acting primary and a transfer re-peers it.
  role_ = Role::kBackup;
  successor_ = false;
  crashed_ = false;
  resync_attempts_ = 0;
  resync_pending_ = false;
  ++recoveries_;

  network_.set_node_up(node(), true);
  cpu_.start(sim_.now());

  if (sim_.trace().enabled()) {
    sim_.trace().record(sim_.now(), sim::TraceCategory::kService, "restart",
                        "node" + std::to_string(node()) + " epoch" + std::to_string(epoch_) +
                            " objects" + std::to_string(store_.size()));
  }
  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    hub.registry().counter("core.store.recoveries").add();
    hub.registry().counter("core.store.replayed_wal_records")
        .add(static_cast<std::uint64_t>(rec.wal_records));
    if (rec.wal_torn) hub.registry().counter("core.store.torn_wal_tails").add();
    if (rec.checkpoint_torn) hub.registry().counter("core.store.torn_checkpoint_tails").add();
    hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "restart",
               std::to_string(rec.wal_records) + " wal records on " +
                   std::to_string(rec.checkpoint_records) + " checkpoint(s)");
  }
  flight(sim_, telemetry::FlightKind::kRoleChange, node(), 0, 0, epoch_, 0,
         static_cast<std::int64_t>(rec.wal_records), "restart");
  RTPB_INFO("rtpb",
            "node%u restarted from durable state: %zu object(s), epoch %llu, "
            "%zu wal record(s)%s",
            node(), store_.size(), static_cast<unsigned long long>(epoch_), rec.wal_records,
            rec.wal_torn ? " (torn tail discarded)" : "");
}

void ReplicaServer::request_resync() {
  if (crashed_ || role_ != Role::kBackup || peers_.empty()) return;
  if (config_.transfer_retry_limit > 0 && resync_attempts_ > config_.transfer_retry_limit) {
    RTPB_WARN("rtpb", "backup@node%u gave up resyncing after %u attempts", node(),
              resync_attempts_ - 1);
    resync_pending_ = false;
    return;
  }
  wire::ResyncRequest rq;
  store_.for_each([this, &rq](const ObjectState& s) {
    const auto q = qos_applied_seq_.find(s.spec.id);
    rq.have.push_back(wire::ResyncEntry{
        s.spec.id, s.version, q != qos_applied_seq_.end() ? q->second : 0});
  });
  // Deliberately the epoch-0 bootstrap wildcard (see wire.hpp): the
  // recovered epoch may be stale and a fenced resync would strand us.
  ++resync_requests_sent_;
  ++resync_attempts_;
  resync_pending_ = true;
  if (sim_.telemetry().enabled()) {
    sim_.telemetry().registry().counter("core.store.resync_requests").add();
  }
  send_to(peers_.front(), wire::encode(rq));
  // Re-ask until a kStateDelta or full kStateTransfer lands.
  resync_retry_.cancel();
  resync_retry_ = sim_.schedule_after(config_.ping_period * 2, [this] {
    if (resync_pending_) request_resync();
  });
}

void ReplicaServer::handle(const wire::ResyncRequest& rq, net::Endpoint from) {
  telemetry::Hub& hub = sim_.telemetry();
  if (role_ != Role::kPrimary) {
    ++role_rejections_;
    if (hub.enabled()) hub.registry().counter("core.role_rejected").add();
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
    const auto q = qos_applied_seq_.find(s.spec.id);
    const std::uint64_t qos_here = q != qos_applied_seq_.end() ? q->second : 0;
    if (it == have.end() || it->second->version < s.version ||
        it->second->qos_seq < qos_here) {
      dirty.push_back(s.spec.id);
    }
  });

  if (rq.have.empty() || dirty.size() == store_.size()) {
    // The delta saves nothing (empty vector, or everything is dirty):
    // fall back to the full-transfer recruitment path.
    ++resync_fulls_sent_;
    if (hub.enabled()) hub.registry().counter("core.store.resync_fulls").add();
    recruit_backup(from);
    return;
  }

  if (std::find_if(peers_.begin(), peers_.end(), [&](const net::Endpoint& e) {
        return e.node == from.node;
      }) == peers_.end()) {
    add_peer(from);
  }

  const std::uint64_t tid = mint_transfer_id();
  PendingTransfer& pending = pending_transfers_[tid];
  pending.ids = dirty;
  pending.awaiting.insert(from.node);
  pending.delta = true;

  wire::StateDelta sd;
  sd.transfer_id = tid;
  for (ObjectId id : dirty) sd.entries.push_back(state_entry_for(id));
  sd.constraints = replicated_constraints_;
  sd.epoch = epoch_;
  ++resync_deltas_sent_;
  delta_entries_sent_ += dirty.size();
  if (hub.enabled()) {
    hub.registry().counter("core.store.resync_deltas").add();
    hub.registry().counter("core.store.delta_entries")
        .add(static_cast<std::uint64_t>(dirty.size()));
    hub.record(telemetry::kNoSpan, node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "resync-delta", std::to_string(dirty.size()) + "/" +
                                   std::to_string(store_.size()) + " dirty to node" +
                                   std::to_string(from.node));
  }
  RTPB_INFO("rtpb", "primary@node%u resyncs node%u incrementally: %zu/%zu object(s) dirty",
            node(), from.node, dirty.size(), store_.size());
  send_to(from, wire::encode(sd));
  arm_transfer_retry();
}

void ReplicaServer::handle(wire::StateDelta& sd, net::Endpoint from) {
  telemetry::Hub& hub = sim_.telemetry();
  if (role_ != Role::kBackup) {
    ++role_rejections_;
    if (hub.enabled()) hub.registry().counter("core.role_rejected").add();
    return;
  }
  // Identical discipline to the kStateTransfer handler: re-peer on an unknown
  // sender, share the per-sender transfer-id reorder guard (deltas and
  // full transfers are totally ordered against each other), version-gate
  // every apply, always ack.
  const bool known_peer =
      std::find_if(peers_.begin(), peers_.end(),
                   [&](const net::Endpoint& e) { return e.node == from.node; }) != peers_.end();
  if (!known_peer) follow_new_primary(from);

  std::uint64_t& high_water = transfer_high_water_[from.node];
  const bool newest = sd.transfer_id > high_water;
  if (newest) high_water = sd.transfer_id;
  if (hub.enabled()) {
    hub.registry().counter("core.backup.state_deltas").add();
    if (!newest) hub.registry().counter("core.backup.state_deltas_stale").add();
    hub.record(hub.current_span(), node(), telemetry::EventKind::kInstant, rtpb_track(node()),
               "state-delta",
               std::to_string(sd.entries.size()) + " entries" + (newest ? "" : " (stale id)"));
  }
  for (wire::StateEntry& entry : sd.entries) {
    if (!store_.contains(entry.spec.id)) {
      if (!durable_log_insert(entry.spec)) return;  // fail-stopped
      store_.insert(entry.spec);
      metrics_.track_object(entry.spec.id, entry.spec.window(), entry.spec.client_period);
    } else if (newest) {
      // Adopt the sender's (possibly QoS-downgraded) spec — see the
      // full-transfer handler.
      store_.update_spec(entry.spec.id, entry.spec);
      metrics_.track_object(entry.spec.id, entry.spec.window(), entry.spec.client_period);
    }
    if (entry.version > 0) {
      if (entry.version > store_.get(entry.spec.id).version &&
          !durable_log_update(entry.spec.id, entry.version, entry.timestamp, entry.value)) {
        return;  // fail-stopped: no apply, no ack
      }
      if (store_.apply(entry.spec.id, entry.version, entry.timestamp, std::move(entry.value),
                       sim_.now())) {
        if (sd.epoch != 0 && sd.epoch < epoch_) {
          ++cross_epoch_applies_;
          if (hub.enabled()) hub.registry().counter("core.epoch.cross_epoch_applies").add();
        }
        metrics_.on_backup_apply(entry.spec.id, entry.timestamp, sim_.now());
      }
    }
    if (newest) {
      WatchdogState& w = watchdogs_[entry.spec.id];
      w.expected_period = entry.update_period;
      arm_watchdog(entry.spec.id);
    }
  }
  if (newest) replicated_constraints_ = sd.constraints;
  resync_pending_ = false;
  resync_retry_.cancel();
  send_to(from, wire::encode(wire::StateTransferAck{sd.transfer_id, epoch_}));
  maybe_checkpoint();
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
  auto it = transfer_high_water_.find(sender);
  return it != transfer_high_water_.end() ? it->second : 0;
}

}  // namespace rtpb::core
