#include "explore/explorer.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <thread>
#include <utility>

#include "chaos/experiment.hpp"
#include "util/assert.hpp"

namespace rtpb::explore {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// Service config for exploration: a fast failure detector (3 misses at
/// 20 ms pings ≈ 65 ms detection) keeps failover arcs short, so exhaustive
/// horizons stay in the low seconds.  Safe here because the drop budget
/// (≤2 frames) cannot fake ping_max_misses consecutive misses.
core::ServiceConfig service_config(const ExploreConfig& cfg) {
  core::ServiceConfig c;
  c.ping_period = millis(20);
  c.ping_max_misses = cfg.ping_max_misses;
  c.variance_aware_admission = true;
  c.epoch_fencing = cfg.epoch_fencing;
  return c;
}

/// Fixed workload: client periods on the 20 ms grid, windows (120 ms) wide
/// enough that losing drop_budget frames can never cause an out-of-model
/// staleness violation — any violation the oracles report is a protocol
/// bug, not a scenario artifact.
std::vector<core::ObjectSpec> workload(const ExploreConfig& cfg) {
  std::vector<core::ObjectSpec> specs;
  for (std::size_t i = 0; i < cfg.objects; ++i) {
    core::ObjectSpec s;
    s.id = static_cast<core::ObjectId>(i + 1);
    s.name = "explored-" + std::to_string(i + 1);
    s.size_bytes = 64;
    s.client_period = millis(20);
    s.client_exec = micros(200);
    s.update_exec = micros(500);
    s.delta_primary = millis(30);
    s.delta_backup = millis(150);
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Is "fire tied event j before events 0..j-1" an ordering the model
/// explores?  Only frame deliveries are schedulable nondeterminism: local
/// timers fire in deterministic scheduling (FIFO) order — that order is
/// part of the simulated host, not a race — and observers never matter.
/// Among deliveries, two frames on the same directed link must keep FIFO
/// (part of the network model), while the real race is two senders'
/// frames reaching one receiver in the same instant.  With `sleep_sets`
/// on, deliveries to *different* receivers are also skipped: they commute
/// (the sleep-set reduction, sound and reported).
bool order_alternative_matters(const std::vector<sim::EventTag>& tags, std::size_t j,
                               bool sleep_sets) {
  if (tags[j].kind != sim::kTagNetDelivery) return false;
  bool dependent = false;
  for (std::size_t i = 0; i < j; ++i) {
    if (tags[i].kind != sim::kTagNetDelivery) continue;
    if (tags[i].node == tags[j].node && tags[i].peer == tags[j].peer) {
      return false;  // would invert same-link frames: FIFO violation, out of model
    }
    if (!sleep_sets || tags[i].node == tags[j].node) dependent = true;
  }
  return dependent;
}

/// Identity of a choice point for the expansion-dedup set: the canonical
/// state it was taken in, plus what was being decided.
std::uint64_t expansion_key(std::uint64_t state_hash, const Choice& c) {
  std::uint64_t h = state_hash;
  fnv_mix(h, static_cast<std::uint64_t>(c.kind));
  fnv_mix(h, c.options);
  fnv_mix(h, c.a);
  fnv_mix(h, c.b);
  fnv_mix(h, c.frame);
  if (c.kind == sim::ChoiceKind::kFault) {
    for (const char* ch = core::fault_kind_name(c.fault); *ch != '\0'; ++ch) {
      fnv_mix(h, static_cast<unsigned char>(*ch));
    }
  }
  return h;
}

/// Hash from this choice point on; kNoHashes hashes nothing, not even the
/// final state.
constexpr std::size_t kNoHashes = SIZE_MAX;

/// The per-trajectory strategy: replays a decision prefix, takes defaults
/// beyond it, and records every choice point it encounters.  Choice
/// points before `hash_from` are recorded without their state hash (0)
/// or their event-order alternatives.
class TrajectoryPolicy final : public sim::ChoicePolicy {
 public:
  TrajectoryPolicy(const ExploreConfig& cfg, core::RtpbService& service,
                   chaos::OracleMonitor& monitor, std::vector<core::ObjectId> admitted,
                   const std::vector<std::uint16_t>& trace, std::size_t hash_from)
      : cfg_(cfg),
        service_(service),
        monitor_(monitor),
        admitted_(std::move(admitted)),
        trace_(trace),
        hash_from_(hash_from) {}

  bool decide(const sim::ChoiceContext& ctx, Rng& rng) override {
    switch (ctx.kind) {
      case sim::ChoiceKind::kFrameLoss: {
        // A partitioned link (loss 1.0) is a forced drop, not a branch; a
        // zero-loss link is a *potential* drop, budget and window allowing.
        if (ctx.probability >= 1.0) return true;
        if (ctx.probability > 0.0) return rng.bernoulli(ctx.probability);
        const std::uint64_t ordinal = frame_ordinals_[{ctx.a, ctx.b}]++;
        const TimePoint now = service_.simulator().now();
        const ExploreBounds& b = cfg_.bounds;
        if (bound_hit_ || drops_taken_ >= b.drop_budget) return false;
        if (b.drop_until <= b.drop_from || now < b.drop_from || now > b.drop_until) {
          return false;
        }
        Choice c;
        c.kind = ctx.kind;
        c.a = ctx.a;
        c.b = ctx.b;
        c.frame = ordinal;
        c.at = now;
        const bool drop = choose(c) != 0;
        if (drop) {
          ++drops_taken_;
          actions_.push_back({true, {}, now, ctx.a, ctx.b, ordinal});
        }
        return drop;
      }
      case sim::ChoiceKind::kFault: {
        const TimePoint now = service_.simulator().now();
        const auto kind = static_cast<core::FaultKind>(ctx.fault);
        if (kind == core::FaultKind::kAddStandby) {
          // Recovery, not a fault: fires deterministically iff a crash
          // fired earlier (see ExploreConfig's candidate-instant doc).
          if (!crash_fired_) return false;
          actions_.push_back({false, kind, now});
          declare_fault_epoch(kind, now);
          return true;
        }
        if (bound_hit_ || !fault_eligible(kind)) return false;
        Choice c;
        c.kind = ctx.kind;
        c.fault = kind;
        c.at = now;
        const bool fire = choose(c) != 0;
        if (fire) {
          ++faults_taken_;
          actions_.push_back({false, kind, now});
          declare_fault_epoch(kind, now);
          maybe_tear_wal(kind);
        }
        return fire;
      }
      default:
        // Burst/corrupt/reorder/duplicate knobs are zero in explorer
        // scenarios; fall through to the RNG semantics regardless.
        return rng.bernoulli(ctx.probability);
    }
  }

  std::size_t pick_event(const std::vector<sim::EventTag>& tags) override {
    if (tags.size() < 2 || bound_hit_) return 0;
    // A decision is a uint16_t: a wider tie could not be replayed.
    RTPB_ASSERT(tags.size() <= 0xffff);
    std::size_t first = 1;
    while (first < tags.size() && !order_alternative_matters(tags, first, cfg_.sleep_sets)) {
      ++first;
    }
    if (first == tags.size()) return 0;  // every alternative is fixed or commutes: no choice point
    Choice c;
    c.kind = sim::ChoiceKind::kEventOrder;
    c.options = static_cast<std::uint16_t>(tags.size());
    c.at = service_.simulator().now();
    return choose(c, &tags, first);
  }

  TrajectoryResult take_result() {
    TrajectoryResult r;
    if (hash_from_ != kNoHashes) r.final_hash = hash_state();
    r.choices = std::move(choices_);
    r.state_hashes = std::move(hashes_);
    r.actions = std::move(actions_);
    r.order_alternatives = std::move(order_alternatives_);
    r.choice_bound_hit = bound_hit_;
    return r;
  }

 private:
  /// Record choice point `c`; an event-order tie passes its `tags` and the
  /// first alternative that matters.
  std::uint16_t choose(Choice c, const std::vector<sim::EventTag>* tags = nullptr,
                       std::size_t first = 0) {
    if (choices_.size() >= cfg_.bounds.max_choice_points) {
      bound_hit_ = true;
      return 0;
    }
    const std::size_t idx = choices_.size();
    std::uint16_t pick = idx < trace_.size() ? trace_[idx] : 0;
    if (pick >= c.options) pick = 0;
    c.chosen = pick;
    const bool hashed = idx >= hash_from_;
    if (hashed && tags != nullptr) record_alternatives(c, *tags, first);
    hashes_.push_back(hashed ? hash_state() : 0);
    choices_.push_back(c);
    return pick;
  }

  /// Append the tie's alternatives that matter, from `first` (which does)
  /// on, and point `c` at them.
  void record_alternatives(Choice& c, const std::vector<sim::EventTag>& tags, std::size_t first) {
    RTPB_ASSERT(order_alternatives_.size() <= UINT32_MAX - tags.size());
    c.alts_begin = static_cast<std::uint32_t>(order_alternatives_.size());
    order_alternatives_.push_back(static_cast<std::uint16_t>(first));
    for (std::size_t j = first + 1; j < tags.size(); ++j) {
      if (order_alternative_matters(tags, j, cfg_.sleep_sets)) {
        order_alternatives_.push_back(static_cast<std::uint16_t>(j));
      }
    }
    c.alts_count = static_cast<std::uint16_t>(order_alternatives_.size() - c.alts_begin);
  }

  bool fault_eligible(core::FaultKind kind) const {
    if (faults_taken_ >= cfg_.bounds.fault_budget) return false;
    std::size_t live = 0;
    service_.for_each_replica([&live](const core::ReplicaServer& r) {
      if (!r.crashed()) ++live;
    });
    // Never offer crashing (or isolating) the last live replica: those
    // trajectories only prove the cluster dies when everyone dies.
    switch (kind) {
      case core::FaultKind::kCrashPrimary:
      case core::FaultKind::kCrashBackup:
      case core::FaultKind::kPartitionPrimary:
      case core::FaultKind::kCrashRestartPrimary:
      case core::FaultKind::kCrashRestartBackup:
        return live >= 2;
      default:
        return false;
    }
  }

  /// Torn-write sabotage on a fired crash-restart candidate: the victim is
  /// about to crash (same fault action, no intervening sim time), so
  /// shearing its WAL tail now is equivalent to corrupting the disk while
  /// it is down.  The subsequent recovery replays a clean-but-short prefix
  /// and the durable-recovery oracle must notice the acked versions hole.
  void maybe_tear_wal(core::FaultKind kind) {
    if (cfg_.torn_tail_bytes == 0) return;
    if (kind != core::FaultKind::kCrashRestartPrimary &&
        kind != core::FaultKind::kCrashRestartBackup) {
      return;
    }
    store::SimStorageDevice* wal =
        service_.wal_device(kind == core::FaultKind::kCrashRestartPrimary ? 0 : 1);
    if (wal != nullptr) wal->tear_tail(cfg_.torn_tail_bytes);
  }

  /// The chaos schedule's epoch for the fired candidate.  A crash's arc
  /// runs to the next add-standby candidate, which the recovery rule
  /// guarantees fires; a crash-restart recovers by itself, so
  /// crash_fired_ stays false and no recruit is owed.
  void declare_fault_epoch(core::FaultKind kind, TimePoint now) {
    TimePoint recovered = now;
    if (kind == core::FaultKind::kCrashPrimary || kind == core::FaultKind::kCrashBackup) {
      crash_fired_ = true;
      for (const Duration d : cfg_.add_standby_at) {
        const TimePoint at = TimePoint::zero() + d;
        if (at >= now && (recovered == now || at < recovered)) recovered = at;
      }
    }
    // Candidates are instants or crash-restarts: no network settle applies.
    monitor_.declare_epoch(chaos::declared_epoch(cfg_.candidate(kind, now), recovered,
                                                 Duration::zero(), cfg_.failover_grace));
  }

  /// FNV-1a over the canonicalized protocol state: per replica (visit
  /// order is deterministic) role / crashed / epoch / pending transfers /
  /// per-object versions, plus virtual time and per-link in-flight frame
  /// counts.  Monotone counters are deliberately excluded — they would
  /// make every state unique and the pruning useless.
  std::uint64_t hash_state() {
    std::uint64_t h = kFnvOffset;
    nodes_.clear();
    service_.for_each_replica([&](const core::ReplicaServer& r) {
      nodes_.push_back(r.node());
      fnv_mix(h, r.role() == core::Role::kPrimary ? 1 : 2);
      fnv_mix(h, r.crashed() ? 1 : 0);
      fnv_mix(h, r.epoch());
      fnv_mix(h, r.pending_transfer_count());
      for (const core::ObjectId id : admitted_) {
        const core::ObjectState* state = r.peek(id);
        fnv_mix(h, id);
        fnv_mix(h, state != nullptr ? state->version : 0);
      }
    });
    sim::Simulator& sim = service_.simulator();
    fnv_mix(h, static_cast<std::uint64_t>(sim.now().nanos()));
    fnv_mix(h, sim.pending_events());
    net::Network& net = service_.network();
    for (const net::NodeId a : nodes_) {
      for (const net::NodeId b : nodes_) {
        if (a == b || !net.link_params(a, b).has_value()) continue;
        const net::LinkStats& s = net.stats(a, b);
        const std::int64_t in_flight = static_cast<std::int64_t>(s.sent) -
                                       static_cast<std::int64_t>(s.delivered) -
                                       static_cast<std::int64_t>(s.dropped);
        fnv_mix(h, static_cast<std::uint64_t>(in_flight));
      }
    }
    return h;
  }

  const ExploreConfig& cfg_;
  core::RtpbService& service_;
  chaos::OracleMonitor& monitor_;
  std::vector<core::ObjectId> admitted_;
  const std::vector<std::uint16_t>& trace_;
  const std::size_t hash_from_;
  std::vector<net::NodeId> nodes_;  ///< hash_state scratch
  std::vector<Choice> choices_;
  std::vector<std::uint64_t> hashes_;
  std::vector<FaultAction> actions_;
  std::vector<std::uint16_t> order_alternatives_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> frame_ordinals_;
  std::uint32_t faults_taken_ = 0;
  std::uint32_t drops_taken_ = 0;
  bool crash_fired_ = false;
  bool bound_hit_ = false;
};

}  // namespace

std::vector<Duration>* ExploreConfig::candidates(core::FaultKind kind) {
  switch (kind) {
    case core::FaultKind::kCrashPrimary: return &crash_primary_at;
    case core::FaultKind::kCrashBackup: return &crash_backup_at;
    case core::FaultKind::kAddStandby: return &add_standby_at;
    case core::FaultKind::kPartitionPrimary: return &partition_at;
    case core::FaultKind::kCrashRestartPrimary: return &crash_restart_primary_at;
    case core::FaultKind::kCrashRestartBackup: return &crash_restart_backup_at;
    default: return nullptr;
  }
}

bool plant(const chaos::Sabotage& mode, ExploreConfig& cfg) {
  core::FaultKind exposes{};
  if (mode.name == "no-failover") {
    cfg.ping_max_misses = 1000000;
    exposes = core::FaultKind::kCrashPrimary;
  } else if (mode.name == "split-brain") {
    cfg.epoch_fencing = false;
    cfg.backups = 2;
    exposes = core::FaultKind::kPartitionPrimary;
  } else if (mode.name == "torn-write") {
    cfg.torn_tail_bytes = 512;
    exposes = core::FaultKind::kCrashRestartBackup;
  } else {
    return false;
  }
  for (const core::FaultKind kind : kCandidateKinds) cfg.candidates(kind)->clear();
  cfg.candidates(exposes)->assign(1, millis(251));
  cfg.bounds.fault_budget = 1;
  cfg.bounds.drop_budget = 0;
  return true;
}

core::Fault ExploreConfig::candidate(core::FaultKind kind, TimePoint at) const {
  const bool restarts = kind == core::FaultKind::kCrashRestartPrimary ||
                        kind == core::FaultKind::kCrashRestartBackup;
  return {.kind = kind, .at = at, .until = restarts ? at + restart_delay : at, .candidate = true};
}

std::vector<std::uint16_t> TrajectoryResult::decisions() const {
  std::vector<std::uint16_t> out;
  out.reserve(choices.size());
  for (const Choice& c : choices) out.push_back(c.chosen);
  return out;
}

namespace {

/// Run one trajectory, hashing the choice points from `hash_from` on.
TrajectoryResult run(const ExploreConfig& cfg, const std::vector<std::uint16_t>& trace,
                     const chaos::Observers& observe, std::size_t hash_from) {
  core::ServiceParams params;
  params.seed = cfg.service_seed;
  params.config = service_config(cfg);
  params.backup_count = cfg.backups;
  params.service_name = "explore-service";
  // Crash-restart candidates need a durable image to restart from; WAL
  // appends are synchronous and draw no randomness, so durable storage
  // never perturbs the explored choice tree by itself.
  params.durable =
      !cfg.crash_restart_primary_at.empty() || !cfg.crash_restart_backup_at.empty();
  chaos::Experiment experiment(params, observe);
  experiment.admit(workload(cfg));

  for (const core::FaultKind kind : kCandidateKinds) {
    for (const Duration d : *cfg.candidates(kind)) {
      experiment.plan().add(cfg.candidate(kind, TimePoint::zero() + d));
    }
  }
  experiment.arm({});  // the policy declares each fault epoch as its candidate fires

  TrajectoryPolicy policy(cfg, experiment.service(), experiment.monitor(),
                          experiment.admitted(), trace, hash_from);
  sim::Simulator& sim = experiment.service().simulator();
  sim.set_choice_policy(&policy);
  experiment.service().run_for(cfg.bounds.horizon);
  sim.set_choice_policy(nullptr);
  experiment.finish();

  TrajectoryResult result = policy.take_result();
  result.violations = experiment.monitor().violations();
  result.unwritable = experiment.unwritable();
  return result;
}

}  // namespace

TrajectoryResult run_trajectory(const ExploreConfig& cfg,
                                const std::vector<std::uint16_t>& trace,
                                const chaos::Observers& observe) {
  return run(cfg, trace, observe, 0);
}

bool reproduces(const TrajectoryResult& result, const std::string& oracle) {
  for (const chaos::OracleViolation& v : result.violations) {
    if (v.oracle == oracle) return true;
  }
  return false;
}

TrajectoryResult replay(const Counterexample& ce) { return run_trajectory(ce.config, ce.trace); }

namespace {

unsigned resolve_threads(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return std::max(threads, 1u);
}

/// The runner pool of explore() and minimize(): the calling thread plus
/// `threads - 1` worker threads, started once and parked between rounds.
/// One thread starts no worker.
class Runners {
 public:
  explicit Runners(unsigned threads) {
    for (unsigned i = 1; i < threads; ++i) workers_.emplace_back([this] { park(); });
  }
  ~Runners() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    start_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
  Runners(const Runners&) = delete;
  Runners& operator=(const Runners&) = delete;

  /// One round: `on_workers` on every worker while `on_caller` runs here;
  /// returns once every one of them has returned.
  void round(const std::function<void()>& on_workers, const std::function<void()>& on_caller) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      body_ = &on_workers;
      busy_ = workers_.size();
      ++round_;
    }
    start_.notify_all();
    on_caller();
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return busy_ == 0; });
  }
  void round(const std::function<void()>& body) { round(body, body); }

 private:
  void park() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      start_.wait(lock, [&] { return quit_ || round_ != seen; });
      if (quit_) return;
      seen = round_;
      const std::function<void()>& body = *body_;
      lock.unlock();
      body();
      lock.lock();
      if (--busy_ == 0) done_.notify_one();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void()>* body_ = nullptr;
  std::uint64_t round_ = 0;
  std::size_t busy_ = 0;
  bool quit_ = false;
};

/// explore()'s DFS stack, shared between the committing thread and the
/// workers.  Every stacked prefix will be run, so a worker may run any of
/// them early; it takes the top-most one not yet taken — the next the
/// committer will pop.
class Frontier {
 public:
  explicit Frontier(const ExploreConfig& cfg) : cfg_(cfg) {}

  struct Popped {
    std::vector<std::uint16_t> prefix;
    TrajectoryResult result;
  };

  /// Committer: stack `prefix`.
  void push(std::vector<std::uint16_t> prefix) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      Job& job = depth_ < stack_.size() ? stack_[depth_] : stack_.emplace_back();
      ++depth_;
      job.prefix = std::move(prefix);
      job.state = Job::kQueued;
      queued_.push_back(&job);
    }
    queued_cv_.notify_one();
  }

  /// Committer: pop the top prefix with its result, running it here if no
  /// worker has taken it.  While a worker still runs it, the committer
  /// runs the top-most queued job rather than wait.
  Popped pop() {
    std::unique_lock<std::mutex> lock(mu_);
    Job& top = stack_[depth_ - 1];
    if (top.state == Job::kQueued) {
      // queued_ lists the queued jobs in stack order, so the stack's top,
      // when queued, is its last.
      RTPB_ASSERT(queued_.back() == &top);
      queued_.pop_back();
      Popped p{std::move(top.prefix), {}};
      --depth_;
      lock.unlock();
      p.result = run_prefix(p.prefix);
      return p;
    }
    while (top.state != Job::kDone) {
      if (queued_.empty()) {
        done_cv_.wait(lock, [&top] { return top.state == Job::kDone; });
      } else {
        run_top_queued(lock);
      }
    }
    Popped p{std::move(top.prefix), std::move(top.result)};
    --depth_;
    return p;
  }

  /// Committer: no more pops; workers return once their current run ends.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    queued_cv_.notify_all();
  }

  [[nodiscard]] bool empty() {
    const std::lock_guard<std::mutex> lock(mu_);
    return depth_ == 0;
  }
  [[nodiscard]] std::size_t size() {
    const std::lock_guard<std::mutex> lock(mu_);
    return depth_;
  }

  /// Worker: run queued jobs, top-most first, until close().
  void work() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      queued_cv_.wait(lock, [this] { return closed_ || !queued_.empty(); });
      if (closed_) return;
      run_top_queued(lock);
    }
  }

 private:
  struct Job {
    enum State : std::uint8_t { kQueued, kRunning, kDone };
    std::vector<std::uint16_t> prefix;
    State state = kQueued;
    TrajectoryResult result;
  };

  /// Take the top-most queued job and run it with `lock` released.  The
  /// committer touches a job's prefix only once it is done.
  void run_top_queued(std::unique_lock<std::mutex>& lock) {
    Job* job = queued_.back();
    queued_.pop_back();
    job->state = Job::kRunning;
    lock.unlock();
    TrajectoryResult result = run_prefix(job->prefix);
    lock.lock();
    job->result = std::move(result);
    job->state = Job::kDone;
    done_cv_.notify_one();
  }

  /// The choice points inside the prefix were hashed, inserted and
  /// expanded by the trajectory that pushed it (see explorer.hpp).
  TrajectoryResult run_prefix(const std::vector<std::uint16_t>& prefix) const {
    return run(cfg_, prefix, chaos::Observers{}, prefix.size());
  }

  const ExploreConfig& cfg_;
  std::mutex mu_;
  std::condition_variable queued_cv_;
  std::condition_variable done_cv_;
  /// The stack is stack_[0, depth_).  Popped slots are reused, and the
  /// deque only grows, so a job stays in place while others come and go.
  std::deque<Job> stack_;
  std::size_t depth_ = 0;
  std::vector<Job*> queued_;  ///< jobs no one has taken, in stack order
  bool closed_ = false;
};

/// Each greedy round runs the candidate flips (non-default choice i set
/// back to 0) and keeps the lowest i that reproduces.  Runners claim flips
/// in ascending order and stop claiming past the lowest hit, so every
/// lower flip has run by the time the round ends: the hit is the one the
/// serial scan takes.
Counterexample minimize_on(Runners& runners, const Counterexample& ce) {
  Counterexample best = ce;
  for (;;) {
    std::mutex mu;
    std::size_t next = 0;               // next trace index to claim
    std::size_t hit = SIZE_MAX;         // lowest reproducing index so far
    TrajectoryResult hit_result;
    runners.round([&] {
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        while (next < best.trace.size() && best.trace[next] == 0) ++next;
        if (next >= best.trace.size() || next > hit) return;
        const std::size_t i = next++;
        lock.unlock();
        std::vector<std::uint16_t> candidate = best.trace;
        candidate[i] = 0;
        TrajectoryResult res = run(best.config, candidate, chaos::Observers{}, kNoHashes);
        const bool reproduced = reproduces(res, best.oracle);
        lock.lock();
        if (reproduced && i < hit) {
          hit = i;
          hit_result = std::move(res);
        }
      }
    });
    if (hit == SIZE_MAX) break;
    best.trace = hit_result.decisions();
    best.actions = hit_result.actions;
    for (const chaos::OracleViolation& v : hit_result.violations) {
      if (v.oracle == best.oracle) {
        best.detail = v.detail;
        break;
      }
    }
  }
  while (!best.trace.empty() && best.trace.back() == 0) best.trace.pop_back();
  return best;
}

}  // namespace

Counterexample minimize(const Counterexample& ce) {
  Runners runners(resolve_threads(0));
  return minimize_on(runners, ce);
}

ExploreReport explore(const ExploreConfig& cfg, std::ostream* progress, unsigned threads) {
  Runners runners(resolve_threads(threads));
  ExploreReport report;
  std::optional<Counterexample> violation;
  std::set<std::uint64_t> states;
  std::set<std::pair<std::uint64_t, std::uint16_t>> expanded;
  Frontier frontier(cfg);
  frontier.push({});

  const auto commit = [&] {
    while (!frontier.empty()) {
      if (report.trajectories >= cfg.bounds.max_trajectories) {
        report.hit_trajectory_cap = true;
        break;
      }
      const auto [prefix, res] = frontier.pop();
      ++report.trajectories;
      report.choice_points += res.choices.size();
      if (res.choice_bound_hit) ++report.truncated;
      for (std::size_t i = prefix.size(); i < res.state_hashes.size(); ++i) {
        states.insert(res.state_hashes[i]);
      }
      states.insert(res.final_hash);

      if (!res.violations.empty()) {
        Counterexample& ce = violation.emplace();
        ce.config = cfg;
        ce.trace = res.decisions();
        ce.actions = res.actions;
        ce.oracle = res.violations.front().oracle;
        ce.detail = res.violations.front().detail;
        if (progress != nullptr) {
          *progress << "violation after " << report.trajectories << " trajectories: "
                    << ce.oracle << " — minimizing\n";
        }
        break;
      }

      const std::vector<std::uint16_t> decisions = res.decisions();
      for (std::size_t i = prefix.size(); i < res.choices.size(); ++i) {
        const Choice& c = res.choices[i];
        const std::uint64_t key = expansion_key(res.state_hashes[i], c);
        const auto branch = [&](std::uint16_t alt) {
          if (cfg.prune_visited && !expanded.insert({key, alt}).second) {
            ++report.pruned_visited;
            return;
          }
          std::vector<std::uint16_t> next(decisions.begin(),
                                          decisions.begin() + static_cast<std::ptrdiff_t>(i));
          next.push_back(alt);
          frontier.push(std::move(next));
        };
        if (c.kind == sim::ChoiceKind::kEventOrder) {
          const std::span<const std::uint16_t> alts = res.alternatives(c);
          report.pruned_sleep += c.options - 1u - alts.size();
          for (const std::uint16_t alt : alts) branch(alt);
        } else {
          for (std::uint16_t alt = 1; alt < c.options; ++alt) branch(alt);
        }
      }
      if (progress != nullptr && report.trajectories % 500 == 0) {
        *progress << "  " << report.trajectories << " trajectories, " << states.size()
                  << " states, " << frontier.size() << " pending prefixes\n";
      }
    }
    frontier.close();
  };
  runners.round([&frontier] { frontier.work(); }, commit);

  report.states_visited = states.size();
  if (violation) report.counterexamples.push_back(minimize_on(runners, *violation));
  return report;
}

std::string ExploreReport::summary() const {
  char line[256];
  std::snprintf(line, sizeof line,
                "%llu trajectories, %llu choice points, %llu states visited, "
                "pruned %llu visited / %llu commuting, %llu truncated%s, %zu counterexample(s)",
                static_cast<unsigned long long>(trajectories),
                static_cast<unsigned long long>(choice_points),
                static_cast<unsigned long long>(states_visited),
                static_cast<unsigned long long>(pruned_visited),
                static_cast<unsigned long long>(pruned_sleep),
                static_cast<unsigned long long>(truncated),
                hit_trajectory_cap ? " [TRAJECTORY CAP HIT]" : "", counterexamples.size());
  return line;
}

}  // namespace rtpb::explore
