// Ablation: graceful degradation under a mid-run bandwidth throttle.
//
// Four cells cross the two PR-5 mechanisms — slack-aware shedding + QoS
// renegotiation (degradation_enabled) and Jacobson-RTO ack deadlines
// (adaptive_timeouts) — over the same scenario: steady state, then the
// replication link squeezed to 1% of its bandwidth for 2.5 s, then healed.
// In ack-every-update mode a fixed two-period deadline fires long before
// a congested link can deliver the ack, so the fixed cells retransmit
// into the very queue that is already the bottleneck; the adaptive cells
// stretch the deadline with the measured RTO instead.  The bench asserts
// the headline claims: with shedding off, adaptive sends measurably
// fewer retransmission frames than fixed; with shedding on, the QoS
// downgrade lengthens the transmission periods until the throttled link
// can carry the stream (so BOTH timeout arms quiesce — adaptive must
// never exceed fixed) and total inconsistency drops well below the
// no-degradation cells.  Every cell is seed-reproducible (each runs
// twice; trace digests must match — the digest_hi19 column is the top
// 19 bits of the digest, chosen to survive the %.6g JSON serialisation
// exactly so the baseline gate can compare it).
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/harness.hpp"

namespace {

using namespace rtpb;

struct CellResult {
  std::size_t accepted = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t shed = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t restores = 0;
  double incons_ms = 0.0;
  std::uint64_t intervals = 0;
  std::uint64_t digest = 0;
};

CellResult run_cell(bool shedding, bool adaptive, std::uint64_t seed) {
  core::ServiceParams params;
  params.seed = seed;
  params.link.propagation = millis(1);
  params.link.jitter = micros(200);
  params.config.ack_every_update = true;  // the retransmission path under test
  params.config.degradation_enabled = shedding;
  params.config.adaptive_timeouts = adaptive;
  // Isolate the ack-deadline mechanism: backup-side watchdog NACKs would
  // add identical retransmissions to both arms, and false failure
  // declarations during the squeeze would collapse the topology under
  // test (failover is a different bench's axis).
  params.config.watchdog_factor = 1000000;
  params.config.ping_max_misses = 1000000;

  core::RtpbService service(params);
  service.simulator().telemetry().digest().enable();
  service.start();

  CellResult result;
  for (core::ObjectId id = 1; id <= 5; ++id) {
    core::ObjectSpec object;
    object.id = id;
    object.name = "obj" + std::to_string(id);
    object.size_bytes = 200;
    object.client_period = millis(10);
    object.client_exec = micros(200);
    object.update_exec = micros(200);
    object.delta_primary = millis(20);
    object.delta_backup = millis(100);
    if (service.register_object(object).ok()) ++result.accepted;
  }

  const net::NodeId p = service.primary().node();
  const net::NodeId b = service.backup().node();
  const double full_bps = service.network().link_params(p, b)->bandwidth_bps;

  service.warm_up(seconds(1));
  service.run_for(seconds(1));                       // steady state
  service.network().set_bandwidth(p, b, full_bps * 0.01);
  service.run_for(millis(2500));                     // the squeeze
  service.network().set_bandwidth(p, b, full_bps);
  service.run_for(millis(1500));                     // recovery
  service.finish();

  result.updates_sent = service.primary().updates_sent();
  result.retransmissions = service.primary().retransmissions_served();
  result.shed = service.primary().updates_shed();
  result.downgrades = service.primary().qos_downgrades_sent();
  result.restores = service.primary().qos_restores_sent();
  result.incons_ms = service.metrics().total_inconsistency().millis();
  result.intervals = service.metrics().inconsistency_intervals();
  result.digest = service.simulator().telemetry().digest().value();
  return result;
}

}  // namespace

int main() {
  using namespace rtpb;

  bench::banner(
      "Ablation — graceful degradation under a bandwidth throttle",
      "Mid-run the replication link drops to 1% bandwidth for 2.5 s.  "
      "Fixed ack deadlines retransmit into the congested queue; adaptive "
      "(Jacobson RTO) deadlines stretch with the measured lag, so with "
      "shedding off adapt=1 must send measurably fewer retransmission "
      "frames than adapt=0.  shed=1 sheds stale staged updates and "
      "renegotiates windows (downgrades > 0): the loosened windows slow "
      "the stream to what the link can carry, quiescing retransmissions "
      "in both timeout arms and cutting total inconsistency well below "
      "the shed=0 cells.  Each cell runs twice; differing trace digests "
      "fail the bench.");

  // First column must be unique per row: the JSON export keys every cell
  // as "<col0>=<v0>.<col>", so rows sharing col0 would collide.
  bench::Table table({"cell", "shed", "adapt", "admitted", "upd_sent",
                      "retrans", "shed_drops", "downgrades", "restores",
                      "incons_ms", "digest_hi19"});
  table.set_name("abl_overload");

  constexpr std::uint64_t kSeed = 7;
  CellResult cells[2][2];
  bool reproducible = true;
  for (int shed = 0; shed <= 1; ++shed) {
    for (int adapt = 0; adapt <= 1; ++adapt) {
      const CellResult once = run_cell(shed != 0, adapt != 0, kSeed);
      const CellResult again = run_cell(shed != 0, adapt != 0, kSeed);
      if (once.digest != again.digest) {
        std::fprintf(stderr,
                     "FAIL: cell shed=%d adapt=%d not seed-reproducible "
                     "(digest %016llx vs %016llx)\n",
                     shed, adapt, static_cast<unsigned long long>(once.digest),
                     static_cast<unsigned long long>(again.digest));
        reproducible = false;
      }
      cells[shed][adapt] = once;
      table.add_row({static_cast<double>(shed * 2 + adapt),
                     static_cast<double>(shed), static_cast<double>(adapt),
                     static_cast<double>(once.accepted),
                     static_cast<double>(once.updates_sent),
                     static_cast<double>(once.retransmissions),
                     static_cast<double>(once.shed),
                     static_cast<double>(once.downgrades),
                     static_cast<double>(once.restores), once.incons_ms,
                     static_cast<double>(once.digest >> 45)});
    }
  }
  table.print();

  bool ok = reproducible;
  // Headline: adaptive deadlines must measurably beat fixed ones (less
  // than half the retransmissions) when nothing else relieves the link.
  if (cells[0][1].retransmissions * 2 >= cells[0][0].retransmissions) {
    std::fprintf(stderr,
                 "FAIL: adaptive retransmissions (%llu) not measurably below "
                 "fixed (%llu)\n",
                 static_cast<unsigned long long>(cells[0][1].retransmissions),
                 static_cast<unsigned long long>(cells[0][0].retransmissions));
    ok = false;
  }
  // With shedding on, renegotiation slows the stream instead; adaptive
  // must never be worse than fixed.
  if (cells[1][1].retransmissions > cells[1][0].retransmissions) {
    std::fprintf(stderr,
                 "FAIL: shed=1 adaptive retransmissions (%llu) exceed fixed "
                 "(%llu)\n",
                 static_cast<unsigned long long>(cells[1][1].retransmissions),
                 static_cast<unsigned long long>(cells[1][0].retransmissions));
    ok = false;
  }
  for (int adapt = 0; adapt <= 1; ++adapt) {
    if (cells[1][adapt].downgrades == 0) {
      std::fprintf(stderr,
                   "FAIL: shed=1 adapt=%d never renegotiated QoS under throttle\n",
                   adapt);
      ok = false;
    }
    if (cells[1][adapt].incons_ms >= cells[0][adapt].incons_ms) {
      std::fprintf(stderr,
                   "FAIL: degradation did not reduce inconsistency "
                   "(shed=1 %0.1f ms vs shed=0 %0.1f ms, adapt=%d)\n",
                   cells[1][adapt].incons_ms, cells[0][adapt].incons_ms, adapt);
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("adaptive < fixed retransmissions with shedding off; "
              "renegotiation quiesces the link and cuts inconsistency with "
              "shedding on; all cells seed-reproducible\n");
  return 0;
}
