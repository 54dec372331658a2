// Planted bugs, the oracles' self-test: each mode breaks the service in
// one known way, and its own oracle must catch it (a catch by another
// oracle would mask a gap in that one).  chaos_main, explore_main and the
// tests all plant through this table, so a new mode is one row here, plus
// one arm of explore::plant if the explorer can plant it too.
#pragma once

#include <algorithm>
#include <array>
#include <string_view>
#include <vector>

#include "chaos/oracles.hpp"
#include "chaos/schedule.hpp"

namespace rtpb::chaos {

struct Sabotage {
  std::string_view name;    ///< the --sabotage value
  std::string_view oracle;  ///< the oracle that must catch it
  /// Seeds 0..seeds-1 at default options catch it (CI's self-test sweep).
  std::size_t seeds;
  void (*plant)(ChaosOptions& opts);  ///< sets no observer and no duration

  [[nodiscard]] bool caught_by(const std::vector<OracleViolation>& violations) const {
    return std::any_of(violations.begin(), violations.end(),
                       [&](const OracleViolation& v) { return v.oracle == oracle; });
  }
};

/// Every mode, in --help order.
inline constexpr std::array<Sabotage, 5> kSabotages = {{
    // Failure detector never declares: a crashed primary stays dead and
    // unreplaced, so once the crash epoch closes there is no primary.
    {"no-failover", "exactly-one-primary", 4,
     [](ChaosOptions& o) {
       o.config.ping_max_misses = 1000000;
       o.crash_probability = 1.0;
       o.crash_backup_bias = 0.0;  // always crash the primary
     }},
    // Transmission period far beyond every negotiated window: distances
    // grow unbounded with zero faults, so nothing excuses them.
    {"slow-updates", "staleness-window", 1,
     [](ChaosOptions& o) {
       o.config.update_period_override = millis(800);
       o.config.admission_control_enabled = false;
       o.enable_loss_storms = false;
       o.enable_link_faults = false;
       o.enable_crashes = false;
     }},
    // Epoch fencing off under a primary↔successor partition: the deposed
    // primary keeps feeding stale-epoch updates to the surviving backup.
    {"split-brain", "cross-epoch-apply", 6,
     [](ChaosOptions& o) {
       o.config.epoch_fencing = false;
       o.backups = 2;
       o.enable_partition = true;
       o.enable_crashes = false;
     }},
    // Graceful degradation off under pure overload: the primary silently
    // violates windows it never renegotiated.  No other fault family's
    // epoch may excuse (or cause) the violations.
    {"no-shedding", "no-silent-violation", 3,
     [](ChaosOptions& o) {
       o.config.degradation_enabled = false;
       o.enable_overload = true;
       o.enable_loss_storms = false;
       o.enable_link_faults = false;
       o.enable_crashes = false;
     }},
    // Shear bytes off the downed replica's WAL mid-outage: the recovered
    // image misses client-acked versions (monotone-versions also fires).
    // Every run is a crash-restart arc.
    {"torn-write", "durable-recovery", 3,
     [](ChaosOptions& o) {
       o.enable_crash_restart = true;
       o.torn_tail_bytes = 512;
       o.enable_loss_storms = false;
       o.enable_link_faults = false;
       o.enable_crashes = false;
     }},
}};

/// The mode called `name`, or nullptr.
[[nodiscard]] inline const Sabotage* find_sabotage(std::string_view name) {
  const auto it = std::find_if(kSabotages.begin(), kSabotages.end(),
                               [&](const Sabotage& s) { return s.name == name; });
  return it == kSabotages.end() ? nullptr : &*it;
}

}  // namespace rtpb::chaos
