// Bare-layer probes: each times one layer's public functions on a small,
// self-contained instance shaped like a workload, so the traced run can
// split a workload's host time across layers from the outside.
#pragma once

#include <cstdint>
#include <vector>

#include "explore/explorer.hpp"
#include "sched/cpu.hpp"

namespace perfbench {

[[nodiscard]] double median(std::vector<double> values);

struct Cost {
  double ns = 0.0;      ///< host ns per operation
  double allocs = 0.0;  ///< heap allocations per operation
  double events = 0.0;  ///< simulator events fired per operation
};

/// sim: schedule_at + step with no-op callbacks, `depth` events pending.
[[nodiscard]] Cost probe_sim_kernel(std::size_t depth);

/// sched: a bare Cpu under `policy` running `tasks`; cost per completed job.
[[nodiscard]] Cost probe_sched(rtpb::sched::Policy policy,
                               const std::vector<rtpb::sched::TaskSpec>& tasks);

/// core: wire::encode / wire::decode of an UpdateBatch with `entries`
/// entries of `value_bytes` each; cost per frame.
struct WireCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double allocs = 0.0;  ///< encode + decode
};
[[nodiscard]] WireCost probe_wire(std::size_t entries, std::size_t value_bytes);

/// xkernel: HostStack::send_message of one frame to `peers` peers through
/// delivery on a bare Network; cost per delivered frame.
[[nodiscard]] Cost probe_xkernel(std::size_t peers, std::size_t payload_bytes);

/// net: Network::send plus delivery of one frame; cost per frame.
[[nodiscard]] Cost probe_net(std::size_t payload_bytes);

/// store: a DurableStore on SimStorageDevices holding `objects` objects.
struct StoreCost {
  double log_write_ns = 0.0;
  double checkpoint_us = 0.0;
  double recover_us = 0.0;  ///< last checkpoint plus one table's worth of WAL
};
[[nodiscard]] StoreCost probe_store(std::size_t objects, std::size_t value_bytes);

/// explore: run_trajectory with an empty trace, the fixed cost of one
/// trajectory; host µs.
[[nodiscard]] double probe_explore_replay_us(const rtpb::explore::ExploreConfig& cfg);

}  // namespace perfbench
