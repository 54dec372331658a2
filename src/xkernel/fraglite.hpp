// FRAGLITE: fragmentation / reassembly protocol, the analogue of
// x-kernel's BLAST.  Sits between an anchor protocol (RTPB) and UDPLITE so
// that objects larger than the link MTU can be replicated: pushes split a
// message into MTU-sized fragments, demux reassembles them and delivers
// the original message upward.  Incomplete reassemblies are garbage
// collected after a timeout (a lost fragment loses the whole message —
// the RTPB layer's periodic updates / NACKs recover, as for any loss).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>

#include "sim/simulator.hpp"
#include "xkernel/protocol.hpp"

namespace rtpb::xkernel {

class FragLite final : public Protocol {
 public:
  FragLite(sim::Simulator& sim, std::size_t max_fragment_payload = 1400,
           Duration reassembly_timeout = millis(500));

  using Handler = std::function<void(Message&, const MsgAttrs&)>;
  /// Deliver reassembled messages here (single upper, like an anchor
  /// protocol's dedicated channel).
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Fragment and forward downward.  Single-fragment messages still carry
  /// the FRAGLITE header so the receiver needs no out-of-band signal.
  void push(Message& msg, const MsgAttrs& attrs) override;
  /// Reassemble fragments; deliver the complete message to the handler.
  void demux(Message& msg, MsgAttrs& attrs) override;

  [[nodiscard]] std::uint64_t fragments_sent() const { return count(LayerFact::kFragment); }
  [[nodiscard]] std::uint64_t messages_sent() const { return count(LayerFact::kFragPush); }
  /// Messages delivered upward, unfragmented ones included.
  [[nodiscard]] std::uint64_t messages_reassembled() const {
    return count(LayerFact::kFragReassembled);
  }
  [[nodiscard]] std::uint64_t reassembly_timeouts() const {
    return count(LayerFact::kFragTimeout);
  }
  [[nodiscard]] std::uint64_t bad_fragments() const { return count(LayerFact::kFragBad); }
  /// Replayed/duplicated fragments ignored (slot already filled).
  [[nodiscard]] std::uint64_t duplicate_fragments() const {
    return count(LayerFact::kFragDuplicate);
  }
  [[nodiscard]] std::size_t pending_reassemblies() const { return reassembly_.size(); }

  /// Header: msg id (u32), fragment index (u16), fragment count (u16),
  /// total length (u32).
  static constexpr std::size_t kHeaderSize = 4 + 2 + 2 + 4;

  /// Upper bound on one fragment's payload as carried by UDPLITE (16-bit
  /// length field) — used to reject absurd `total` claims before they size
  /// the reassembly table.
  static constexpr std::size_t kMaxFragmentSize = 0xFFFF;

 private:
  using Key = std::tuple<net::NodeId, net::Port, std::uint32_t>;  // src node, src port, msg id

  struct Reassembly {
    /// Zero-copy views into the arriving wire buffers, indexed by fragment
    /// number; a null buf marks a missing fragment.
    std::vector<SharedView> fragments;
    std::size_t received = 0;
    std::size_t bytes_received = 0;
    std::uint32_t total_length = 0;
    sim::EventHandle gc;
  };

  void expire(const Key& key);

  sim::Simulator& sim_;
  std::size_t max_payload_;
  Duration timeout_;
  Handler handler_;
  std::uint32_t next_msg_id_ = 1;
  std::map<Key, Reassembly> reassembly_;

};

}  // namespace rtpb::xkernel
