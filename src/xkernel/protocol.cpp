#include "xkernel/protocol.hpp"

namespace rtpb::xkernel {

void render_layer_fact(const telemetry::Hub& /*hub*/, const telemetry::Event& e,
                       telemetry::Part /*part*/, std::string& out) {
  using telemetry::append;
  switch (static_cast<LayerFact>(e.tag)) {
    case LayerFact::kEthSend: return append(out, e.a, "B to node", e.b);
    case LayerFact::kEthReceive: return append(out, e.a, "B from node", e.b);
    case LayerFact::kEthNoUpper: return append(out, "no upper protocol");
    case LayerFact::kIpPush: return append(out, "proto ", e.a, " node", e.b, "->node", e.c);
    case LayerFact::kIpDemux: return append(out, "proto ", e.a);
    case LayerFact::kIpBadHeader: return append(out, "bad header");
    case LayerFact::kIpRunt: case LayerFact::kUdpRunt: return append(out, "runt");
    case LayerFact::kIpUnknownProto: return append(out, "unknown proto ", e.a);
    case LayerFact::kUdpPush: return append(out, "port ", e.a, "->", e.b);
    case LayerFact::kUdpDemux: return append(out, "port ", e.a);
    case LayerFact::kUdpChecksum: return append(out, "checksum port ", e.a);
    case LayerFact::kUdpNoListener: return append(out, "no listener port ", e.a);
    case LayerFact::kFragPush: return append(out, e.a, " fragment(s), ", e.b, "B");
    case LayerFact::kFragReassembled: return append(out, "reassembled ", e.a, " fragments");
    case LayerFact::kFragWhole: return append(out, "unfragmented");
    case LayerFact::kFragTimeout: return append(out, e.a, "/", e.b, " fragments");
    default: return;
  }
}

}  // namespace rtpb::xkernel
