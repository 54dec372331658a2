// Telemetry exporters.
//
//   write_chrome_trace  Chrome trace-event JSON (the format Perfetto and
//                       chrome://tracing load): one process per node, one
//                       thread per protocol layer / CPU, duration slices for
//                       CPU job possession, instants for protocol hops, and
//                       one async track per update span so a single update's
//                       journey primary → net → backup reads as one row.
//   write_jsonl         Flat JSONL event stream (one JSON object per line;
//                       span records first, then events) — the input format
//                       of tools/trace_inspect.
//   write_postmortem    The post-mortem: a versioned header, then the ring's
//                       last Hub::kPostmortemEvents events as write_jsonl's
//                       event lines, oldest first.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/telemetry.hpp"

namespace rtpb::telemetry {

void write_chrome_trace(const Hub& hub, std::ostream& os);
void write_jsonl(const Hub& hub, std::ostream& os);
/// The post-mortem of a trigger with `reason`, written at the Hub's now().
void write_postmortem(const Hub& hub, std::ostream& os, std::string_view reason);

/// Append `s` to `out` as the body of a JSON string: quotes, backslashes
/// and control characters escaped.  Every JSON writer here uses it: the
/// exporters and the registry's metrics JSON.
void json_escape_into(std::string& out, std::string_view s);
/// json_escape_into a fresh string.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace rtpb::telemetry
