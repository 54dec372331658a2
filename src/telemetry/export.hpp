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
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/telemetry.hpp"

namespace rtpb::telemetry {

void write_chrome_trace(const Hub& hub, std::ostream& os);
void write_jsonl(const Hub& hub, std::ostream& os);

/// Append `s` to `out` as the body of a JSON string: quotes, backslashes
/// and control characters escaped.  Every JSON writer here uses it: the
/// exporters, the registry's metrics JSON and the post-mortem dump.
void json_escape_into(std::string& out, std::string_view s);
/// json_escape_into a fresh string.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace rtpb::telemetry
