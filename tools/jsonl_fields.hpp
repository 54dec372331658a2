// Field extraction over the repository's own JSONL: the flat
// one-object-per-line JSON that telemetry::write_jsonl,
// telemetry::write_postmortem and core::HealthFeed emit, not arbitrary
// JSON.  Shared by
// trace_inspect and rtpb_top.
//
// Each getter looks for `"key":` at or after `from`, parses the value
// there into `out` and returns true, or returns false and leaves `out`
// alone when the key is absent.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

namespace rtpb::tools {

/// The index just past `"key":` at or after `from`, or npos.  Keys never
/// appear inside string values with the quote-colon suffix, so a plain
/// search is sufficient.
inline std::size_t find_key(const std::string& line, const char* key, std::size_t from = 0) {
  const std::string needle = std::string("\"").append(key).append("\":");
  const std::size_t at = line.find(needle, from);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

inline bool get_u64(const std::string& line, const char* key, std::uint64_t& out,
                    std::size_t from = 0) {
  const std::size_t at = find_key(line, key, from);
  if (at == std::string::npos) return false;
  out = std::strtoull(line.c_str() + at, nullptr, 10);
  return true;
}

inline bool get_double(const std::string& line, const char* key, double& out,
                       std::size_t from = 0) {
  const std::size_t at = find_key(line, key, from);
  if (at == std::string::npos) return false;
  out = std::strtod(line.c_str() + at, nullptr);
  return true;
}

inline bool get_bool(const std::string& line, const char* key, bool& out, std::size_t from = 0) {
  const std::size_t at = find_key(line, key, from);
  if (at == std::string::npos) return false;
  out = line.compare(at, 4, "true") == 0;
  return true;
}

/// A string value with its JSON escapes undone (\u escapes, which only
/// carry control characters here, become '?').  False on a missing key, a
/// non-string value or an unterminated string.
inline bool get_string(const std::string& line, const char* key, std::string& out,
                       std::size_t from = 0) {
  std::size_t at = find_key(line, key, from);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') return false;
  out.clear();
  for (++at; at < line.size(); ++at) {
    const char c = line[at];
    if (c == '"') return true;
    if (c == '\\' && at + 1 < line.size()) {
      const char esc = line[++at];
      switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'u': out.push_back('?'); at += 4; break;
        default: out.push_back(esc); break;  // \" \\ \/
      }
    } else {
      out.push_back(c);
    }
  }
  return false;
}

}  // namespace rtpb::tools
