// bench_report — compare a fresh BENCH_*.json against a committed baseline
// and fail on regression.
//
//   bench_report --baseline bench/baselines/BENCH_wirepath.json
//                --current BENCH_wirepath.json
//                [--max-regression 25] [--stable-only]
//
// Input is the flat format bench::JsonMetrics writes:
//   {"name": "...", "metrics": {"key": number, ...}}
//
// Direction is inferred from the key: anything containing "per_sec" is
// higher-is-better; everything else (ns, ms, allocations, frame counts) is
// lower-is-better.  --stable-only restricts the gate to metrics that are
// deterministic by construction — allocation counts ("allocs" in the key)
// and seed-pure counters (keys ending "_deterministic", e.g. the parallel
// engine's digest/window/event totals) — which are safe to enforce on
// shared CI runners where wall-clock numbers jitter far beyond any useful
// threshold; timing metrics are still printed.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

bool parse_metrics_file(const std::string& path, Metrics& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();

  const std::size_t metrics_at = text.find("\"metrics\"");
  if (metrics_at == std::string::npos) {
    std::fprintf(stderr, "bench_report: %s has no \"metrics\" object\n", path.c_str());
    return false;
  }
  std::size_t pos = text.find('{', metrics_at);
  if (pos == std::string::npos) return false;
  ++pos;
  // Flat object: "key": number pairs until the closing brace.
  while (pos < text.size()) {
    while (pos < text.size() && (std::isspace(static_cast<unsigned char>(text[pos])) != 0 ||
                                 text[pos] == ',')) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] == '}') break;
    if (text[pos] != '"') {
      std::fprintf(stderr, "bench_report: %s: malformed metrics at byte %zu\n",
                   path.c_str(), pos);
      return false;
    }
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) return false;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    pos = text.find(':', key_end);
    if (pos == std::string::npos) return false;
    ++pos;
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])) != 0) ++pos;
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      continue;  // Inf/NaN placeholder: not comparable, skip.
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + pos, &end);
    if (end == text.c_str() + pos) {
      std::fprintf(stderr, "bench_report: %s: bad number for key %s\n", path.c_str(),
                   key.c_str());
      return false;
    }
    pos = static_cast<std::size_t>(end - text.c_str());
    out.emplace_back(key, value);
  }
  return true;
}

bool higher_is_better(const std::string& key) {
  return key.find("per_sec") != std::string::npos;
}

/// Seed-pure counters: a "_deterministic" suffix promises the value is a
/// pure function of the committed seeds, so ANY drift (either direction)
/// is a behaviour change, not noise.
bool is_exact_metric(const std::string& key) {
  constexpr const char kSuffix[] = "_deterministic";
  constexpr std::size_t kLen = sizeof(kSuffix) - 1;
  return key.size() >= kLen && key.compare(key.size() - kLen, kLen, kSuffix) == 0;
}

bool is_stable_metric(const std::string& key) {
  return key.find("allocs") != std::string::npos || is_exact_metric(key);
}

const double* find(const Metrics& m, const std::string& key) {
  for (const auto& [k, v] : m) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double max_regression_pct = 25.0;
  bool stable_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--current") {
      current_path = next();
    } else if (arg == "--max-regression") {
      const char* text = next();
      char* end = nullptr;
      max_regression_pct = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(max_regression_pct) ||
          max_regression_pct < 0.0) {
        std::fprintf(stderr, "bench_report: --max-regression needs a non-negative number, got '%s'\n",
                     text);
        return 2;
      }
    } else if (arg == "--stable-only") {
      stable_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --baseline FILE --current FILE"
                   " [--max-regression PCT] [--stable-only]\n",
                   argv[0]);
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr, "bench_report: --baseline and --current are required\n");
    return 2;
  }

  Metrics baseline;
  Metrics current;
  if (!parse_metrics_file(baseline_path, baseline) ||
      !parse_metrics_file(current_path, current)) {
    return 2;
  }

  std::printf("%-40s %12s %12s %9s %6s\n", "metric", "baseline", "current", "delta%",
              "gate");
  int regressions = 0;
  int compared = 0;
  for (const auto& [key, cur] : current) {
    const double* base = find(baseline, key);
    if (base == nullptr) {
      std::printf("%-40s %12s %12.6g %9s %6s\n", key.c_str(), "-", cur, "-", "new");
      continue;
    }
    const bool gated = !stable_only || is_stable_metric(key);
    // Positive delta% = worse, whichever direction the metric improves in.
    double delta_pct = 0.0;
    if (*base != 0.0) {
      delta_pct = higher_is_better(key) ? (*base - cur) / *base * 100.0
                                        : (cur - *base) / *base * 100.0;
    } else if (cur != 0.0 && !higher_is_better(key)) {
      delta_pct = 100.0;  // grew from zero: treat as a full regression
    }
    const bool regressed =
        gated && (is_exact_metric(key) ? cur != *base : delta_pct > max_regression_pct);
    if (gated) ++compared;
    if (regressed) ++regressions;
    std::printf("%-40s %12.6g %12.6g %+8.1f%% %6s\n", key.c_str(), *base, cur, delta_pct,
                regressed ? "FAIL" : (gated ? "ok" : "info"));
  }
  for (const auto& [key, base] : baseline) {
    if (find(current, key) == nullptr) {
      std::printf("%-40s %12.6g %12s %9s %6s\n", key.c_str(), base, "-", "-", "gone");
      if (!stable_only || is_stable_metric(key)) ++regressions;
    }
  }

  std::printf("---\n%d gated metrics compared, %d regression(s) beyond %.0f%%%s\n",
              compared, regressions, max_regression_pct,
              stable_only ? " (stable metrics only)" : "");
  return regressions == 0 ? 0 : 1;
}
