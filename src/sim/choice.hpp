// ChoicePoint seam: every source of nondeterminism in the simulation —
// which of several same-instant events fires first, whether a frame is
// dropped/reordered/duplicated, whether a scripted fault candidate
// actually fires — is routed through a pluggable ChoicePolicy.
//
// With no policy installed the simulator behaves exactly as before: ties
// fire in scheduling order and fault decisions fall through to the same
// seeded Bernoulli draw on the same RNG stream, so chaos trace digests
// are unchanged.  The bounded explorer (src/explore/) installs a policy
// that records each decision as a choice point and systematically
// enumerates the alternatives.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace rtpb::sim {

enum class ChoiceKind : std::uint8_t {
  kEventOrder,      ///< which of several same-instant events fires first
  kFrameLoss,       ///< Bernoulli per-frame drop on a directed link
  kFrameBurst,      ///< open a correlated-loss burst on this frame
  kFrameCorrupt,    ///< flip one bit of this frame
  kFrameReorder,    ///< exempt this frame from FIFO delivery
  kFrameDuplicate,  ///< deliver an extra copy of this frame
  kFault,           ///< scripted fault candidate (crash / partition / …)
};

/// One boolean decision offered to the policy.  `probability` is what the
/// default (RNG) strategy feeds to bernoulli(); `a`/`b` identify the
/// directed link for frame fates; `fault` is the candidate's
/// core::FaultKind for kFault (sim sits below core, so as its value).
struct ChoiceContext {
  ChoiceKind kind{};
  double probability = 0.0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint8_t fault = 0;
};

inline constexpr std::uint8_t kTagNone = 0;
/// A network frame delivery: `node` is the receiving host, `peer` the
/// sender (two deliveries commute iff their receivers differ; two on the
/// same directed link must keep FIFO order).
inline constexpr std::uint8_t kTagNetDelivery = 1;
/// A passive observer (the oracle monitor's sampling tick): reads state,
/// never mutates it, so its order against same-instant events is
/// irrelevant and never explored.
inline constexpr std::uint8_t kTagObserver = 2;

struct EventTag {
  std::uint8_t kind = kTagNone;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
};

class ChoicePolicy {
 public:
  virtual ~ChoicePolicy() = default;

  /// Decide a boolean choice.  The default strategy is
  /// `rng.bernoulli(ctx.probability)`; implementations that do not branch
  /// on a given kind should fall back to exactly that.
  virtual bool decide(const ChoiceContext& ctx, Rng& rng) = 0;

  /// Pick which of several events tied at the same virtual instant fires
  /// first.  `tags[i]` describes candidate i; candidates are in scheduling
  /// order, so returning 0 reproduces the default FIFO tie-break.  An
  /// out-of-range return is treated as 0.
  virtual std::size_t pick_event(const std::vector<EventTag>& tags) {
    (void)tags;
    return 0;
  }
};

}  // namespace rtpb::sim
