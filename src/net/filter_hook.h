// Packet-filter hook types shared by the protocol stack, the network driver,
// and the in-nucleus filter subsystem (src/filter). They live in the net
// layer so the stack can expose ingress/egress hook points without depending
// on any particular filter implementation — the filter plugs in from above,
// the same late-binding shape as FrameSender.
#ifndef PARAMECIUM_SRC_NET_FILTER_HOOK_H_
#define PARAMECIUM_SRC_NET_FILTER_HOOK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "src/net/headers.h"

namespace para::net {

// What the dispatch step decides about one packet: pure pass/block outcomes.
// kReject drops it loudly (the filter raises a verdict event in lieu of an
// ICMP error — the lite suite has none). Everything a verdict used to smuggle
// in besides pass/block — counting, logging, rate limiting, normalization —
// is a rule *procedure* now: a named, separately compiled program attached to
// the matched rule and referenced by FilterDecision::chain (the old kCount
// verdict survives as the first built-in procedure; see filter/extension.h).
enum class FilterVerdict : uint8_t {
  kPass = 0,
  kDrop = 1,
  kReject = 2,
};

constexpr bool VerdictPasses(FilterVerdict verdict) {
  return verdict == FilterVerdict::kPass;
}

constexpr const char* VerdictName(FilterVerdict verdict) {
  switch (verdict) {
    case FilterVerdict::kPass: return "pass";
    case FilterVerdict::kDrop: return "drop";
    case FilterVerdict::kReject: return "reject";
  }
  return "?";
}

enum class FilterDirection : uint8_t { kIngress = 0, kEgress = 1 };

// Zero-copy view of one datagram at the filter hook point: parsed header
// fields plus a span aliasing the packet buffer. The view (and its payload
// span) is only valid for the duration of the hook call.
struct PacketView {
  IpAddr src_ip = 0;
  IpAddr dst_ip = 0;
  Port src_port = 0;
  Port dst_port = 0;
  uint8_t proto = 0;
  uint8_t ttl = 64;  // IP TTL (ingress: from the header; egress: as will be sent)
  std::span<const uint8_t> payload;
};

// Rule index reported for the rule-set's default verdict.
inline constexpr uint32_t kDefaultRuleIndex = 0xFFFF'FFFFu;

// Field order packs the struct into 8 bytes so hot paths return it in a
// single register.
struct FilterDecision {
  FilterVerdict verdict = FilterVerdict::kPass;
  // TTL override requested by a normalize procedure (0 = leave the packet's
  // TTL alone). The egress path applies it at encapsulation.
  uint8_t ttl = 0;
  // Procedure chain the matched rule attaches (1-based id into the installed
  // program's chain table; 0 = none). The filter has already run the chain by
  // the time a hook sees the decision — a blocking procedure reports as
  // kDrop here — so hooks only need the verdict and, optionally, `ttl`.
  uint16_t chain = 0;
  uint32_t rule = kDefaultRuleIndex;  // matched rule, or kDefaultRuleIndex
};
static_assert(sizeof(FilterDecision) == 8, "FilterDecision must stay register-sized");

// Datagram-level hook installed on the stack's ingress/egress paths.
using FilterHook = std::function<FilterDecision(const PacketView&, FilterDirection)>;

// Packets per batch-hook call. ProtocolStack::OnFrameBurst decapsulates and
// filters a burst in chunks of this many frames, and the filter's batch path
// (filter::kMaxFilterBatch) marshals descriptors in chunks of the same size.
inline constexpr size_t kBurstChunk = 64;

// Batched datagram-level hook: one call decides a whole burst. The hook
// writes decisions[i] for views[i] (decisions.size() >= views.size()) with
// per-packet semantics identical to calling a FilterHook in a loop — the
// batch exists to amortize filter entry costs, not to change verdicts.
using FilterBatchHook = std::function<void(std::span<const PacketView> views, FilterDirection,
                                           std::span<FilterDecision> decisions)>;

// Raw frame-level hook for drivers: return false to drop the frame.
using RawFrameHook = std::function<bool(std::span<const uint8_t> frame)>;

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_FILTER_HOOK_H_
