// Compiles a RuleSet into sfi::Program bytecode — the paper's safe-migration
// story applied to the canonical kernel extension. The compiled classifier
// reads a fixed packet descriptor the host marshals into VM memory and
// returns an encoded verdict; the same program runs kSandboxed (per-access
// bounds checks — the SFI safety net for untrusted rules) or kTrusted (no
// checks, after the program is certified), which is exactly the E7 claim on
// a live workload.
//
// Two code-generation backends, selectable per compile:
//  * kLinear — the classic first-match walk: each rule's predicates tested
//    in order with fail-fast jumps. O(rules) per packet.
//  * kDecisionTree (default) — rules are partitioned by their most
//    discriminating constrained field: exact proto values, address prefixes
//    through longest-prefix-match trie nodes (bucketed by leading bits,
//    variable stride, nested prefixes split again deeper), and port ranges
//    through interval nodes (binary search over the sorted distinct range
//    endpoints). Only the rules that could still match (the bucket plus
//    field-wildcard rules, in priority order) are tested linearly.
//    O(log distinct + bucket) per packet; first-match semantics preserved
//    because bucketing never reorders and never drops a candidate.
// Both backends emit the same ISA and go through the same sfi::Verify, so a
// decision-tree program is exactly as certifiable as a linear one.
//
// The host-side NativeMatch() evaluates the same semantics directly; it is
// the oracle for differential tests and the "native matcher" bench baseline.
#ifndef PARAMECIUM_SRC_FILTER_COMPILER_H_
#define PARAMECIUM_SRC_FILTER_COMPILER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/base/status.h"
#include "src/filter/rule.h"
#include "src/net/filter_hook.h"
#include "src/sfi/isa.h"

namespace para::filter {

// Packet descriptor layout in VM memory. All fields little-endian (the VM's
// load/store ops are memcpy on the host).
inline constexpr size_t kOffSrcIp = 0;        // u32
inline constexpr size_t kOffDstIp = 4;        // u32
inline constexpr size_t kOffSrcPort = 8;      // u16
inline constexpr size_t kOffDstPort = 10;     // u16
inline constexpr size_t kOffProto = 12;       // u8
inline constexpr size_t kOffTtl = 13;         // u8
inline constexpr size_t kOffPayloadLen = 16;  // u64
inline constexpr size_t kOffPayload = 24;
// Payload capture window: rules may test bytes [0, kMaxPayloadCapture).
inline constexpr size_t kMaxPayloadCapture = 192;
inline constexpr size_t kDescriptorBytes = kOffPayload + kMaxPayloadCapture;

// Hard bound on rule-set size; keeps compiled programs well under the
// verifier's program-size cap.
inline constexpr size_t kMaxRules = 4096;

// Chain ids are 1-based and 12 bits wide in the encoded verdict, so a rule
// set may attach procedures to at most this many rules.
inline constexpr size_t kMaxChains = 4095;

// Verdict encoding produced by the classifier (and NativeMatch):
//   bits 0..3   verdict (net::FilterVerdict)
//   bits 4..15  procedure-chain id (1-based; 0 = the rule attaches none)
//   bits 16..47 matched rule index (net::kDefaultRuleIndex for the default)
constexpr uint64_t EncodeVerdict(net::FilterVerdict verdict, uint16_t chain, uint32_t rule) {
  return static_cast<uint64_t>(verdict) | (static_cast<uint64_t>(chain) << 4) |
         (static_cast<uint64_t>(rule) << 16);
}

constexpr net::FilterDecision DecodeVerdict(uint64_t encoded) {
  return {.verdict = static_cast<net::FilterVerdict>(encoded & 0xF),
          .chain = static_cast<uint16_t>((encoded >> 4) & 0xFFF),
          .rule = static_cast<uint32_t>(encoded >> 16)};
}

enum class CompileBackend : uint8_t { kLinear, kDecisionTree };

struct CompileOptions {
  CompileBackend backend = CompileBackend::kDecisionTree;
};

struct CompiledFilter {
  sfi::Program program;
  size_t rule_count = 0;
  // Procedure chains referenced by the emitted verdicts: chains[i] holds the
  // specs for chain id i+1, assigned to proc-attaching rules in rule order.
  // The filter instantiates (generates + verifies + optionally certifies)
  // one program per spec at install time.
  std::vector<std::vector<RuleProcSpec>> chains;
  // One past the highest payload byte any rule inspects: the host only needs
  // to marshal this much payload into the descriptor.
  size_t payload_bytes_needed = 0;
  // What actually got emitted (the tree backend falls back to linear when no
  // field discriminates or duplication would bloat the program).
  CompileBackend backend = CompileBackend::kLinear;
  size_t dispatch_nodes = 0;          // decision-tree dispatch points emitted
  size_t lpm_nodes = 0;               // of which: longest-prefix-match trie nodes
  size_t interval_nodes = 0;          // of which: port-range interval nodes
  size_t emitted_rule_instances = 0;  // leaf rule tests (>= rule_count if split)
  // Rule predicates skipped at the leaves because the dispatch path already
  // proved them (exact proto bucket, LPM-consumed prefix bits, port segment
  // inside the rule's range). Pure win: fewer decoded instructions per match.
  size_t elided_predicates = 0;
};

// Compiles `rules` into a single-entry-point classifier program. Fails on
// payload offsets beyond the capture window or oversized rule sets. The
// caller still must run the result through sfi::Verify before execution —
// PacketFilter does, unconditionally.
Result<CompiledFilter> CompileRules(const RuleSet& rules, CompileOptions options = {});

// Marshals `view` into the descriptor region of `memory` (the VM's data
// memory). `payload_bytes` bounds how much payload is copied (pass
// CompiledFilter::payload_bytes_needed). Returns false, writing nothing, if
// `memory` is too small to hold the descriptor. PacketFilter ignores the
// result: its windows are proved large enough when a program is loaded, so
// it has no per-packet failure path. Inline: this is the per-packet marshal
// on both the single-Evaluate and batched data-plane hot paths, and rule
// sets without payload predicates (payload_bytes == 0) fold the capture
// copy away entirely at the call site.
inline bool WritePacketDescriptor(const net::PacketView& view, std::span<uint8_t> memory,
                                  size_t payload_bytes = kMaxPayloadCapture) {
  if (memory.size() < kDescriptorBytes) {
    return false;
  }
  uint8_t* base = memory.data();
  uint32_t src = view.src_ip;
  uint32_t dst = view.dst_ip;
  uint16_t sport = view.src_port;
  uint16_t dport = view.dst_port;
  std::memcpy(base + kOffSrcIp, &src, 4);
  std::memcpy(base + kOffDstIp, &dst, 4);
  std::memcpy(base + kOffSrcPort, &sport, 2);
  std::memcpy(base + kOffDstPort, &dport, 2);
  base[kOffProto] = view.proto;
  base[kOffTtl] = view.ttl;
  uint64_t len = view.payload.size();
  std::memcpy(base + kOffPayloadLen, &len, 8);
  size_t copy = std::min({payload_bytes, view.payload.size(), kMaxPayloadCapture});
  if (copy > 0) {
    std::memcpy(base + kOffPayload, view.payload.data(), copy);
  }
  return true;
}

// Host-native evaluation of the same rule semantics (first match wins),
// returning the same encoding as the compiled classifier.
uint64_t NativeMatch(const RuleSet& rules, const net::PacketView& view);

}  // namespace para::filter

#endif  // PARAMECIUM_SRC_FILTER_COMPILER_H_
