// Workload definitions and seeded traffic synthesis for the ingress
// benchmark. Everything a run feeds the system is a pure function of the
// workload and its seed: the rule text, the conversation set, the frame ring
// (Ethernet / IPv4-lite / UDP-lite frames exactly as ProtocolStack emits
// them) and the oracle's per-frame fate. The oracle is NativeMatch over the
// frame's own tuple plus the bound-port table, never flow-table state: the
// generator only emits conversations whose fate the rules alone decide in
// both directions, so the expected outcome holds under eviction, sharding
// and reloads alike.
#ifndef INGRESSBENCH_SRC_TRAFFIC_H_
#define INGRESSBENCH_SRC_TRAFFIC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/filter/rule.h"
#include "src/net/filter_hook.h"

namespace ib {

enum class Workload : uint8_t { kFlowHit64, kChurn64, kImixReload, kE9UserRx };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

struct WorkloadSpec {
  Workload id;
  size_t conversations;  // Zipf support
  double zipf_s;
  size_t ring_frames;    // frames synthesized once and replayed in order
  size_t burst_frames;   // frames per RX poll
  size_t queues;         // RX queues == filter shards
  size_t flow_capacity;  // total flow-table entries (split across shards)
  bool certified;        // LoadCertified (trusted) vs Load (sandboxed)
  size_t rules;          // rule lines before the default
  size_t chained_rules;  // rules carrying the count/ratelimit/log chain
  bool imix;             // 64/594/1518 at 7:4:1, else 64-byte frames
};
const WorkloadSpec& SpecFor(Workload workload);

// Addressing shared by every workload: one host stack at 10.0.0.1 with 16
// bound UDP ports; remote peers live in 10.N.0.0/16 networks.
inline constexpr para::net::IpAddr kHostIp = 0x0A000001;
inline constexpr para::net::MacAddr kHostMac = 0x02000000'0001ull;
inline constexpr para::net::MacAddr kPeerMac = 0x02000000'0002ull;
inline constexpr para::net::Port kFirstBoundPort = 5000;
inline constexpr size_t kBoundPorts = 16;
// Ethernet 14 + IPv4-lite 16 + UDP-lite 8 + FCS 4.
inline constexpr size_t kFrameOverhead = 42;
// Payload prefix every frame carries: u32 ring sequence, u32 conversation.
inline constexpr size_t kStampBytes = 8;

// The policy skeleton a seed draws: which /16 networks pass, which drop, and
// which /20 holes inside passing networks drop. Rule text and conversations
// are both derived from it.
struct Policy {
  std::vector<uint8_t> pass_nets;
  std::vector<uint8_t> drop_nets;
  std::vector<std::pair<uint8_t, uint8_t>> holes;  // (net, third-octet base of a /20)
};
Policy MakePolicy(const WorkloadSpec& spec, uint64_t seed);

// Rule text for `policy`: the policy's rules plus decoys that no generated
// frame can match, shuffled (holes stay ahead of their network's pass rule),
// `spec.chained_rules` of them carrying the non-blocking chain, then
// `default drop`. `variant` re-draws decoys, port ranges, order and chain
// placement without changing any generated conversation's verdict — the
// control thread's fresh rule sets in imix_reload.
std::string MakeRuleText(const WorkloadSpec& spec, const Policy& policy, uint64_t seed,
                         uint64_t variant);

struct Conversation {
  para::net::IpAddr remote_ip = 0;
  para::net::Port remote_port = 0;
  para::net::Port host_port = 0;
  uint32_t rank = 0;
  bool host_initiated = false;  // set-up sends the first datagram, egress
  bool passes = false;          // oracle verdict (NativeMatch, both directions)
};

// The ingress view of `conv` (remote -> host) and the egress view of its
// host-initiated opening datagram (host -> remote).
para::net::PacketView IngressView(const Conversation& conv);
para::net::PacketView EgressView(const Conversation& conv);

struct Traffic {
  std::vector<uint8_t> bytes;  // every frame, back to back
  std::vector<std::span<const uint8_t>> frames;
  std::vector<uint8_t> deliver;  // oracle: 1 = reaches its bound socket
  std::vector<uint32_t> payload_len;
  std::vector<uint32_t> src_ip;
  std::vector<uint32_t> burst_start;  // burst b = frames [start[b], start[b+1])
  std::vector<Conversation> conversations;  // distinct, first-seen order
  uint64_t deliver_frames = 0;

  size_t bursts() const { return burst_start.size() - 1; }
  std::span<const std::span<const uint8_t>> Burst(size_t b) const {
    return std::span<const std::span<const uint8_t>>(frames).subspan(
        burst_start[b], burst_start[b + 1] - burst_start[b]);
  }
  // FNV-1a over the frame bytes, burst layout and oracle fates.
  uint64_t Digest() const;
};

// Maps a view to its RX queue (the filter's SteerShard).
using SteerFn = std::function<size_t(const para::net::PacketView&)>;

// Synthesizes the frame ring. Fails if NativeMatch disagrees with the
// policy's intent for any conversation (a generator bug, never a result).
para::Result<Traffic> BuildTraffic(const WorkloadSpec& spec, const Policy& policy,
                                   const para::filter::RuleSet& rules, uint64_t seed,
                                   const SteerFn& steer);

// Checks that `rules` gives every conversation its oracle verdict, both
// directions (imix_reload's control thread runs it on each fresh rule set).
bool RulesAgree(const para::filter::RuleSet& rules, const std::vector<Conversation>& convs);

}  // namespace ib

#endif  // INGRESSBENCH_SRC_TRAFFIC_H_
