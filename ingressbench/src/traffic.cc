#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/base/random.h"
#include "src/filter/compiler.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"

namespace ib {

using para::Random;
using para::net::FilterVerdict;
using para::net::PacketView;

namespace {

constexpr WorkloadSpec kSpecs[] = {
    {.id = Workload::kFlowHit64, .conversations = 10'000, .zipf_s = 1.1,
     .ring_frames = 1u << 18, .burst_frames = 32, .queues = 1, .flow_capacity = 16'384,
     .certified = true, .rules = 256, .chained_rules = 0, .imix = false},
    {.id = Workload::kChurn64, .conversations = 1'000'000, .zipf_s = 0.8,
     .ring_frames = 1u << 18, .burst_frames = 32, .queues = 1, .flow_capacity = 4096,
     .certified = false, .rules = 256, .chained_rules = 32, .imix = false},
    {.id = Workload::kImixReload, .conversations = 2000, .zipf_s = 1.1,
     .ring_frames = 1u << 16, .burst_frames = 32, .queues = 2, .flow_capacity = 4096,
     .certified = true, .rules = 256, .chained_rules = 3, .imix = true},
    {.id = Workload::kE9UserRx, .conversations = 256, .zipf_s = 1.1,
     .ring_frames = 1u << 14, .burst_frames = 16, .queues = 1, .flow_capacity = 1024,
     .certified = true, .rules = 16, .chained_rules = 0, .imix = false},
};

constexpr const char* kNames[] = {"flowhit_64", "churn_64", "imix_reload", "e9_user_rx"};

constexpr const char* kChain =
    " proc count proc ratelimit(rate=1000000000,burst=16) proc log(every=64)";

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Which ranks the policy drops, and which passing ranks the host opens.
bool DropClass(Workload w, uint32_t rank) {
  switch (w) {
    case Workload::kFlowHit64: return rank % 100 == 99;
    case Workload::kChurn64: return rank % 10 == 2 || rank % 10 == 5 || rank % 10 == 8;
    case Workload::kImixReload: return rank % 20 == 7;
    case Workload::kE9UserRx: return rank % 10 == 3;
  }
  return false;
}

bool HostInitiated(Workload w, uint32_t rank) {
  return w == Workload::kFlowHit64 && !DropClass(w, rank) && rank % 2 == 0;
}

struct PolicySize {
  size_t pass, drop, holes;
};
PolicySize SizeFor(const WorkloadSpec& spec) {
  return spec.rules >= 256 ? PolicySize{96, 40, 24} : PolicySize{6, 3, 1};
}

std::string Ip(uint32_t a, uint32_t b, uint32_t c, uint32_t d) {
  return std::to_string(a) + "." + std::to_string(b) + "." + std::to_string(c) + "." +
         std::to_string(d);
}

// A port range [lo, hi] that always covers the bound ports.
std::string BoundRange(Random& rng) {
  const uint64_t lo = kFirstBoundPort - rng.NextBelow(600);
  const uint64_t hi = kFirstBoundPort + kBoundPorts - 1 + rng.NextBelow(600);
  return std::to_string(lo) + "-" + std::to_string(hi);
}

std::string AnyRange(Random& rng) {
  const uint64_t lo = 1024 + rng.NextBelow(60000);
  return std::to_string(lo) + "-" + std::to_string(lo + rng.NextBelow(400));
}

// Decoys never match generated traffic in either direction: ingress frames
// are 10.N.x.y -> 10.0.0.1, egress openings 10.0.0.1 -> 10.N.x.y.
std::string Decoy(Random& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return "drop from " + Ip(172, 16 + rng.NextBelow(16), rng.NextBelow(256), 0) +
             "/24 dport " + AnyRange(rng) + " proto udp";
    case 1:
      return "reject to " + Ip(192, 168, rng.NextBelow(256), 0) + "/24 sport " + AnyRange(rng);
    case 2:
      return "pass from " + Ip(100, 64 + rng.NextBelow(64), rng.NextBelow(64) * 4, 0) +
             "/22 to 10.0.0.1 dport " + AnyRange(rng);
    default:
      // Overlaps the traffic prefixes (real LPM work), but only for a
      // destination no frame carries.
      return "drop from " + Ip(10, 1 + rng.NextBelow(254), 0, 0) + "/16 to 10.0.0." +
             std::to_string(2 + rng.NextBelow(250)) + " dport " + AnyRange(rng);
  }
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (size_t i = 0; i < std::size(kNames); ++i) {
    if (name == kNames[i]) {
      return static_cast<Workload>(i);
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) { return kNames[static_cast<size_t>(workload)]; }

const WorkloadSpec& SpecFor(Workload workload) { return kSpecs[static_cast<size_t>(workload)]; }

Policy MakePolicy(const WorkloadSpec& spec, uint64_t seed) {
  Random rng(Mix(seed, 0x9011C7));
  std::vector<uint8_t> nets;
  for (int n = 1; n <= 254; ++n) {
    nets.push_back(static_cast<uint8_t>(n));
  }
  for (size_t i = nets.size() - 1; i > 0; --i) {
    std::swap(nets[i], nets[rng.NextBelow(i + 1)]);
  }
  const PolicySize size = SizeFor(spec);
  Policy policy;
  policy.pass_nets.assign(nets.begin(), nets.begin() + static_cast<ptrdiff_t>(size.pass));
  policy.drop_nets.assign(nets.begin() + static_cast<ptrdiff_t>(size.pass),
                          nets.begin() + static_cast<ptrdiff_t>(size.pass + size.drop));
  for (size_t i = 0; i < size.holes; ++i) {
    policy.holes.emplace_back(policy.pass_nets[i], static_cast<uint8_t>(16 * rng.NextBelow(16)));
  }
  return policy;
}

std::string MakeRuleText(const WorkloadSpec& spec, const Policy& policy, uint64_t seed,
                         uint64_t variant) {
  Random rng(Mix(Mix(seed, 0x7E47), variant));
  // Items keep a hole ahead of its network's pass rule through the shuffle.
  std::vector<std::vector<std::string>> items;
  for (uint8_t net : policy.pass_nets) {
    std::vector<std::string> item;
    for (const auto& [hole_net, base] : policy.holes) {
      if (hole_net == net) {
        item.push_back("drop from " + Ip(10, net, base, 0) + "/20 proto udp");
      }
    }
    item.push_back("pass from " + Ip(10, net, 0, 0) + "/16 to 10.0.0.1 dport " +
                   BoundRange(rng) + " proto udp");
    items.push_back(std::move(item));
  }
  for (size_t i = 0; i < policy.drop_nets.size(); ++i) {
    const std::string from = Ip(10, policy.drop_nets[i], 0, 0) + "/16";
    items.push_back({i % 2 == 0 ? "drop from " + from
                                : "reject from " + from + " dport " + BoundRange(rng)});
  }
  // Replies to host-opened conversations leave through the egress hook.
  items.push_back({"pass from 10.0.0.1 to 10.0.0.0/8 sport " +
                   std::to_string(kFirstBoundPort) + "-" +
                   std::to_string(kFirstBoundPort + kBoundPorts - 1) + " proto udp"});
  size_t lines = 0;
  for (const auto& item : items) {
    lines += item.size();
  }
  while (lines < spec.rules) {
    items.push_back({Decoy(rng)});
    ++lines;
  }
  for (size_t i = items.size() - 1; i > 0; --i) {
    std::swap(items[i], items[rng.NextBelow(i + 1)]);
  }
  std::vector<std::string> flat;
  for (auto& item : items) {
    for (auto& line : item) {
      flat.push_back(std::move(line));
    }
  }
  std::vector<size_t> order(flat.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (size_t i = 0; i < spec.chained_rules && i < order.size(); ++i) {
    std::swap(order[i], order[i + rng.NextBelow(order.size() - i)]);
    flat[order[i]] += kChain;
  }
  std::string text;
  for (const std::string& line : flat) {
    text += line;
    text += '\n';
  }
  text += "default drop\n";
  return text;
}

PacketView IngressView(const Conversation& conv) {
  PacketView view;
  view.src_ip = conv.remote_ip;
  view.dst_ip = kHostIp;
  view.src_port = conv.remote_port;
  view.dst_port = conv.host_port;
  view.proto = para::net::kIpProtoUdpLite;
  return view;
}

PacketView EgressView(const Conversation& conv) {
  PacketView view;
  view.src_ip = kHostIp;
  view.dst_ip = conv.remote_ip;
  view.src_port = conv.host_port;
  view.dst_port = conv.remote_port;
  view.proto = para::net::kIpProtoUdpLite;
  return view;
}

namespace {

bool Passes(const para::filter::RuleSet& rules, const PacketView& view) {
  return para::filter::DecodeVerdict(para::filter::NativeMatch(rules, view)).verdict ==
         FilterVerdict::kPass;
}

bool Agrees(const para::filter::RuleSet& rules, const Conversation& conv) {
  if (Passes(rules, IngressView(conv)) != conv.passes) {
    return false;
  }
  return !conv.host_initiated || Passes(rules, EgressView(conv));
}

Conversation MakeConversation(const WorkloadSpec& spec, const Policy& policy, uint64_t seed,
                              uint32_t rank) {
  Random rng(Mix(Mix(seed, 0xC0117), rank));
  Conversation conv;
  conv.rank = rank;
  conv.passes = !DropClass(spec.id, rank);
  conv.host_initiated = HostInitiated(spec.id, rank);
  uint32_t net = 0;
  uint32_t third = 0;
  if (conv.passes) {
    net = policy.pass_nets[rng.NextBelow(policy.pass_nets.size())];
    for (;;) {
      third = static_cast<uint32_t>(rng.NextBelow(256));
      bool in_hole = false;
      for (const auto& [hole_net, base] : policy.holes) {
        in_hole |= hole_net == net && third >= base && third < base + 16u;
      }
      if (!in_hole) {
        break;
      }
    }
  } else if (!policy.holes.empty() && rng.NextBool(0.5)) {
    const auto& [hole_net, base] = policy.holes[rng.NextBelow(policy.holes.size())];
    net = hole_net;
    third = base + static_cast<uint32_t>(rng.NextBelow(16));
  } else {
    net = policy.drop_nets[rng.NextBelow(policy.drop_nets.size())];
    third = static_cast<uint32_t>(rng.NextBelow(256));
  }
  conv.remote_ip = (10u << 24) | (net << 16) | (third << 8) |
                   static_cast<uint32_t>(1 + rng.NextBelow(254));
  conv.remote_port = static_cast<para::net::Port>(1024 + rng.NextBelow(60000));
  conv.host_port = static_cast<para::net::Port>(kFirstBoundPort + rng.NextBelow(kBoundPorts));
  return conv;
}

size_t ImixFrameSize(Random& rng) {
  const uint64_t pick = rng.NextBelow(12);  // 7:4:1
  return pick < 7 ? 64 : pick < 11 ? 594 : 1518;
}

}  // namespace

bool RulesAgree(const para::filter::RuleSet& rules, const std::vector<Conversation>& convs) {
  for (const Conversation& conv : convs) {
    if (!Agrees(rules, conv)) {
      return false;
    }
  }
  return true;
}

para::Result<Traffic> BuildTraffic(const WorkloadSpec& spec, const Policy& policy,
                                   const para::filter::RuleSet& rules, uint64_t seed,
                                   const SteerFn& steer) {
  Random rng(Mix(seed, 0xF4A3E5));

  // Zipf(s) popularity over ranks 0..n-1 by inverse CDF.
  std::vector<double> cdf(spec.conversations);
  double sum = 0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    sum += std::pow(static_cast<double>(r + 1), -spec.zipf_s);
    cdf[r] = sum;
  }

  Traffic traffic;
  std::vector<int32_t> conv_of_rank(spec.conversations, -1);
  std::vector<size_t> queue_of_conv;
  struct Pending {
    uint32_t conv;
    uint32_t size;
  };
  std::vector<Pending> arrivals(spec.ring_frames);
  for (Pending& p : arrivals) {
    const double u = rng.NextDouble() * sum;
    const auto rank = static_cast<uint32_t>(
        std::min<size_t>(static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                             cdf.begin()),
                         cdf.size() - 1));
    if (conv_of_rank[rank] < 0) {
      Conversation conv = MakeConversation(spec, policy, seed, rank);
      if (!Agrees(rules, conv)) {
        return para::Status(para::ErrorCode::kInternal,
                            "generated conversation disagrees with its rule set");
      }
      conv_of_rank[rank] = static_cast<int32_t>(traffic.conversations.size());
      queue_of_conv.push_back(spec.queues > 1 ? steer(IngressView(conv)) % spec.queues : 0);
      traffic.conversations.push_back(conv);
    }
    p.conv = static_cast<uint32_t>(conv_of_rank[rank]);
    p.size = static_cast<uint32_t>(spec.imix ? ImixFrameSize(rng) : 64);
  }

  // RX queues: each arrival chunk of queues * burst_frames frames is split by
  // steering into one burst per queue, polled round-robin. One queue keeps
  // arrival order in fixed-size bursts.
  std::vector<Pending> ordered;
  ordered.reserve(arrivals.size());
  const size_t chunk = spec.queues * spec.burst_frames;
  for (size_t base = 0; base < arrivals.size(); base += chunk) {
    const size_t end = std::min(arrivals.size(), base + chunk);
    for (size_t q = 0; q < spec.queues; ++q) {
      const size_t before = ordered.size();
      for (size_t i = base; i < end; ++i) {
        if (queue_of_conv[arrivals[i].conv] == q) {
          ordered.push_back(arrivals[i]);
        }
      }
      if (ordered.size() > before) {
        traffic.burst_start.push_back(static_cast<uint32_t>(before));
      }
    }
  }
  traffic.burst_start.push_back(static_cast<uint32_t>(ordered.size()));

  size_t total_bytes = 0;
  for (const Pending& p : ordered) {
    total_bytes += p.size;
  }
  traffic.bytes.reserve(total_bytes);
  traffic.deliver.reserve(ordered.size());
  traffic.payload_len.reserve(ordered.size());
  traffic.src_ip.reserve(ordered.size());
  std::vector<uint8_t> payload;
  for (size_t seq = 0; seq < ordered.size(); ++seq) {
    const Conversation& conv = traffic.conversations[ordered[seq].conv];
    payload.assign(ordered[seq].size - kFrameOverhead, 0);
    const auto seq32 = static_cast<uint32_t>(seq);
    std::memcpy(payload.data(), &seq32, 4);
    std::memcpy(payload.data() + 4, &conv.rank, 4);
    for (size_t i = kStampBytes; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(seq * 31 + i);
    }
    para::net::PacketBuffer packet;
    packet.Append(payload);
    para::net::UdpEncap(packet, {conv.remote_port, conv.host_port, 0});
    para::net::IpEncap(packet, {64, para::net::kIpProtoUdpLite, conv.remote_ip, kHostIp, 0});
    para::net::EthEncap(packet, {kHostMac, kPeerMac, para::net::kEtherTypeIpLite});
    const auto frame = packet.data();
    traffic.bytes.insert(traffic.bytes.end(), frame.begin(), frame.end());
    // Every generated port is bound, so the rules alone decide delivery.
    traffic.deliver.push_back(conv.passes ? 1 : 0);
    traffic.deliver_frames += conv.passes ? 1 : 0;
    traffic.payload_len.push_back(static_cast<uint32_t>(payload.size()));
    traffic.src_ip.push_back(conv.remote_ip);
  }
  size_t offset = 0;
  traffic.frames.reserve(ordered.size());
  for (const Pending& p : ordered) {
    traffic.frames.emplace_back(traffic.bytes.data() + offset, p.size);
    offset += p.size;
  }
  return traffic;
}

uint64_t Traffic::Digest() const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (uint8_t b : bytes) {
    mix(b);
  }
  for (uint8_t d : deliver) {
    mix(d);
  }
  for (uint32_t s : burst_start) {
    mix(s);
  }
  return h;
}

}  // namespace ib
