#include "src/net/stack.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/base/log.h"

namespace para::net {

ProtocolStack::ProtocolStack(StackConfig config, FrameSender sender)
    : config_(config), sender_(std::move(sender)) {
  PARA_CHECK(sender_ != nullptr);
  if constexpr (telemetry::kEnabled) {
    char host[24];
    std::snprintf(host, sizeof(host), "%u.%u.%u.%u", (config_.ip >> 24) & 0xFF,
                  (config_.ip >> 16) & 0xFF, (config_.ip >> 8) & 0xFF, config_.ip & 0xFF);
    const std::string prefix = std::string("net.stack.") + host + ".";
    const struct {
      const char* suffix;
      const uint64_t* source;
    } slots[] = {
        {"frames_out", &stats_.frames_out},
        {"frames_in", &stats_.frames_in},
        {"datagrams_out", &stats_.datagrams_out},
        {"datagrams_in", &stats_.datagrams_in},
        {"drops_bad_frame", &stats_.drops_bad_frame},
        {"drops_not_for_us", &stats_.drops_not_for_us},
        {"drops_no_socket", &stats_.drops_no_socket},
        {"drops_filtered", &stats_.drops_filtered},
        {"filter_pass", &stats_.filter_pass},
        {"filter_drop", &stats_.filter_drop},
        {"filter_reject", &stats_.filter_reject},
        {"filter_ttl_rewrites", &stats_.filter_ttl_rewrites},
    };
    for (const auto& slot : slots) {
      metrics_.Counter(prefix + slot.suffix, slot.source);
    }
  }
}

void ProtocolStack::AddNeighbor(IpAddr ip, MacAddr mac) { neighbors_[ip] = mac; }

Status ProtocolStack::BindPort(Port port, DatagramHandler handler) {
  if (handler == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "null handler");
  }
  auto [it, inserted] = sockets_.emplace(port, std::move(handler));
  if (!inserted) {
    return Status(ErrorCode::kAlreadyExists, "port in use");
  }
  return OkStatus();
}

Status ProtocolStack::UnbindPort(Port port) {
  return sockets_.erase(port) > 0 ? OkStatus()
                                  : Status(ErrorCode::kNotFound, "port not bound");
}

bool ProtocolStack::ApplyFilter(const FilterHook& hook, const PacketView& view,
                                FilterDirection dir, uint8_t* ttl_override) {
  return ApplyDecision(hook(view, dir), ttl_override);
}

bool ProtocolStack::ApplyDecision(const FilterDecision& decision, uint8_t* ttl_override) {
  switch (decision.verdict) {
    case FilterVerdict::kPass:
      ++stats_.filter_pass;
      if (ttl_override != nullptr && decision.ttl != 0) {
        *ttl_override = decision.ttl;
        ++stats_.filter_ttl_rewrites;
      }
      return true;
    case FilterVerdict::kDrop:
      ++stats_.filter_drop;
      break;
    case FilterVerdict::kReject:
      ++stats_.filter_reject;
      break;
  }
  ++stats_.drops_filtered;
  return false;
}

Status ProtocolStack::SendDatagram(IpAddr dst, Port src_port, Port dst_port,
                                   std::span<const uint8_t> payload) {
  auto neighbor = neighbors_.find(dst);
  if (neighbor == neighbors_.end()) {
    return Status(ErrorCode::kUnavailable, "no route to host");
  }
  // Exactly the headroom the three headers claim plus the FCS trailer, not
  // the zero-filled 2 KiB default; the frame must still fit the link's.
  constexpr size_t kHeadroom =
      EthHeader::kWireSize + IpHeader::kWireSize + UdpHeader::kWireSize;
  const size_t frame_size = kHeadroom + payload.size() + 4;
  if (frame_size > PacketBuffer::kDefaultCapacity) {
    return Status(ErrorCode::kOutOfRange, "datagram exceeds frame size");
  }
  uint8_t ttl = 64;  // what IpEncap will stamp; a normalize proc may rewrite it
  if (egress_filter_ != nullptr) {
    PacketView view;
    view.src_ip = config_.ip;
    view.dst_ip = dst;
    view.src_port = src_port;
    view.dst_port = dst_port;
    view.proto = kIpProtoUdpLite;
    view.ttl = ttl;
    view.payload = payload;
    if (!ApplyFilter(egress_filter_, view, FilterDirection::kEgress, &ttl)) {
      return Status(ErrorCode::kPermissionDenied, "blocked by egress filter");
    }
  }
  PacketBuffer packet(kHeadroom, frame_size);
  packet.Append(payload);
  UdpEncap(packet, UdpHeader{src_port, dst_port, 0});
  IpEncap(packet, IpHeader{ttl, kIpProtoUdpLite, config_.ip, dst, 0});
  EthEncap(packet, EthHeader{neighbor->second, config_.mac, kEtherTypeIpLite});
  ++stats_.datagrams_out;
  ++stats_.frames_out;
  return sender_(packet.data());
}

bool ProtocolStack::DecapIngress(std::span<const uint8_t> frame, PacketView* view) {
  ++stats_.frames_in;

  auto eth = EthDecap(frame);
  if (!eth.ok()) {
    ++stats_.drops_bad_frame;
    return false;
  }
  if (eth->dst != config_.mac && eth->dst != kMacBroadcast) {
    ++stats_.drops_not_for_us;
    return false;
  }
  if (eth->ether_type != kEtherTypeIpLite) {
    ++stats_.drops_bad_frame;
    return false;
  }

  auto ip = IpDecap(frame);
  if (!ip.ok()) {
    ++stats_.drops_bad_frame;
    return false;
  }
  if (ip->dst != config_.ip) {
    ++stats_.drops_not_for_us;
    return false;
  }
  if (ip->proto != kIpProtoUdpLite) {
    ++stats_.drops_bad_frame;
    return false;
  }

  auto udp = UdpDecap(frame);
  if (!udp.ok()) {
    ++stats_.drops_bad_frame;
    return false;
  }

  view->src_ip = ip->src;
  view->dst_ip = ip->dst;
  view->src_port = udp->src_port;
  view->dst_port = udp->dst_port;
  view->proto = ip->proto;
  view->ttl = ip->ttl;
  view->payload = frame;
  return true;
}

void ProtocolStack::Deliver(const PacketView& view) {
  auto socket = sockets_.find(view.dst_port);
  if (socket == sockets_.end()) {
    ++stats_.drops_no_socket;
    return;
  }
  ++stats_.datagrams_in;
  socket->second(Datagram{view.src_ip, view.src_port, view.payload});
}

void ProtocolStack::OnFrame(std::span<const uint8_t> frame) {
  PacketView view;
  if (!DecapIngress(frame, &view)) {
    return;
  }
  if (ingress_filter_ != nullptr &&
      !ApplyFilter(ingress_filter_, view, FilterDirection::kIngress)) {
    return;
  }
  Deliver(view);
}

void ProtocolStack::OnFrameBurst(std::span<const std::span<const uint8_t>> frames) {
  if (ingress_batch_filter_ == nullptr) {
    // No batched hook: identical semantics, one frame at a time (through the
    // per-packet hook, if any).
    for (std::span<const uint8_t> frame : frames) {
      OnFrame(frame);
    }
    return;
  }
  // Chunk-local scratch on the stack, not in members: a handler may re-enter
  // the stack (even OnFrameBurst) while a chunk is being delivered. The views
  // alias the caller's frames, which outlive the call.
  PacketView views[kBurstChunk];
  FilterDecision decisions[kBurstChunk];
  for (size_t off = 0; off < frames.size(); off += kBurstChunk) {
    const auto chunk = frames.subspan(off, std::min(kBurstChunk, frames.size() - off));
    size_t n = 0;
    for (std::span<const uint8_t> frame : chunk) {
      if (DecapIngress(frame, &views[n])) {
        ++n;
      }
    }
    if (n == 0) {
      continue;
    }
    // One filter entry for the whole chunk; per-packet decisions come back
    // in order, and delivery replays them in order — byte-identical outcomes
    // to the per-frame path.
    ingress_batch_filter_(std::span<const PacketView>(views, n), FilterDirection::kIngress,
                          std::span<FilterDecision>(decisions, n));
    for (size_t i = 0; i < n; ++i) {
      if (ApplyDecision(decisions[i], /*ttl_override=*/nullptr)) {
        Deliver(views[i]);
      }
    }
  }
}

}  // namespace para::net
