// The UDP/IP-lite protocol stack. Deliberately transport-agnostic about
// where it runs: it talks to its network driver through a FrameIo function
// pair, so the same stack object can be placed in the kernel protection
// domain (direct calls into the driver) or in a user domain (proxy calls) —
// the configurability experiment E9 and the paper's §1 motivating example.
#ifndef PARAMECIUM_SRC_NET_STACK_H_
#define PARAMECIUM_SRC_NET_STACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>

#include "src/base/status.h"
#include "src/base/telemetry.h"
#include "src/net/filter_hook.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"

namespace para::net {

// Driver-facing frame output: sends raw bytes on the wire.
using FrameSender = std::function<Status(std::span<const uint8_t>)>;

// Datagram delivery to a bound socket. Zero-copy, like PacketView: the
// payload aliases the received frame and is valid only for the duration of
// the handler call; a handler that keeps the bytes copies them.
struct Datagram {
  IpAddr src = 0;
  Port src_port = 0;
  std::span<const uint8_t> payload;
};
using DatagramHandler = std::function<void(const Datagram&)>;

struct StackConfig {
  MacAddr mac = 0;
  IpAddr ip = 0;
};

struct StackStats {
  uint64_t frames_out = 0;
  uint64_t frames_in = 0;
  uint64_t datagrams_out = 0;
  uint64_t datagrams_in = 0;
  uint64_t drops_bad_frame = 0;
  uint64_t drops_not_for_us = 0;
  uint64_t drops_no_socket = 0;
  uint64_t drops_filtered = 0;  // ingress + egress drop/reject verdicts
  // Per-verdict filter counters, both directions combined. (Counting is a
  // rule *procedure* now, tallied by the filter itself — the retired
  // per-stack filter_count moved to FilterStats::proc_invocations.)
  uint64_t filter_pass = 0;
  uint64_t filter_drop = 0;
  uint64_t filter_reject = 0;
  uint64_t filter_ttl_rewrites = 0;  // egress TTL overrides applied (normalize proc)
};

class ProtocolStack {
 public:
  ProtocolStack(StackConfig config, FrameSender sender);

  // Static neighbor table (the simulation has no ARP).
  void AddNeighbor(IpAddr ip, MacAddr mac);

  // Binds a datagram handler to a local port.
  Status BindPort(Port port, DatagramHandler handler);
  Status UnbindPort(Port port);

  // Sends a UDP-lite datagram. Blocked by the egress filter =>
  // kPermissionDenied; a frame larger than the link's 2 KiB => kOutOfRange.
  Status SendDatagram(IpAddr dst, Port src_port, Port dst_port,
                      std::span<const uint8_t> payload);

  // Driver-facing input: a raw frame arrived on the wire. The frame is parsed
  // in place; nothing is copied or allocated on the way to the handler.
  void OnFrame(std::span<const uint8_t> frame);

  // Driver-facing input for a burst of frames (one RX-queue poll). With a
  // batch ingress filter installed, the burst is processed in chunks of
  // kBurstChunk frames: each chunk is decapsulated, the filter decides its
  // surviving packets in ONE EvaluateBatch-style call — amortizing filter
  // entry costs — and the passed ones are delivered, with verdicts, counters,
  // and delivery order identical to calling OnFrame per frame. Without one
  // it degrades to exactly that loop.
  void OnFrameBurst(std::span<const std::span<const uint8_t>> frames);

  // Filter hook points. The ingress hook runs after UDP decap with a
  // zero-copy PacketView aliasing the frame — a dropped packet never
  // materializes a Datagram, so the verdict costs no allocation. The egress
  // hook runs before encapsulation. Pass nullptr to remove a hook.
  void SetIngressFilter(FilterHook hook) { ingress_filter_ = std::move(hook); }
  void SetEgressFilter(FilterHook hook) { egress_filter_ = std::move(hook); }
  // Batched ingress hook, consulted by OnFrameBurst (OnFrame keeps using the
  // per-packet hook). Install both from the same filter to keep single-frame
  // and burst ingress consistent.
  void SetIngressBatchFilter(FilterBatchHook hook) {
    ingress_batch_filter_ = std::move(hook);
  }

  const StackStats& stats() const { return stats_; }
  const StackConfig& config() const { return config_; }

 private:
  // Applies a filter hook to `view`; returns true when the packet may
  // proceed, updating the per-verdict counters either way. A non-null
  // `ttl_override` receives the decision's TTL rewrite, if any (egress only
  // — ingress has no header left to rewrite).
  bool ApplyFilter(const FilterHook& hook, const PacketView& view, FilterDirection dir,
                   uint8_t* ttl_override = nullptr);
  // The counting half of ApplyFilter, shared with the batch path (which gets
  // its decisions from one hook call for the whole burst).
  bool ApplyDecision(const FilterDecision& decision, uint8_t* ttl_override);
  // Eth/IP/UDP ingress decapsulation with the drop counters; on success
  // `view` holds the header fields and its payload aliases `frame`.
  bool DecapIngress(std::span<const uint8_t> frame, PacketView* view);
  // Socket lookup + handler call for a packet the filter passed.
  void Deliver(const PacketView& view);

  StackConfig config_;
  FrameSender sender_;
  std::map<IpAddr, MacAddr> neighbors_;
  std::map<Port, DatagramHandler> sockets_;
  FilterHook ingress_filter_;
  FilterHook egress_filter_;
  FilterBatchHook ingress_batch_filter_;
  StackStats stats_;
  // Aliases onto stats_ — declared last so they unregister first. The names
  // are "net.stack.<host>.<field>" (per-instance, so two stacks in one test
  // process do not collide).
  telemetry::ScopedMetricGroup metrics_;
};

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_STACK_H_
