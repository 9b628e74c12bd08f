// Wire headers for the lite protocol suite: Ethernet-style framing, an
// IPv4-like network layer, and a UDP-like transport. Encodings are explicit
// byte serialization (no struct punning), big-endian on the wire.
#ifndef PARAMECIUM_SRC_NET_HEADERS_H_
#define PARAMECIUM_SRC_NET_HEADERS_H_

#include <cstdint>
#include <span>

#include "src/base/status.h"
#include "src/net/pktbuf.h"

namespace para::net {

using MacAddr = uint64_t;  // 48 significant bits
using IpAddr = uint32_t;
using Port = uint16_t;

inline constexpr MacAddr kMacBroadcast = 0xFFFF'FFFF'FFFFull;

// --- Ethernet-style framing -------------------------------------------------

inline constexpr uint16_t kEtherTypeIpLite = 0x0800;
inline constexpr uint16_t kEtherTypeRaw = 0xFFFF;

struct EthHeader {
  MacAddr dst = 0;
  MacAddr src = 0;
  uint16_t ether_type = kEtherTypeRaw;

  static constexpr size_t kWireSize = 6 + 6 + 2;
};

// Prepends the header and appends a CRC-32 frame check sequence.
void EthEncap(PacketBuffer& packet, const EthHeader& header);

// RX-side decapsulation parses in place: each *Decap takes a view of the
// received bytes and, on success, narrows it to the layer's payload (no copy;
// the view aliases the caller's frame). On failure the view is unchanged.

// Verifies + strips FCS and header. kInvalidArgument on malformed frames,
// kFailedPrecondition on FCS mismatch.
Result<EthHeader> EthDecap(std::span<const uint8_t>& frame);

// --- IPv4-lite ---------------------------------------------------------------

inline constexpr uint8_t kIpProtoUdpLite = 17;
inline constexpr uint8_t kIpProtoRaw = 255;

struct IpHeader {
  uint8_t ttl = 64;
  uint8_t proto = kIpProtoRaw;
  IpAddr src = 0;
  IpAddr dst = 0;
  uint16_t total_length = 0;  // header + payload; filled by encap

  static constexpr size_t kWireSize = 1 /*ver*/ + 1 /*ttl*/ + 1 /*proto*/ + 1 /*rsvd*/ +
                                      2 /*len*/ + 2 /*cksum*/ + 4 /*src*/ + 4 /*dst*/;
};

void IpEncap(PacketBuffer& packet, IpHeader header);
Result<IpHeader> IpDecap(std::span<const uint8_t>& packet);

// RFC1071-style ones-complement checksum (used by the IP-lite and UDP-lite
// headers). An odd trailing byte is summed as if padded with a zero byte.
uint16_t InternetChecksum(std::span<const uint8_t> data);

// --- UDP-lite ----------------------------------------------------------------

struct UdpHeader {
  Port src_port = 0;
  Port dst_port = 0;
  uint16_t length = 0;  // header + payload; filled by encap

  static constexpr size_t kWireSize = 2 + 2 + 2 + 2 /*cksum*/;
};

void UdpEncap(PacketBuffer& packet, UdpHeader header);
Result<UdpHeader> UdpDecap(std::span<const uint8_t>& datagram);

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_HEADERS_H_
