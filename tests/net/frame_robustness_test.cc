// Frame-robustness differential for the in-place RX path: seeded valid and
// mutated Ethernet/IPv4/UDP-lite frames go through ProtocolStack::OnFrame one
// at a time and through OnFrameBurst in bursts that straddle the 64-frame
// chunk boundary. Every mutation must land in its expected counter, and both
// paths must agree exactly on StackStats and on the delivered datagrams.
// Each frame is its own exact-size heap allocation, so under ASan a payload
// span that reaches past its frame faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/random.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"
#include "src/net/stack.h"

namespace para::net {
namespace {

constexpr MacAddr kHostMac = 0xBBBB;
constexpr IpAddr kHostIp = 0x0A000002;
constexpr IpAddr kPeerIp = 0x0A000001;
constexpr MacAddr kPeerMac = 0xAAAA;
constexpr Port kBoundPort = 80;
constexpr Port kUnboundPort = 81;

// Header offsets within a frame.
constexpr size_t kIpOff = EthHeader::kWireSize;
constexpr size_t kUdpOff = kIpOff + IpHeader::kWireSize;
constexpr size_t kPayloadOff = kUdpOff + UdpHeader::kWireSize;
constexpr size_t kFcs = 4;

using Frame = std::vector<uint8_t>;

void PutBE16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

uint16_t GetBE16(const uint8_t* p) { return static_cast<uint16_t>((p[0] << 8) | p[1]); }

// Re-seal helpers: after a mutation, recompute the checksums that cover it
// so exactly the intended check fails.
void ResealFcs(Frame& f) {
  uint32_t fcs = Crc32(std::span<const uint8_t>(f).first(f.size() - kFcs));
  for (size_t i = 0; i < 4; ++i) {
    f[f.size() - kFcs + i] = static_cast<uint8_t>(fcs >> (8 * (3 - i)));
  }
}

void ResealIp(Frame& f) {
  PutBE16(&f[kIpOff + 6], 0);
  PutBE16(&f[kIpOff + 6],
          InternetChecksum(std::span<const uint8_t>(f).subspan(kIpOff, IpHeader::kWireSize)));
  ResealFcs(f);
}

void ResealUdp(Frame& f) {
  PutBE16(&f[kUdpOff + 6], 0);
  auto segment = std::span<const uint8_t>(f).subspan(kUdpOff, f.size() - kFcs - kUdpOff);
  PutBE16(&f[kUdpOff + 6], InternetChecksum(segment));
  ResealFcs(f);
}

struct Delivered {
  IpAddr src = 0;
  Port src_port = 0;
  std::vector<uint8_t> payload;

  bool operator==(const Delivered&) const = default;
};

struct Case {
  std::string what;
  Frame frame;
  uint64_t StackStats::*counter;  // the one counter this frame must bump
  std::vector<uint8_t> payload;   // what a delivery must carry
  Port src_port = 0;
};

// Ingress policy shared by the per-packet and batch hooks: src_port % 5
// picks drop (0), reject (1), or pass.
FilterDecision Policy(const PacketView& view) {
  FilterDecision decision;
  switch (view.src_port % 5) {
    case 0: decision.verdict = FilterVerdict::kDrop; break;
    case 1: decision.verdict = FilterVerdict::kReject; break;
    default: break;
  }
  return decision;
}

// A receiving host with both ingress hooks installed and one bound port.
class Host {
 public:
  Host() : stack_({kHostMac, kHostIp}, [](std::span<const uint8_t>) { return OkStatus(); }) {
    stack_.SetIngressFilter(
        [](const PacketView& view, FilterDirection) { return Policy(view); });
    stack_.SetIngressBatchFilter([](std::span<const PacketView> views, FilterDirection,
                                    std::span<FilterDecision> decisions) {
      for (size_t i = 0; i < views.size(); ++i) {
        decisions[i] = Policy(views[i]);
      }
    });
    PARA_CHECK(stack_
                   .BindPort(kBoundPort,
                             [this](const Datagram& d) {
                               delivered_.push_back(
                                   {d.src, d.src_port, {d.payload.begin(), d.payload.end()}});
                             })
                   .ok());
  }

  ProtocolStack& stack() { return stack_; }
  const std::vector<Delivered>& delivered() const { return delivered_; }

 private:
  std::vector<Delivered> delivered_;
  ProtocolStack stack_;
};

std::array<uint64_t, 12> Fields(const StackStats& s) {
  return {s.frames_out,        s.frames_in,       s.datagrams_out,   s.datagrams_in,
          s.drops_bad_frame,   s.drops_not_for_us, s.drops_no_socket, s.drops_filtered,
          s.filter_pass,       s.filter_drop,     s.filter_reject,   s.filter_ttl_rewrites};
}

class CaseBuilder {
 public:
  explicit CaseBuilder(uint64_t seed) : rng_(seed) {}

  // A valid frame from the peer with a random payload of `len` bytes.
  Case Valid(size_t len, Port dst_port = kBoundPort, MacAddr dst_mac = kHostMac) {
    Case c;
    c.what = "valid len " + std::to_string(len);
    c.payload.resize(len);
    for (uint8_t& b : c.payload) {
      b = static_cast<uint8_t>(rng_.Next());
    }
    c.src_port = static_cast<Port>(1000 + rng_.NextBelow(1000));
    PacketBuffer packet(kPayloadOff, kPayloadOff + len + kFcs);
    packet.Append(c.payload);
    UdpEncap(packet, UdpHeader{c.src_port, dst_port, 0});
    IpEncap(packet, IpHeader{64, kIpProtoUdpLite, kPeerIp, kHostIp, 0});
    EthEncap(packet, EthHeader{dst_mac, kPeerMac, kEtherTypeIpLite});
    c.frame.assign(packet.data().begin(), packet.data().end());
    // A well-formed frame meets the filter first, then the socket table.
    if (c.src_port % 5 < 2) {
      c.counter = &StackStats::drops_filtered;
    } else {
      c.counter = dst_port == kBoundPort ? &StackStats::datagrams_in : &StackStats::drops_no_socket;
    }
    return c;
  }

  // Every mutation of one valid base frame, each with its expected counter.
  std::vector<Case> Mutations(size_t len) {
    std::vector<Case> out;
    auto add = [&](std::string what, uint64_t StackStats::*counter, auto mutate) {
      Case c = Valid(len);
      c.what = what + " (payload " + std::to_string(len) + ")";
      c.counter = counter;
      mutate(c.frame);
      out.push_back(std::move(c));
    };
    uint64_t StackStats::*const bad = &StackStats::drops_bad_frame;
    const size_t size = kPayloadOff + len + kFcs;

    // Truncation at every header boundary +-1: as cut in flight (FCS now
    // wrong or frame too short), and re-sealed so the inner length checks
    // are the ones that fire.
    for (size_t boundary : {kIpOff, kIpOff + kFcs, kUdpOff, kUdpOff + kFcs, kPayloadOff,
                            kPayloadOff + kFcs, size - kFcs}) {
      for (size_t cut : {boundary - 1, boundary, boundary + 1}) {
        if (cut >= size) {
          continue;
        }
        add("truncated to " + std::to_string(cut), bad, [cut](Frame& f) {
          f = Frame(f.begin(), f.begin() + static_cast<ptrdiff_t>(cut));
        });
        if (cut >= EthHeader::kWireSize + kFcs) {
          add("truncated+resealed to " + std::to_string(cut), bad, [cut](Frame& f) {
            f = Frame(f.begin(), f.begin() + static_cast<ptrdiff_t>(cut));
            ResealFcs(f);
          });
        }
      }
    }
    const auto bit = static_cast<uint8_t>(1u << rng_.NextBelow(8));
    const size_t pick = rng_.NextBelow(4);
    add("corrupt FCS", bad, [&](Frame& f) { f[f.size() - kFcs + pick] ^= bit; });
    add("corrupt ip checksum", bad, [&](Frame& f) {
      f[kIpOff + 6 + pick % 2] ^= bit;
      ResealFcs(f);
    });
    add("corrupt udp checksum", bad, [&](Frame& f) {
      f[kUdpOff + 6 + pick % 2] ^= bit;
      ResealFcs(f);
    });
    for (int delta : {-1, 1, 100}) {
      add("ip total_length " + std::to_string(delta), bad, [delta](Frame& f) {
        PutBE16(&f[kIpOff + 4], static_cast<uint16_t>(GetBE16(&f[kIpOff + 4]) + delta));
        ResealIp(f);
      });
      add("udp length " + std::to_string(delta), bad, [delta](Frame& f) {
        PutBE16(&f[kUdpOff + 4], static_cast<uint16_t>(GetBE16(&f[kUdpOff + 4]) + delta));
        ResealUdp(f);
      });
    }
    add("ttl 0", bad, [](Frame& f) {
      f[kIpOff + 1] = 0;
      ResealIp(f);
    });
    add("ip version 6", bad, [](Frame& f) {
      f[kIpOff] = 6;
      ResealIp(f);
    });
    add("wrong proto", bad, [](Frame& f) {
      f[kIpOff + 2] = 6;
      ResealIp(f);
    });
    add("wrong ethertype", bad, [](Frame& f) {
      PutBE16(&f[12], 0x86DD);
      ResealFcs(f);
    });
    add("wrong dst mac", &StackStats::drops_not_for_us, [](Frame& f) {
      f[5] ^= 0x01;
      ResealFcs(f);
    });
    add("wrong dst ip", &StackStats::drops_not_for_us, [](Frame& f) {
      f[kIpOff + 15] ^= 0x01;
      ResealIp(f);
    });
    out.push_back(Valid(len, kUnboundPort));
    out.push_back(Valid(len, kBoundPort, kMacBroadcast));
    return out;
  }

 private:
  Random rng_;
};

std::vector<Case> MakeCases() {
  CaseBuilder builder(0xF00DF00D);
  std::vector<Case> cases;
  // Every payload size 0..1500 as a valid frame, interleaved with the full
  // mutation set at a spread of sizes (tiny, around 8-byte strides, MTU).
  for (size_t len = 0; len <= 1500; ++len) {
    cases.push_back(builder.Valid(len));
    if (len < 10 || len % 97 == 0 || len == 1500) {
      for (Case& c : builder.Mutations(len)) {
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

TEST(FrameRobustnessTest, EachMutationLandsInItsCounter) {
  const std::vector<Case> cases = MakeCases();
  Host host;
  size_t delivered = 0;
  for (const Case& c : cases) {
    const auto before = host.stack().stats();
    host.stack().OnFrame(c.frame);
    StackStats expected = before;
    ++expected.frames_in;
    ++(expected.*c.counter);
    if (c.counter == &StackStats::drops_filtered) {
      ++(c.src_port % 5 == 0 ? expected.filter_drop : expected.filter_reject);
    } else if (c.counter == &StackStats::datagrams_in ||
               c.counter == &StackStats::drops_no_socket) {
      ++expected.filter_pass;
    }
    ASSERT_EQ(Fields(host.stack().stats()), Fields(expected)) << c.what;
    if (c.counter == &StackStats::datagrams_in) {
      ASSERT_EQ(host.delivered().size(), delivered + 1) << c.what;
      const Delivered& d = host.delivered().back();
      EXPECT_EQ(d.src, kPeerIp) << c.what;
      EXPECT_EQ(d.src_port, c.src_port) << c.what;
      EXPECT_EQ(d.payload, c.payload) << c.what;
      ++delivered;
    }
  }
  // The sequence exercises every outcome.
  const StackStats& s = host.stack().stats();
  EXPECT_GT(s.datagrams_in, 500u);
  EXPECT_GT(s.drops_bad_frame, 500u);
  EXPECT_GT(s.drops_not_for_us, 0u);
  EXPECT_GT(s.drops_no_socket, 0u);
  EXPECT_GT(s.filter_drop, 0u);
  EXPECT_GT(s.filter_reject, 0u);
}

TEST(FrameRobustnessTest, BurstMatchesPerFrameAcrossChunkBoundaries) {
  const std::vector<Case> cases = MakeCases();
  std::vector<std::span<const uint8_t>> frames;
  frames.reserve(cases.size());
  for (const Case& c : cases) {
    frames.emplace_back(c.frame);
  }

  Host per_frame;
  for (std::span<const uint8_t> frame : frames) {
    per_frame.stack().OnFrame(frame);
  }

  for (size_t burst : {1u, 63u, 64u, 65u, 130u}) {
    Host burst_host;
    const std::span<const std::span<const uint8_t>> all(frames);
    for (size_t off = 0; off < all.size(); off += burst) {
      burst_host.stack().OnFrameBurst(all.subspan(off, std::min(burst, all.size() - off)));
    }
    EXPECT_EQ(Fields(burst_host.stack().stats()), Fields(per_frame.stack().stats()))
        << "burst " << burst;
    EXPECT_TRUE(burst_host.delivered() == per_frame.delivered()) << "burst " << burst;
  }
}

}  // namespace
}  // namespace para::net
