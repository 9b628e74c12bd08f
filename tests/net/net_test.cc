// Protocol suite tests: packet buffers, wire headers, and the UDP/IP-lite
// stack over an in-memory frame pipe.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"
#include "src/net/stack.h"

namespace para::net {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string AsString(std::span<const uint8_t> data) {
  return std::string(data.begin(), data.end());
}

TEST(PacketBufferTest, AppendConsumeTrim) {
  PacketBuffer buf(16, 128);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.headroom(), 16u);
  buf.Append(Bytes("payload"));
  EXPECT_EQ(buf.size(), 7u);
  buf.Consume(3);
  EXPECT_EQ(AsString(buf.data()), "load");
  buf.TrimTail(2);
  EXPECT_EQ(AsString(buf.data()), "lo");
}

TEST(PacketBufferTest, PrependUsesHeadroom) {
  PacketBuffer buf(8, 64);
  buf.Append(Bytes("body"));
  auto hdr = buf.Prepend(4);
  std::memcpy(hdr.data(), "HEAD", 4);
  EXPECT_EQ(AsString(buf.data()), "HEADbody");
  EXPECT_EQ(buf.headroom(), 4u);
}

TEST(EthTest, EncapDecapRoundTrip) {
  PacketBuffer packet;
  packet.Append(Bytes("ether payload"));
  EthEncap(packet, EthHeader{0x0A0B0C0D0E0Full, 0x010203040506ull, kEtherTypeIpLite});
  std::span<const uint8_t> frame = packet.data();
  auto header = EthDecap(frame);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->dst, 0x0A0B0C0D0E0Full);
  EXPECT_EQ(header->src, 0x010203040506ull);
  EXPECT_EQ(header->ether_type, kEtherTypeIpLite);
  EXPECT_EQ(AsString(frame), "ether payload");
}

TEST(EthTest, CorruptFcsRejected) {
  PacketBuffer packet;
  packet.Append(Bytes("data"));
  EthEncap(packet, EthHeader{1, 2, kEtherTypeIpLite});
  packet.data()[15] ^= 0x01;
  std::span<const uint8_t> frame = packet.data();
  EXPECT_FALSE(EthDecap(frame).ok());
}

TEST(EthTest, ShortFrameRejected) {
  std::span<const uint8_t> frame = Bytes("tiny");
  EXPECT_FALSE(EthDecap(frame).ok());
}

TEST(IpTest, EncapDecapRoundTrip) {
  PacketBuffer packet;
  packet.Append(Bytes("ip payload"));
  IpEncap(packet, IpHeader{32, kIpProtoUdpLite, 0x0A000001, 0x0A000002, 0});
  std::span<const uint8_t> data = packet.data();
  auto header = IpDecap(data);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->ttl, 32);
  EXPECT_EQ(header->proto, kIpProtoUdpLite);
  EXPECT_EQ(header->src, 0x0A000001u);
  EXPECT_EQ(header->dst, 0x0A000002u);
  EXPECT_EQ(AsString(data), "ip payload");
}

TEST(IpTest, ChecksumDetectsCorruption) {
  PacketBuffer packet;
  packet.Append(Bytes("x"));
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 1, 2, 0});
  packet.data()[8] ^= 0x10;  // flip a src-address bit
  std::span<const uint8_t> data = packet.data();
  EXPECT_FALSE(IpDecap(data).ok());
}

TEST(IpTest, LengthMismatchRejected) {
  PacketBuffer packet;
  packet.Append(Bytes("payload"));
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 1, 2, 0});
  packet.TrimTail(2);  // truncate in flight
  std::span<const uint8_t> data = packet.data();
  EXPECT_FALSE(IpDecap(data).ok());
}

TEST(IpTest, ZeroTtlRejected) {
  PacketBuffer packet;
  packet.Append(Bytes("x"));
  IpEncap(packet, IpHeader{0, kIpProtoUdpLite, 1, 2, 0});
  std::span<const uint8_t> data = packet.data();
  EXPECT_FALSE(IpDecap(data).ok());
}

TEST(UdpTest, EncapDecapRoundTrip) {
  PacketBuffer packet;
  packet.Append(Bytes("datagram"));
  UdpEncap(packet, UdpHeader{1234, 80, 0});
  std::span<const uint8_t> data = packet.data();
  auto header = UdpDecap(data);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->src_port, 1234);
  EXPECT_EQ(header->dst_port, 80);
  EXPECT_EQ(AsString(data), "datagram");
}

TEST(UdpTest, ChecksumCoversPayload) {
  PacketBuffer packet;
  packet.Append(Bytes("datagram"));
  UdpEncap(packet, UdpHeader{1234, 80, 0});
  packet.data()[UdpHeader::kWireSize + 2] ^= 0x01;  // corrupt payload byte
  std::span<const uint8_t> data = packet.data();
  EXPECT_FALSE(UdpDecap(data).ok());
}

TEST(ChecksumTest, Rfc1071Properties) {
  std::vector<uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  uint16_t sum = InternetChecksum(data);
  // Appending the checksum makes the total verify to zero.
  data.push_back(static_cast<uint8_t>(sum >> 8));
  data.push_back(static_cast<uint8_t>(sum));
  EXPECT_EQ(InternetChecksum(data), 0);
}

TEST(ChecksumTest, OddLengthHandled) {
  std::vector<uint8_t> data = {0xAB};
  // Must not crash and must be stable.
  EXPECT_EQ(InternetChecksum(data), InternetChecksum(data));
}

TEST(ChecksumTest, OddLengthPadsWithZero) {
  // RFC 1071: an odd trailing byte is summed as the high half of a word
  // whose low half is zero — so an explicit zero pad must not change it.
  std::vector<uint8_t> odd = {0x12, 0x34, 0x56};
  std::vector<uint8_t> padded = {0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(InternetChecksum(odd), InternetChecksum(padded));
  // Exact value: words 0x1234 + 0x5600 = 0x6834, complemented.
  EXPECT_EQ(InternetChecksum(odd), static_cast<uint16_t>(~0x6834));
}

TEST(ChecksumTest, CarryFoldsBackIntoLowBits) {
  // 0xFFFF + 0x0001 = 0x10000: the carry must fold end-around to 0x0001.
  std::vector<uint8_t> carry = {0xFF, 0xFF, 0x00, 0x01};
  EXPECT_EQ(InternetChecksum(carry), static_cast<uint16_t>(~0x0001));
  // Odd length with carry: 0xFFFF + 0xFF00 = 0x1FEFF -> 0xFF00.
  std::vector<uint8_t> odd_carry = {0xFF, 0xFF, 0xFF};
  EXPECT_EQ(InternetChecksum(odd_carry), static_cast<uint16_t>(~0xFF00));
}

TEST(ChecksumTest, AllOnesFoldsToAllOnesSum) {
  // Every word 0xFFFF: the ones-complement sum saturates at 0xFFFF no
  // matter how many carries fold, so the checksum is 0.
  for (size_t words : {1u, 2u, 32u, 512u}) {
    std::vector<uint8_t> data(words * 2, 0xFF);
    EXPECT_EQ(InternetChecksum(data), 0) << words;
  }
}

// The original bytewise RFC 1071 loop (big-endian 16-bit words into a 32-bit
// sum), kept here as the oracle for the word-wise implementation.
uint16_t ReferenceChecksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

TEST(ChecksumTest, MatchesBytewiseReference) {
  // Every length 0..2048 (odd ones included) at every start offset 0..7,
  // over seeded random bytes, carry-heavy all-0xFF bytes, and all-zero bytes.
  Random rng(0x1071);
  std::vector<uint8_t> random_bytes(2048 + 8);
  for (uint8_t& b : random_bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> ones(2048 + 8, 0xFF);
  std::vector<uint8_t> zeros(2048 + 8, 0x00);
  for (const auto* buffer : {&random_bytes, &ones, &zeros}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 2048; ++len) {
        std::span<const uint8_t> data(buffer->data() + offset, len);
        ASSERT_EQ(InternetChecksum(data), ReferenceChecksum(data))
            << "offset " << offset << " len " << len;
      }
    }
  }
}

TEST(PacketBufferDeathTest, PrependPastHeadroomPanics) {
  PacketBuffer buf;  // kDefaultHeadroom of reserved header space
  buf.Append(Bytes("payload"));
  // Exhausting the headroom exactly is legal...
  auto hdr = buf.Prepend(PacketBuffer::kDefaultHeadroom);
  EXPECT_EQ(hdr.size(), PacketBuffer::kDefaultHeadroom);
  EXPECT_EQ(buf.headroom(), 0u);
  // ...one byte more is a programming error and must trip the guard.
  EXPECT_DEATH(buf.Prepend(1), "check failed");
}

TEST(PacketBufferDeathTest, OversizedPrependPanicsUpFront) {
  PacketBuffer buf;
  EXPECT_DEATH(buf.Prepend(PacketBuffer::kDefaultHeadroom + 1), "check failed");
}

// A delivered datagram with its payload copied out: Datagram::payload aliases
// the received frame only for the handler call.
struct ReceivedDatagram {
  IpAddr src = 0;
  Port src_port = 0;
  std::vector<uint8_t> payload;
};

ReceivedDatagram Keep(const Datagram& d) {
  return {d.src, d.src_port, std::vector<uint8_t>(d.payload.begin(), d.payload.end())};
}

// Two stacks wired back-to-back through in-memory "wires".
class StackPairTest : public ::testing::Test {
 protected:
  StackPairTest()
      : alice_({0xAAAA, 0x0A000001},
               [this](std::span<const uint8_t> f) {
                 to_bob_.emplace_back(f.begin(), f.end());
                 return OkStatus();
               }),
        bob_({0xBBBB, 0x0A000002}, [this](std::span<const uint8_t> f) {
          to_alice_.emplace_back(f.begin(), f.end());
          return OkStatus();
        }) {
    alice_.AddNeighbor(0x0A000002, 0xBBBB);
    bob_.AddNeighbor(0x0A000001, 0xAAAA);
  }

  void Pump() {
    while (!to_bob_.empty() || !to_alice_.empty()) {
      if (!to_bob_.empty()) {
        bob_.OnFrame(to_bob_.front());
        to_bob_.pop_front();
      }
      if (!to_alice_.empty()) {
        alice_.OnFrame(to_alice_.front());
        to_alice_.pop_front();
      }
    }
  }

  std::deque<std::vector<uint8_t>> to_bob_;
  std::deque<std::vector<uint8_t>> to_alice_;
  ProtocolStack alice_;
  ProtocolStack bob_;
};

TEST_F(StackPairTest, DatagramDelivery) {
  std::vector<ReceivedDatagram> received;
  ASSERT_TRUE(bob_.BindPort(80, [&](const Datagram& d) { received.push_back(Keep(d)); }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1234, 80, Bytes("hello bob")).ok());
  Pump();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(AsString(received[0].payload), "hello bob");
  EXPECT_EQ(received[0].src, 0x0A000001u);
  EXPECT_EQ(received[0].src_port, 1234);
  EXPECT_EQ(bob_.stats().datagrams_in, 1u);
  EXPECT_EQ(alice_.stats().datagrams_out, 1u);
}

TEST_F(StackPairTest, RequestResponse) {
  ASSERT_TRUE(bob_.BindPort(7, [&](const Datagram& d) {
    (void)bob_.SendDatagram(d.src, 7, d.src_port, d.payload);  // echo
  }).ok());
  std::vector<ReceivedDatagram> replies;
  ASSERT_TRUE(alice_.BindPort(555, [&](const Datagram& d) { replies.push_back(Keep(d)); }).ok());
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 555, 7, Bytes("ping")).ok());
  Pump();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(AsString(replies[0].payload), "ping");
}

TEST_F(StackPairTest, NoRouteFails) {
  auto status = alice_.SendDatagram(0x0A0000FF, 1, 2, Bytes("x"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST_F(StackPairTest, OversizedDatagramRejected) {
  // The largest payload whose frame fits the link's 2 KiB goes through; one
  // byte more is refused before anything reaches the wire.
  const size_t max_payload = PacketBuffer::kDefaultCapacity - EthHeader::kWireSize -
                             IpHeader::kWireSize - UdpHeader::kWireSize - 4;
  size_t delivered = 0;
  ASSERT_TRUE(bob_.BindPort(2, [&](const Datagram& d) { delivered = d.payload.size(); }).ok());
  std::vector<uint8_t> payload(max_payload + 1, 0x42);
  EXPECT_EQ(alice_.SendDatagram(0x0A000002, 1, 2, payload).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(alice_.stats().frames_out, 0u);
  payload.pop_back();
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1, 2, payload).ok());
  Pump();
  EXPECT_EQ(delivered, max_payload);
}

TEST_F(StackPairTest, UnboundPortDropped) {
  ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1, 9999, Bytes("x")).ok());
  Pump();
  EXPECT_EQ(bob_.stats().drops_no_socket, 1u);
}

TEST_F(StackPairTest, WrongMacDropped) {
  // A frame addressed to another MAC must be ignored.
  PacketBuffer packet;
  packet.Append(Bytes("payload"));
  UdpEncap(packet, UdpHeader{1, 2, 0});
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 0x0A000001, 0x0A000002, 0});
  EthEncap(packet, EthHeader{0xDDDD, 0xAAAA, kEtherTypeIpLite});
  bob_.OnFrame(packet.data());
  EXPECT_EQ(bob_.stats().drops_not_for_us, 1u);
}

TEST_F(StackPairTest, WrongIpDropped) {
  PacketBuffer packet;
  packet.Append(Bytes("payload"));
  UdpEncap(packet, UdpHeader{1, 2, 0});
  IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 0x0A000001, 0x0A0000EE, 0});
  EthEncap(packet, EthHeader{0xBBBB, 0xAAAA, kEtherTypeIpLite});
  bob_.OnFrame(packet.data());
  EXPECT_EQ(bob_.stats().drops_not_for_us, 1u);
}

TEST_F(StackPairTest, GarbageFrameDropped) {
  std::vector<uint8_t> garbage(64, 0x5A);
  bob_.OnFrame(garbage);
  EXPECT_EQ(bob_.stats().drops_bad_frame, 1u);
}

TEST_F(StackPairTest, PortManagement) {
  ASSERT_TRUE(bob_.BindPort(80, [](const Datagram&) {}).ok());
  EXPECT_FALSE(bob_.BindPort(80, [](const Datagram&) {}).ok());
  EXPECT_TRUE(bob_.UnbindPort(80).ok());
  EXPECT_FALSE(bob_.UnbindPort(80).ok());
  EXPECT_TRUE(bob_.BindPort(80, [](const Datagram&) {}).ok());
}

TEST_F(StackPairTest, ManyDatagramsBothDirections) {
  int bob_got = 0, alice_got = 0;
  ASSERT_TRUE(bob_.BindPort(1, [&](const Datagram&) { ++bob_got; }).ok());
  ASSERT_TRUE(alice_.BindPort(1, [&](const Datagram&) { ++alice_got; }).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(alice_.SendDatagram(0x0A000002, 1, 1, Bytes("a" + std::to_string(i))).ok());
    ASSERT_TRUE(bob_.SendDatagram(0x0A000001, 1, 1, Bytes("b" + std::to_string(i))).ok());
  }
  Pump();
  EXPECT_EQ(bob_got, 50);
  EXPECT_EQ(alice_got, 50);
}

}  // namespace
}  // namespace para::net
