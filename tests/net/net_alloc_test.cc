// Locks in the allocation-free RX path: once warm, ProtocolStack::OnFrame and
// OnFrameBurst make no heap allocation for valid frames with a pass-all
// filter and a handler that allocates nothing itself. A counting global
// operator new sees every allocation in the process, so this suite lives in
// its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/net/headers.h"
#include "src/net/pktbuf.h"
#include "src/net/stack.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace para::net {
namespace {

constexpr StackConfig kHost{0xBBBB, 0x0A000002};
constexpr Port kPort = 80;
constexpr size_t kBurst = 32;

class NetAllocTest : public ::testing::Test {
 protected:
  NetAllocTest() : stack_(kHost, [](std::span<const uint8_t>) { return OkStatus(); }) {
    stack_.SetIngressFilter([](const PacketView&, FilterDirection) { return FilterDecision{}; });
    stack_.SetIngressBatchFilter(
        [](std::span<const PacketView> views, FilterDirection,
           std::span<FilterDecision> decisions) {
          for (size_t i = 0; i < views.size(); ++i) {
            decisions[i] = FilterDecision{};
          }
        });
    PARA_CHECK(stack_
                   .BindPort(kPort,
                             [this](const Datagram& d) { payload_bytes_ += d.payload.size(); })
                   .ok());
    for (size_t i = 0; i < kBurst; ++i) {
      std::vector<uint8_t> payload(22 + i, static_cast<uint8_t>(i));
      PacketBuffer packet;
      packet.Append(payload);
      UdpEncap(packet, UdpHeader{static_cast<Port>(1000 + i), kPort, 0});
      IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 0x0A000001, kHost.ip, 0});
      EthEncap(packet, EthHeader{kHost.mac, 0xAAAA, kEtherTypeIpLite});
      frames_.emplace_back(packet.data().begin(), packet.data().end());
    }
    for (const auto& frame : frames_) {
      spans_.emplace_back(frame);
    }
  }

  std::vector<std::vector<uint8_t>> frames_;
  std::vector<std::span<const uint8_t>> spans_;
  uint64_t payload_bytes_ = 0;
  ProtocolStack stack_;
};

TEST_F(NetAllocTest, OnFrameBurstAllocatesNothing) {
  stack_.OnFrameBurst(spans_);  // warm-up
  const uint64_t before = g_allocations.load();
  stack_.OnFrameBurst(spans_);
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(stack_.stats().datagrams_in, 2 * kBurst);
}

TEST_F(NetAllocTest, OnFrameAllocatesNothing) {
  stack_.OnFrame(spans_[0]);  // warm-up
  const uint64_t before = g_allocations.load();
  for (std::span<const uint8_t> frame : spans_) {
    stack_.OnFrame(frame);
  }
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(stack_.stats().datagrams_in, 1 + kBurst);
}

TEST_F(NetAllocTest, CounterSeesAllocations) {
  // The probe itself works: a heap allocation in the window is counted.
  const uint64_t before = g_allocations.load();
  auto* p = new std::vector<uint8_t>(64);
  const uint64_t allocations = g_allocations.load() - before;
  delete p;
  EXPECT_GE(allocations, 1u);
}

}  // namespace
}  // namespace para::net
