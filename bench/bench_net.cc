// Protocol-stack RX path microbenchmarks: the per-frame net cost that the
// end-to-end ingress benchmark attributes to the `net` layer, split into its
// two integrity checks and the whole in-place decap + batch-hook + delivery
// path:
//   * BM_StackOnFrameBurst/<frame bytes> — 32-frame bursts of valid frames
//     through ProtocolStack::OnFrameBurst with a pass-all batch hook and a
//     handler that only reads the payload size (items = frames);
//   * BM_Crc32/<bytes> — the Ethernet FCS (slice-by-8 CRC-32);
//   * BM_InternetChecksum/<bytes> — the IP header (20) and a full UDP
//     payload (1500) ones-complement sum;
//   * BM_NetCalibrate — the fixed integer loop every baseline file carries,
//     so rows recorded on different machines can be compared.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/log.h"
#include "src/base/random.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"
#include "src/net/stack.h"

namespace {

using namespace para;       // NOLINT
using namespace para::net;  // NOLINT

constexpr StackConfig kHost{0xBBBB, 0x0A000002};
constexpr Port kPort = 80;
constexpr size_t kBurst = 32;
constexpr size_t kFrameOverhead =
    EthHeader::kWireSize + IpHeader::kWireSize + UdpHeader::kWireSize + 4;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return bytes;
}

void BM_StackOnFrameBurst(benchmark::State& state) {
  const auto frame_bytes = static_cast<size_t>(state.range(0));
  PARA_CHECK(frame_bytes >= kFrameOverhead);
  ProtocolStack stack(kHost, [](std::span<const uint8_t>) { return OkStatus(); });
  stack.SetIngressBatchFilter([](std::span<const PacketView> views, FilterDirection,
                                 std::span<FilterDecision> decisions) {
    for (size_t i = 0; i < views.size(); ++i) {
      decisions[i] = FilterDecision{};
    }
  });
  uint64_t delivered_bytes = 0;
  PARA_CHECK(
      stack.BindPort(kPort, [&](const Datagram& d) { delivered_bytes += d.payload.size(); })
          .ok());

  std::vector<std::vector<uint8_t>> frames;
  for (size_t i = 0; i < kBurst; ++i) {
    PacketBuffer packet(PacketBuffer::kDefaultHeadroom,
                        PacketBuffer::kDefaultHeadroom + frame_bytes);
    packet.Append(RandomBytes(frame_bytes - kFrameOverhead, i));
    UdpEncap(packet, UdpHeader{static_cast<Port>(1000 + i), kPort, 0});
    IpEncap(packet, IpHeader{64, kIpProtoUdpLite, 0x0A000001, kHost.ip, 0});
    EthEncap(packet, EthHeader{kHost.mac, 0xAAAA, kEtherTypeIpLite});
    frames.emplace_back(packet.data().begin(), packet.data().end());
  }
  std::vector<std::span<const uint8_t>> burst(frames.begin(), frames.end());

  for (auto _ : state) {
    stack.OnFrameBurst(burst);
    benchmark::DoNotOptimize(delivered_bytes);
  }
  PARA_CHECK(stack.stats().datagrams_in == state.iterations() * kBurst);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBurst));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kBurst * frame_bytes));
}

void BM_Crc32(benchmark::State& state) {
  const std::vector<uint8_t> data = RandomBytes(static_cast<size_t>(state.range(0)), 0xC3C);
  for (auto _ : state) {
    uint32_t crc = Crc32(data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * data.size()));
}

void BM_InternetChecksum(benchmark::State& state) {
  const std::vector<uint8_t> data = RandomBytes(static_cast<size_t>(state.range(0)), 0x1071);
  for (auto _ : state) {
    uint16_t sum = InternetChecksum(data);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * data.size()));
}

// Machine-speed probe (same fixed integer loop as BM_FilterCalibrate).
void BM_NetCalibrate(benchmark::State& state) {
  for (auto _ : state) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 1000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    benchmark::DoNotOptimize(x);
  }
}

BENCHMARK(BM_NetCalibrate);
BENCHMARK(BM_StackOnFrameBurst)->Arg(64)->Arg(1518);
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1518);
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(1500);

}  // namespace

BENCHMARK_MAIN();
