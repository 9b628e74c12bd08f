// Locks in the allocation-free filter data path: once warm, EvaluateBatch and
// Evaluate make no heap allocation, even on a stream that churns the flow
// table at capacity — misses, inserts, evictions and reverse hits — through
// a rule whose procedure chain runs on every admitted packet. A counting
// global operator new sees every allocation in the process, so this suite
// lives in its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// All replacements stay out of line: once one is inlined, GCC sees malloc or
// free paired with the other's operator new/delete and reports a mismatched
// deallocation (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace para::filter {
namespace {

using net::FilterDecision;
using net::FilterDirection;
using net::PacketView;

constexpr size_t kCapacity = 64;
constexpr uint32_t kConversations = 4 * kCapacity;
constexpr size_t kPackets = 2048;
constexpr size_t kChunk = 32;
constexpr net::Port kServerPort = 80;

class FilterAllocTest : public ::testing::Test {
 protected:
  FilterAllocTest() : payload_(64, 0x42) {
    FilterConfig config;
    config.flow_capacity = kCapacity;
    auto filter = PacketFilter::Create(config);
    PARA_CHECK(filter.ok());
    filter_ = std::move(*filter);
    // Client-to-server traffic passes (and establishes) with a `count`
    // chain; unsolicited server-side traffic is dropped unless it is the
    // reply of a live flow.
    auto rules = ParseRules("pass dport 80 proc count\ndefault drop\n");
    PARA_CHECK(rules.ok());
    PARA_CHECK(filter_->Load(*rules).ok());

    para::Random rng(0xA110C);
    for (size_t i = 0; i < kPackets; ++i) {
      const uint32_t conv = static_cast<uint32_t>(rng.NextBelow(kConversations));
      PacketView view;
      view.src_ip = 0x0A000000u + conv;
      view.dst_ip = 0x0A010002u;
      view.src_port = static_cast<net::Port>(20000 + conv);
      view.dst_port = kServerPort;
      view.proto = net::kIpProtoUdpLite;
      view.payload = payload_;
      if (rng.NextBelow(3) == 0) {  // the reply direction
        std::swap(view.src_ip, view.dst_ip);
        std::swap(view.src_port, view.dst_port);
      }
      views_.push_back(view);
    }
    decisions_.resize(kChunk);
  }

  void RunBatch() {
    for (size_t i = 0; i < views_.size(); i += kChunk) {
      filter_->EvaluateBatch(std::span<const PacketView>(views_).subspan(i, kChunk),
                             FilterDirection::kIngress, decisions_);
    }
  }

  void RunSingle() {
    for (const PacketView& view : views_) {
      FilterDecision decision = filter_->Evaluate(view, FilterDirection::kIngress);
      (void)decision;
    }
  }

  FlowTableStats FlowStats() {
    FlowTableStats total;
    for (size_t s = 0; s < filter_->shard_count(); ++s) {
      const FlowTableStats& st = filter_->flows(s).stats();
      total.hits += st.hits;
      total.reverse_hits += st.reverse_hits;
      total.misses += st.misses;
      total.inserts += st.inserts;
      total.evictions += st.evictions;
    }
    return total;
  }

  // Asserts the measured window really churned the table at capacity.
  void ExpectChurn(const FlowTableStats& before, const FlowTableStats& after) {
    EXPECT_GT(after.misses, before.misses);
    EXPECT_GT(after.inserts, before.inserts);
    EXPECT_GT(after.evictions, before.evictions);
    EXPECT_GT(after.reverse_hits, before.reverse_hits);
    EXPECT_GT(filter_->stats().proc_invocations, 0u);
  }

  std::vector<uint8_t> payload_;
  std::unique_ptr<PacketFilter> filter_;
  std::vector<PacketView> views_;
  std::vector<FilterDecision> decisions_;
};

TEST_F(FilterAllocTest, EvaluateBatchAllocatesNothing) {
  RunBatch();  // warm-up
  const FlowTableStats before = FlowStats();
  const uint64_t allocations_before = g_allocations.load();
  RunBatch();
  const uint64_t allocations = g_allocations.load() - allocations_before;
  EXPECT_EQ(allocations, 0u);
  ExpectChurn(before, FlowStats());
}

TEST_F(FilterAllocTest, EvaluateAllocatesNothing) {
  RunSingle();  // warm-up
  const FlowTableStats before = FlowStats();
  const uint64_t allocations_before = g_allocations.load();
  RunSingle();
  const uint64_t allocations = g_allocations.load() - allocations_before;
  EXPECT_EQ(allocations, 0u);
  ExpectChurn(before, FlowStats());
}

TEST_F(FilterAllocTest, CounterSeesAllocations) {
  // The probe itself works: a heap allocation in the window is counted.
  const uint64_t before = g_allocations.load();
  auto* p = new std::vector<uint8_t>(64);
  const uint64_t allocations = g_allocations.load() - before;
  delete p;
  EXPECT_GE(allocations, 1u);
}

}  // namespace
}  // namespace para::filter
