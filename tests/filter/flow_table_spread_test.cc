// Guards the flow table's index spread under shard steering. SteerShard
// consumes SymmetricFlowHash modulo the shard count — the hash's low bits —
// so within one shard those bits are fixed; the table takes its home slot
// from the high bits instead. Each test fills one shard's table to capacity
// with keys steered to it and bounds the longest probe displacement, which an
// index drawing its home slot from too few effective bits (or a hash that
// collapses keys differing in one field) drives into the hundreds or
// thousands of slots.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "src/base/random.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"

namespace para::filter {
namespace {

using net::FilterDirection;
using net::PacketView;

constexpr size_t kShards = 4;
constexpr size_t kShardCapacity = 4096;
// At load <= 1/2, the longest displacement of 4096 random keys has a median
// of 17 slots and stayed <= 43 over 200 seeds.
constexpr size_t kMaxDisplacement = 48;

std::unique_ptr<PacketFilter> MakeShardedFilter() {
  FilterConfig config;
  config.shards = kShards;
  config.flow_capacity = kShards * kShardCapacity;
  auto filter = PacketFilter::Create(config);
  PARA_CHECK(filter.ok());
  auto rules = ParseRules("default pass\n");
  PARA_CHECK(rules.ok());
  PARA_CHECK((*filter)->Load(*rules).ok());
  return std::move(*filter);
}

// Offers `next()` views to the filter, keeping those SteerShard routes to
// shard 0, until that shard's table is full.
template <typename NextView>
void FillShardZero(PacketFilter& filter, NextView&& next) {
  FlowTable& table = filter.flows(0);
  while (table.size() < table.capacity()) {
    const PacketView view = next();
    if (filter.SteerShard(view) == 0) {
      filter.Evaluate(view, FilterDirection::kIngress);
    }
  }
  ASSERT_EQ(table.size(), kShardCapacity);
  ASSERT_EQ(table.stats().evictions, 0u);
}

TEST(FlowTableSpreadTest, RandomTuplesOfOneShardSpreadOverItsIndex) {
  auto filter = MakeShardedFilter();
  para::Random rng(0x5EED);
  ASSERT_NO_FATAL_FAILURE(FillShardZero(*filter, [&rng] {
    PacketView view;
    view.src_ip = static_cast<net::IpAddr>(rng.Next());
    view.dst_ip = static_cast<net::IpAddr>(rng.Next());
    view.src_port = static_cast<net::Port>(rng.Next());
    view.dst_port = static_cast<net::Port>(rng.Next());
    view.proto = net::kIpProtoUdpLite;
    return view;
  }));
  EXPECT_LE(filter->flows(0).MaxProbeDisplacement(), kMaxDisplacement);
}

TEST(FlowTableSpreadTest, KeysDifferingOnlyInSourcePortSpread) {
  auto filter = MakeShardedFilter();
  uint32_t port = 0;
  ASSERT_NO_FATAL_FAILURE(FillShardZero(*filter, [&port] {
    PacketView view;
    view.src_ip = 0x0A000001;
    view.dst_ip = 0x0A010002;
    view.src_port = static_cast<net::Port>(port++);
    view.dst_port = 80;
    view.proto = net::kIpProtoUdpLite;
    return view;
  }));
  EXPECT_LE(filter->flows(0).MaxProbeDisplacement(), kMaxDisplacement);
}

}  // namespace
}  // namespace para::filter
