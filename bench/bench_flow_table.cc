// Flow-table benchmarks: the table alone, without rule evaluation or the
// filter's bookkeeping around it.
//   * BM_FlowTableHit/N — forward lookups cycling over N established flows
//     (N = 1: everything in L1; N = 16384: the index and nodes spill out of
//     the core's private caches);
//   * BM_FlowTableReverseHit — reply-direction lookups of established flows;
//   * BM_FlowTableChurn/C — a C-entry table fed 4 x C keys round-robin:
//     every packet misses, then inserts and evicts the LRU tail.
// BM_FlowTableCalibrate is the fixed integer loop the other suites use as a
// machine-speed probe.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/filter/flow_table.h"

namespace {

using namespace para;          // NOLINT
using namespace para::filter;  // NOLINT

// `n` distinct conversations, in a shuffled order so a lookup loop walks
// neither the index nor the node array sequentially.
std::vector<FlowKey> Conversations(size_t n, uint64_t seed) {
  std::vector<FlowKey> keys;
  keys.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    keys.push_back(
        FlowKey{0x0A000000u | i, 0x0A010002u, static_cast<net::Port>(1024 + (i & 0x3FFF)), 80, 17});
  }
  para::Random rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBelow(i)]);
  }
  return keys;
}

void BM_FlowTableCalibrate(benchmark::State& state) {
  for (auto _ : state) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 1000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    benchmark::DoNotOptimize(x);
  }
}

void BM_FlowTableHit(benchmark::State& state) {
  const size_t flows = static_cast<size_t>(state.range(0));
  FlowTable table(flows);
  const std::vector<FlowKey> keys = Conversations(flows, 1);
  for (const FlowKey& key : keys) {
    table.Insert(key, 1, 1);
  }
  size_t i = 0;
  for (auto _ : state) {
    FlowEntry* entry = table.Find(keys[i]);
    benchmark::DoNotOptimize(entry);
    i = i + 1 == flows ? 0 : i + 1;
  }
  state.counters["hit_rate"] = static_cast<double>(table.stats().hits) /
                               static_cast<double>(table.stats().hits + table.stats().misses);
}

void BM_FlowTableReverseHit(benchmark::State& state) {
  constexpr size_t kFlows = 1024;
  FlowTable table(kFlows);
  std::vector<FlowKey> replies;
  for (const FlowKey& key : Conversations(kFlows, 2)) {
    table.Insert(key, 1, 1);
    replies.push_back(key.Reversed());
  }
  size_t i = 0;
  FlowTable::Direction dir = FlowTable::Direction::kForward;
  for (auto _ : state) {
    FlowEntry* entry = table.Find(replies[i], &dir);
    benchmark::DoNotOptimize(entry);
    i = i + 1 == kFlows ? 0 : i + 1;
  }
  state.counters["reverse_share"] = static_cast<double>(table.stats().reverse_hits) /
                                    static_cast<double>(table.stats().hits);
}

void BM_FlowTableChurn(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  const size_t cycle = 4 * capacity;
  FlowTable table(capacity);
  const std::vector<FlowKey> keys = Conversations(cycle, 3);
  size_t i = 0;
  for (auto _ : state) {
    const FlowKey& key = keys[i];
    FlowEntry* entry = table.Find(key);
    if (entry == nullptr) {
      entry = table.Insert(key, 1, 1);
    }
    benchmark::DoNotOptimize(entry);
    i = i + 1 == cycle ? 0 : i + 1;
  }
  state.counters["evictions_per_op"] =
      static_cast<double>(table.stats().evictions) / static_cast<double>(state.iterations());
}

BENCHMARK(BM_FlowTableCalibrate);
BENCHMARK(BM_FlowTableHit)->Arg(1)->Arg(16384);
BENCHMARK(BM_FlowTableReverseHit);
BENCHMARK(BM_FlowTableChurn)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
