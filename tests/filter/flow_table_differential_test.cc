// Differential test for the flat flow table: the same seeded random streams
// of Find/Insert/Erase/Clear drive FlowTable and a reference model — the
// straightforward std::list + std::unordered_map LRU table, kept here (and
// only here) as the oracle. After every operation both must agree on
// hit/miss, match direction, entry contents, FlowTableStats and size; at the
// end, draining both by eviction must retire entries in the same order.
// The key space is small so reversed tuples, self-symmetric tuples
// (src == dst, sport == dport) and re-establishments are frequent.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>

#include "src/base/random.h"
#include "src/base/vclock.h"
#include "src/filter/flow_table.h"

namespace para::filter {
namespace {

// --- the reference model ------------------------------------------------------

struct ReferenceKeyHash {
  size_t operator()(const FlowKey& key) const {
    // FNV-1a over the packed tuple.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<uint64_t>(key.src_ip) << 32 | key.dst_ip);
    mix(static_cast<uint64_t>(key.src_port) << 24 | static_cast<uint64_t>(key.dst_port) << 8 |
        key.proto);
    return static_cast<size_t>(h);
  }
};

// Exact LRU over a node list (front = most recently used) with a map from
// each stored key to its node. A miss probes the forward tuple, then the
// reversed one.
class ReferenceFlowTable {
 public:
  using Direction = FlowTable::Direction;

  ReferenceFlowTable(size_t capacity, const VirtualClock* clock, VTime ttl)
      : capacity_(capacity), clock_(clock), ttl_(clock == nullptr ? 0 : ttl) {}

  FlowEntry* Find(const FlowKey& key, Direction* direction) {
    auto lookup = [this](const FlowKey& k) {
      auto it = map_.find(k);
      if (it != map_.end() && Expired(*it->second)) {
        ++stats_.expirations;
        lru_.erase(it->second);
        map_.erase(it);
        return map_.end();
      }
      return it;
    };
    auto it = lookup(key);
    Direction dir = Direction::kForward;
    if (it == map_.end()) {
      it = lookup(key.Reversed());
      dir = Direction::kReverse;
    }
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    if (dir == Direction::kReverse) {
      ++stats_.reverse_hits;
    }
    *direction = dir;
    return Touch(it->second);
  }

  FlowEntry* Insert(const FlowKey& key, uint64_t verdict, uint32_t epoch) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      FlowEntry* entry = Touch(it->second);
      entry->verdict = verdict;
      entry->epoch = epoch;
      entry->packets = 0;
      entry->bytes = 0;
      entry->reverse_packets = 0;
      entry->reverse_bytes = 0;
      return entry;
    }
    auto reversed = map_.find(key.Reversed());
    if (reversed != map_.end()) {
      if (Expired(*reversed->second)) {
        ++stats_.expirations;
      } else {
        ++stats_.reorientations;
      }
      lru_.erase(reversed->second);
      map_.erase(reversed);
    }
    if (map_.size() >= capacity_) {
      if (Expired(lru_.back())) {
        ++stats_.expirations;
      } else {
        ++stats_.evictions;
      }
      map_.erase(lru_.back().key);
      lru_.pop_back();
    }
    ++stats_.inserts;
    FlowEntry entry;
    entry.key = key;
    entry.verdict = verdict;
    entry.epoch = epoch;
    entry.last_seen = clock_ != nullptr ? clock_->now() : 0;
    lru_.push_front(entry);
    map_.emplace(key, lru_.begin());
    return &lru_.front();
  }

  bool Erase(const FlowKey& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  void Clear() {
    lru_.clear();
    map_.clear();
  }

  // The entry the next over-capacity Insert of a new conversation retires.
  std::optional<FlowKey> Victim() const {
    if (map_.size() < capacity_) {
      return std::nullopt;
    }
    return lru_.back().key;
  }

  size_t size() const { return map_.size(); }
  const FlowTableStats& stats() const { return stats_; }

 private:
  using LruList = std::list<FlowEntry>;

  bool Expired(const FlowEntry& entry) const {
    return ttl_ != 0 && clock_->now() >= entry.last_seen + ttl_;
  }
  FlowEntry* Touch(LruList::iterator it) {
    lru_.splice(lru_.begin(), lru_, it);
    if (clock_ != nullptr) {
      it->last_seen = clock_->now();
    }
    return &*it;
  }

  size_t capacity_;
  const VirtualClock* clock_;
  VTime ttl_;
  LruList lru_;
  std::unordered_map<FlowKey, LruList::iterator, ReferenceKeyHash> map_;
  FlowTableStats stats_;
};

// --- the differential run ----------------------------------------------------

void ExpectSameStats(const FlowTable& flat, const ReferenceFlowTable& ref) {
  const FlowTableStats& a = flat.stats();
  const FlowTableStats& b = ref.stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.reverse_hits, b.reverse_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.expirations, b.expirations);
  EXPECT_EQ(a.reorientations, b.reorientations);
  EXPECT_EQ(flat.size(), ref.size());
}

void ExpectSameEntry(const FlowEntry* a, const FlowEntry* b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) {
    return;
  }
  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->verdict, b->verdict);
  EXPECT_EQ(a->packets, b->packets);
  EXPECT_EQ(a->bytes, b->bytes);
  EXPECT_EQ(a->reverse_packets, b->reverse_packets);
  EXPECT_EQ(a->reverse_bytes, b->reverse_bytes);
  EXPECT_EQ(a->epoch, b->epoch);
  EXPECT_EQ(a->last_seen, b->last_seen);
}

// Each field draws from `width` values, so the space holds 2 * width^4 keys —
// about four conversations per table slot, so the table runs at capacity —
// and one draw in width^2 is self-symmetric.
size_t KeyWidthFor(size_t capacity) {
  size_t width = 2;
  while (2 * width * width * width * width < 8 * capacity) {
    ++width;
  }
  return width;
}

FlowKey RandomKey(para::Random& rng, size_t width) {
  auto pick = [&rng, width] { return static_cast<uint32_t>(rng.NextBelow(width)); };
  return FlowKey{0x0A000001u + pick(), 0x0A000001u + pick(),
                 static_cast<net::Port>(1000 + pick()), static_cast<net::Port>(1000 + pick()),
                 static_cast<uint8_t>(rng.NextBelow(2) == 0 ? 6 : 17)};
}

class FlowTableDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool, uint64_t>> {};

TEST_P(FlowTableDifferentialTest, MatchesReferenceModel) {
  const auto [capacity, with_clock, seed] = GetParam();
  // Idle entries outlive about one table's worth of operations.
  const VTime ttl = 12 * capacity + 8;
  VirtualClock clock;
  const VirtualClock* clock_ptr = with_clock ? &clock : nullptr;
  FlowTable flat(capacity, clock_ptr, ttl);
  ReferenceFlowTable ref(capacity, clock_ptr, ttl);

  para::Random rng(seed * 0x9E3779B97F4A7C15ull + capacity);
  const size_t width = KeyWidthFor(capacity);
  const int ops = capacity >= 1000 ? 60000 : 20000;
  FlowKey recent = RandomKey(rng, width);
  uint32_t epoch = 1;

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (with_clock) {
      clock.Advance(rng.NextBelow(8));
    }
    if (op % (ops / 4) == ops / 8) {
      flat.Clear();
      ref.Clear();
    }
    // Bias toward the reply orientation of recent traffic.
    FlowKey key = rng.NextBelow(3) == 0 ? recent.Reversed() : RandomKey(rng, width);
    recent = key;

    const uint64_t roll = rng.NextBelow(1000);
    if (roll < 550) {
      FlowTable::Direction flat_dir = FlowTable::Direction::kForward;
      FlowTable::Direction ref_dir = FlowTable::Direction::kForward;
      FlowEntry* a = flat.Find(key, &flat_dir);
      FlowEntry* b = ref.Find(key, &ref_dir);
      ASSERT_NO_FATAL_FAILURE(ExpectSameEntry(a, b));
      if (a != nullptr) {
        ASSERT_EQ(flat_dir, ref_dir);
        // Count the packet the way the filter does, so counters diverge if
        // the tables hand out different entries.
        const uint64_t bytes = rng.NextBelow(1500);
        for (FlowEntry* e : {a, b}) {
          if (flat_dir == FlowTable::Direction::kForward) {
            ++e->packets;
            e->bytes += bytes;
          } else {
            ++e->reverse_packets;
            e->reverse_bytes += bytes;
          }
        }
      }
    } else if (roll < 950) {
      if (rng.NextBelow(16) == 0) {
        ++epoch;
      }
      const uint64_t verdict = rng.Next();
      FlowEntry* a = flat.Insert(key, verdict, epoch);
      FlowEntry* b = ref.Insert(key, verdict, epoch);
      ASSERT_NO_FATAL_FAILURE(ExpectSameEntry(a, b));
      a->packets = b->packets = 1;
    } else {
      EXPECT_EQ(flat.Erase(key), ref.Erase(key));
    }
    ExpectSameStats(flat, ref);
    if (HasFailure()) {
      return;
    }
  }

  // The stream exercised every path it is meant to compare.
  const FlowTableStats& covered = ref.stats();
  EXPECT_GT(covered.reverse_hits, 0u);
  EXPECT_GT(covered.reorientations, 0u);
  EXPECT_GT(covered.evictions, 0u);
  if (with_clock) {
    EXPECT_GT(covered.expirations, 0u);
  }

  // Drain: fresh conversations (outside the random key space) push every
  // survivor out, oldest first. Each retired entry must be gone from both.
  for (uint32_t i = 0; i < capacity; ++i) {
    const std::optional<FlowKey> victim = ref.Victim();
    const FlowKey fresh{0xC0A80001u, 0xC0A80002u, static_cast<net::Port>(i & 0xFFFF),
                        static_cast<net::Port>(i >> 16), 99};
    flat.Insert(fresh, i, epoch);
    ref.Insert(fresh, i, epoch);
    if (victim.has_value()) {
      FlowTable::Direction flat_dir = FlowTable::Direction::kForward;
      FlowTable::Direction ref_dir = FlowTable::Direction::kForward;
      EXPECT_EQ(ref.Find(*victim, &ref_dir), nullptr);
      EXPECT_EQ(flat.Find(*victim, &flat_dir), nullptr) << "drain step " << i;
    }
    ExpectSameStats(flat, ref);
    if (HasFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesClocksSeeds, FlowTableDifferentialTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64},
                                         size_t{1000}),
                       ::testing::Bool(), ::testing::Values(uint64_t{1}, uint64_t{2})),
    [](const ::testing::TestParamInfo<FlowTableDifferentialTest::ParamType>& info) {
      return "Cap" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Ttl" : "NoClock") + "Seed" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace para::filter
