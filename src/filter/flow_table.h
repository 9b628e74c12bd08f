// Stateful connection tracking for the packet filter: a bounded flow table
// keyed on the (src, dst, sport, dport, proto) 5-tuple with exact LRU
// eviction, per-flow counters, reverse-tuple matching, and optional idle
// expiry on the virtual clock. A flow is recorded when a packet passes the
// rule set; subsequent packets of the flow — in EITHER direction: reply
// traffic matches the reversed tuple and shares the established entry — hit
// the table and skip rule evaluation entirely. Each entry records the
// rule-set epoch that admitted it, so the filter can tell a fresh verdict
// from one cached under rules that have since been reloaded (PacketFilter
// re-evaluates stale-epoch hits unless keep-alive is configured). With a
// clock and TTL configured, entries idle longer than the TTL expire lazily
// on the next touch (and expired LRU victims are reclaimed before live ones
// under pressure).
//
// Layout: a flat, open-addressed index over a fixed node array, both sized
// at construction and never reallocated — the data path makes no heap
// allocation and a returned FlowEntry* stays put until its entry leaves the
// table. The index is keyed on SymmetricFlowHash, so a conversation's two
// orientations share one probe sequence: a lookup is ONE linear probe that
// reports which way the stored key matched, and "one entry per
// conversation" is structural. Each index word packs the hash's top 32 bits
// (a tag compared before any node is touched) with the node id; deletion
// shifts later entries back (no tombstones). Nodes carry intrusive uint32
// LRU links and a back-pointer to their index slot, so evicting the LRU tail
// needs no probe. Memory: 88 B per node plus 16-32 B of index per entry
// (the index holds the next power of two >= 2 x capacity words).
#ifndef PARAMECIUM_SRC_FILTER_FLOW_TABLE_H_
#define PARAMECIUM_SRC_FILTER_FLOW_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "src/base/vclock.h"
#include "src/net/filter_hook.h"

namespace para::filter {

struct FlowKey {
  net::IpAddr src_ip = 0;
  net::IpAddr dst_ip = 0;
  net::Port src_port = 0;
  net::Port dst_port = 0;
  uint8_t proto = 0;

  bool operator==(const FlowKey& other) const = default;

  // The 5-tuple of the reply direction: what a response packet carries.
  FlowKey Reversed() const { return FlowKey{dst_ip, src_ip, dst_port, src_port, proto}; }
};

// Symmetric 5-tuple hash for shard steering: a conversation and its reply
// MUST land on the same shard, so the two (addr, port) endpoints are ordered
// canonically before mixing — SymmetricFlowHash(k) == SymmetricFlowHash(
// k.Reversed()) for every key, which the property tests enforce over random
// tuples. FlowTable indexes on the same hash for the same reason: both
// orientations land on one probe sequence. Shard steering consumes the low
// bits (hash % shards) and the table's index the high bits, so a shard's
// keys still spread over its whole index.
inline uint64_t SymmetricFlowHash(const FlowKey& key) {
  uint64_t a = static_cast<uint64_t>(key.src_ip) << 16 | key.src_port;
  uint64_t b = static_cast<uint64_t>(key.dst_ip) << 16 | key.dst_port;
  if (a > b) {
    const uint64_t t = a;
    a = b;
    b = t;
  }
  // splitmix64-style finalization over the ordered endpoints + proto.
  uint64_t h = a * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h += b;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  h += key.proto;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 32;
  return h;
}

struct FlowEntry {
  FlowKey key;           // the initiating (forward) direction
  uint64_t verdict = 0;  // encoded verdict cached from rule evaluation
  uint64_t packets = 0;  // forward-direction packets
  uint64_t bytes = 0;
  uint64_t reverse_packets = 0;  // reply-direction packets sharing this entry
  uint64_t reverse_bytes = 0;
  uint32_t epoch = 0;      // rule-set generation that admitted the flow
  VTime last_seen = 0;     // virtual time of the last touch (0 if no clock)
};

struct FlowTableStats {
  uint64_t hits = 0;          // forward + reverse
  uint64_t reverse_hits = 0;  // of which: matched via the reversed tuple
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t expirations = 0;    // TTL reclamations (lazy or under pressure)
  uint64_t reorientations = 0; // live reversed entry replaced by a re-establishment
};

class FlowTable {
 public:
  // `clock` + `ttl` enable idle expiry: an entry untouched for `ttl` virtual
  // nanoseconds is dead. ttl == 0 (or a null clock) disables expiry.
  explicit FlowTable(size_t capacity, const VirtualClock* clock = nullptr, VTime ttl = 0);

  // Direction of the match Find() returns.
  enum class Direction : uint8_t { kForward, kReverse };

  // Looks up a flow by its 5-tuple in either orientation — the stored key
  // equal to `key` (forward), or to its reversal (the reply direction) — and
  // on hit promotes it to most-recently-used and refreshes its idle timer.
  // `direction`, if non-null, reports which way matched. Expired entries are
  // reclaimed here and report as misses. The returned pointer stays valid
  // until the entry is erased, evicted, expired or cleared.
  FlowEntry* Find(const FlowKey& key, Direction* direction = nullptr);

  // Inserts (or replaces) a flow, reclaiming an expired LRU victim — or
  // evicting the live LRU entry — when at capacity. Returns the new entry
  // with all traffic counters reset: establishment starts a fresh
  // generation. At most one entry per conversation: inserting a key whose
  // *reversed* tuple is present rewrites that entry in place (the new
  // establishment defines the forward direction) instead of growing an
  // inverted twin.
  FlowEntry* Insert(const FlowKey& key, uint64_t verdict, uint32_t epoch);

  // Removes the entry stored under exactly `key` (not its reversal).
  bool Erase(const FlowKey& key);
  void Clear();

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  VTime ttl() const { return ttl_; }
  const FlowTableStats& stats() const { return stats_; }

  // Diagnostic: the longest distance, in slots, of any live entry from the
  // index slot its hash names — the worst probe a lookup of a present key
  // walks past. Scans the whole index; not for the data path.
  size_t MaxProbeDisplacement() const;

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct Node {
    FlowEntry entry;
    uint32_t prev;  // toward the MRU head; kNil at the head
    uint32_t next;  // toward the LRU tail; kNil at the tail (free-list link once freed)
    uint32_t slot;  // the index slot that names this node
  };
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  static uint32_t NodeOf(uint64_t word) { return static_cast<uint32_t>(word) - 1; }
  size_t Home(uint64_t hash) const { return static_cast<size_t>(hash >> shift_); }

  // Walks `hash`'s probe sequence for either orientation of `key`. Returns
  // the matching slot (with `*direction` set), or the empty slot that ends
  // the sequence.
  size_t Probe(const FlowKey& key, uint64_t hash, Direction* direction) const;
  bool Expired(const FlowEntry& entry) const;
  void Touch(uint32_t id);
  void Unlink(uint32_t id);
  void LinkFront(uint32_t id);
  // Unlinks, frees and unindexes node `id`.
  void Remove(uint32_t id);

  size_t capacity_;
  const VirtualClock* clock_;
  VTime ttl_;
  size_t mask_;     // index slots - 1
  unsigned shift_;  // 64 - log2(index slots): the hash's high bits pick the home slot
  std::unique_ptr<uint64_t[], FreeDeleter> index_;  // tag << 32 | (node id + 1); 0 = empty
  std::unique_ptr<Node[], FreeDeleter> nodes_;      // `capacity_` nodes
  size_t size_ = 0;
  uint32_t used_ = 0;     // nodes [0, used_) have been handed out at least once
  uint32_t free_ = kNil;  // freed nodes, chained through `next`
  uint32_t head_ = kNil;  // most recently used
  uint32_t tail_ = kNil;  // least recently used: the next victim
  FlowTableStats stats_;
};

}  // namespace para::filter

#endif  // PARAMECIUM_SRC_FILTER_FLOW_TABLE_H_
