#include "src/filter/flow_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/base/log.h"

namespace para::filter {

namespace {

constexpr uint64_t kTagMask = ~uint64_t{0xFFFFFFFF};

// Keys compare as packed words, never field by field over the padding: both
// addresses in one 64-bit load, both ports in one 32-bit load, then proto.
// Swapping the halves of each word yields the reversed tuple's packing.
static_assert(offsetof(FlowKey, dst_ip) == offsetof(FlowKey, src_ip) + sizeof(net::IpAddr));
static_assert(offsetof(FlowKey, dst_port) == offsetof(FlowKey, src_port) + sizeof(net::Port));
static_assert(sizeof(net::IpAddr) == 4 && sizeof(net::Port) == 2);

uint64_t PackedAddrs(const FlowKey& key) {
  uint64_t v = 0;
  std::memcpy(&v, reinterpret_cast<const unsigned char*>(&key) + offsetof(FlowKey, src_ip),
              sizeof v);
  return v;
}

uint32_t PackedPorts(const FlowKey& key) {
  uint32_t v = 0;
  std::memcpy(&v, reinterpret_cast<const unsigned char*>(&key) + offsetof(FlowKey, src_port),
              sizeof v);
  return v;
}

}  // namespace

FlowTable::FlowTable(size_t capacity, const VirtualClock* clock, VTime ttl)
    : capacity_(capacity), clock_(clock), ttl_(clock == nullptr ? 0 : ttl) {
  PARA_CHECK(capacity > 0);
  // Keeps node ids in an index word's low 32 bits and the home slot inside
  // its tag bits (at most 2^31 slots).
  PARA_CHECK(capacity <= (size_t{1} << 30));
  // Load factor <= 1/2 keeps linear probes short. Memory comes from calloc /
  // malloc so untouched pages of a large table stay unmapped until used.
  const size_t slots = std::bit_ceil(2 * capacity);
  mask_ = slots - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  index_.reset(static_cast<uint64_t*>(std::calloc(slots, sizeof(uint64_t))));
  nodes_.reset(static_cast<Node*>(std::malloc(capacity * sizeof(Node))));
  PARA_CHECK(index_ != nullptr && nodes_ != nullptr);
}

size_t FlowTable::Probe(const FlowKey& key, uint64_t hash, Direction* direction) const {
  const uint64_t addrs = PackedAddrs(key);
  const uint32_t ports = PackedPorts(key);
  for (size_t slot = Home(hash);; slot = (slot + 1) & mask_) {
    const uint64_t word = index_[slot];
    if (word == 0) {
      return slot;
    }
    if (((word ^ hash) & kTagMask) != 0) {
      continue;  // another conversation's tag: its node stays untouched
    }
    const FlowKey& stored = nodes_[NodeOf(word)].entry.key;
    if (stored.proto != key.proto) {
      continue;
    }
    const uint64_t stored_addrs = PackedAddrs(stored);
    const uint32_t stored_ports = PackedPorts(stored);
    if (stored_addrs == addrs && stored_ports == ports) {
      *direction = Direction::kForward;
      return slot;
    }
    if (stored_addrs == std::rotl(addrs, 32) && stored_ports == std::rotl(ports, 16)) {
      *direction = Direction::kReverse;
      return slot;
    }
  }
}

bool FlowTable::Expired(const FlowEntry& entry) const {
  return ttl_ != 0 && clock_->now() >= entry.last_seen + ttl_;
}

void FlowTable::Unlink(uint32_t id) {
  const Node& node = nodes_[id];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void FlowTable::LinkFront(uint32_t id) {
  Node& node = nodes_[id];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = id;
  } else {
    tail_ = id;
  }
  head_ = id;
}

void FlowTable::Touch(uint32_t id) {
  if (id != head_) {
    Unlink(id);
    LinkFront(id);
  }
  if (clock_ != nullptr) {
    nodes_[id].entry.last_seen = clock_->now();
  }
}

void FlowTable::Remove(uint32_t id) {
  Unlink(id);
  nodes_[id].next = free_;
  free_ = id;
  --size_;
  // Backward-shift deletion: pull each later entry of the run back into the
  // hole unless its home slot lies after the hole, so every entry stays
  // reachable from its home without tombstones.
  size_t hole = nodes_[id].slot;
  for (size_t slot = (hole + 1) & mask_;; slot = (slot + 1) & mask_) {
    const uint64_t word = index_[slot];
    if (word == 0) {
      break;
    }
    if (((slot - Home(word)) & mask_) >= ((slot - hole) & mask_)) {
      index_[hole] = word;
      nodes_[NodeOf(word)].slot = static_cast<uint32_t>(hole);
      hole = slot;
    }
  }
  index_[hole] = 0;
}

FlowEntry* FlowTable::Find(const FlowKey& key, Direction* direction) {
  Direction dir = Direction::kForward;
  const uint64_t word = index_[Probe(key, SymmetricFlowHash(key), &dir)];
  if (word != 0) {
    const uint32_t id = NodeOf(word);
    if (!Expired(nodes_[id].entry)) {
      ++stats_.hits;
      if (dir == Direction::kReverse) {
        ++stats_.reverse_hits;
      }
      if (direction != nullptr) {
        *direction = dir;
      }
      Touch(id);
      return &nodes_[id].entry;
    }
    // Idle past the TTL: the flow is gone; reclaim lazily.
    ++stats_.expirations;
    Remove(id);
  }
  ++stats_.misses;
  return nullptr;
}

FlowEntry* FlowTable::Insert(const FlowKey& key, uint64_t verdict, uint32_t epoch) {
  const uint64_t hash = SymmetricFlowHash(key);
  Direction dir = Direction::kForward;
  size_t slot = Probe(key, hash, &dir);
  uint32_t id = kNil;
  if (index_[slot] != 0) {
    id = NodeOf(index_[slot]);
    if (dir == Direction::kReverse) {
      // One entry per conversation: the reply orientation is present
      // (reply-first establishment, or a forward entry that expired and the
      // conversation is being re-admitted from the other side). Re-key it
      // to the establishing direction; two coexisting entries would split
      // the conversation's counters and invert the directional ones.
      if (Expired(nodes_[id].entry)) {
        ++stats_.expirations;
      } else {
        ++stats_.reorientations;
      }
      ++stats_.inserts;
      nodes_[id].entry.key = key;
    }
    // Either way the entry starts a fresh generation below: the previous
    // one's traffic (notably the reverse-direction counters) must not be
    // attributed to the new establishment.
    Touch(id);
  } else {
    if (size_ >= capacity_) {
      // Prefer reclaiming an expired victim over evicting a live flow; the
      // LRU tail is the oldest-idle entry, so if anything has expired, it
      // has. The shift may move the run the probe ended in, so find the
      // insertion slot again.
      if (Expired(nodes_[tail_].entry)) {
        ++stats_.expirations;
      } else {
        ++stats_.evictions;
      }
      Remove(tail_);
      slot = Home(hash);
      while (index_[slot] != 0) {
        slot = (slot + 1) & mask_;
      }
    }
    ++stats_.inserts;
    if (free_ != kNil) {
      id = free_;
      free_ = nodes_[id].next;
    } else {
      id = used_++;
    }
    index_[slot] = (hash & kTagMask) | (uint64_t{id} + 1);
    nodes_[id].slot = static_cast<uint32_t>(slot);
    nodes_[id].entry.key = key;
    LinkFront(id);
    ++size_;
  }
  FlowEntry& entry = nodes_[id].entry;
  entry.verdict = verdict;
  entry.epoch = epoch;
  entry.packets = 0;
  entry.bytes = 0;
  entry.reverse_packets = 0;
  entry.reverse_bytes = 0;
  entry.last_seen = clock_ != nullptr ? clock_->now() : 0;
  return &entry;
}

bool FlowTable::Erase(const FlowKey& key) {
  Direction dir = Direction::kForward;
  const uint64_t word = index_[Probe(key, SymmetricFlowHash(key), &dir)];
  if (word == 0 || dir != Direction::kForward) {
    return false;
  }
  Remove(NodeOf(word));
  return true;
}

void FlowTable::Clear() {
  for (uint32_t id = head_; id != kNil; id = nodes_[id].next) {
    index_[nodes_[id].slot] = 0;
  }
  size_ = 0;
  used_ = 0;
  free_ = kNil;
  head_ = kNil;
  tail_ = kNil;
}

size_t FlowTable::MaxProbeDisplacement() const {
  size_t longest = 0;
  for (size_t slot = 0; slot <= mask_; ++slot) {
    if (const uint64_t word = index_[slot]; word != 0) {
      longest = std::max(longest, (slot - Home(word)) & mask_);
    }
  }
  return longest;
}

}  // namespace para::filter
