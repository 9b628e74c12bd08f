// Packet buffer with headroom, so each protocol layer prepends its header
// without copying the payload — the usual kernel mbuf/skb trick, sized for
// the simulated link's 2 KiB frames. It serves the TX path; received frames
// are parsed in place (see the *Decap functions in headers.h).
#ifndef PARAMECIUM_SRC_NET_PKTBUF_H_
#define PARAMECIUM_SRC_NET_PKTBUF_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/base/log.h"

namespace para::net {

class PacketBuffer {
 public:
  static constexpr size_t kDefaultHeadroom = 64;
  static constexpr size_t kDefaultCapacity = 2048;

  // An empty buffer with `headroom` bytes reserved for headers.
  explicit PacketBuffer(size_t headroom = kDefaultHeadroom,
                        size_t capacity = kDefaultCapacity)
      : storage_(capacity), begin_(headroom), end_(headroom) {
    PARA_CHECK(headroom <= capacity);
  }

  size_t size() const { return end_ - begin_; }
  size_t headroom() const { return begin_; }
  bool empty() const { return begin_ == end_; }

  std::span<uint8_t> data() { return std::span<uint8_t>(storage_.data() + begin_, size()); }
  std::span<const uint8_t> data() const {
    return std::span<const uint8_t>(storage_.data() + begin_, size());
  }

  // Appends payload bytes at the tail.
  void Append(std::span<const uint8_t> bytes) {
    PARA_CHECK(end_ + bytes.size() <= storage_.size());
    if (bytes.empty()) {
      return;  // an empty span may carry a null data(), which memcpy forbids
    }
    std::memcpy(storage_.data() + end_, bytes.data(), bytes.size());
    end_ += bytes.size();
  }

  // Claims `bytes` of headroom for a header; returns the header span.
  std::span<uint8_t> Prepend(size_t bytes) {
    PARA_CHECK(begin_ >= bytes);
    begin_ -= bytes;
    return std::span<uint8_t>(storage_.data() + begin_, bytes);
  }

  // Drops `bytes` from the front (consuming a parsed header).
  void Consume(size_t bytes) {
    PARA_CHECK(size() >= bytes);
    begin_ += bytes;
  }

  // Trims the tail (e.g. removing a frame check sequence).
  void TrimTail(size_t bytes) {
    PARA_CHECK(size() >= bytes);
    end_ -= bytes;
  }

 private:
  std::vector<uint8_t> storage_;
  size_t begin_;
  size_t end_;
};

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_PKTBUF_H_
