// Measurement plumbing for the ingress benchmark: clocks, the allocation
// counter, a preallocated latency histogram, throughput windows, and the
// in-memory span log of the traced run. Nothing here allocates on the
// measured path once constructed.
#ifndef INGRESSBENCH_SRC_HARNESS_H_
#define INGRESSBENCH_SRC_HARNESS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/telemetry.h"

namespace ib {

// Wall clock for end-to-end figures (vDSO clock_gettime, ~20 ns).
inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// Span clock for the traced run: the TSC the repo's telemetry already uses.
inline uint64_t Ticks() { return para::telemetry::TraceClock(); }
inline double TicksToNs(uint64_t ticks) {
  static const double ns_per_tick = 1e9 / para::telemetry::Registry::TicksPerSecond();
  return static_cast<double>(ticks) * ns_per_tick;
}

// operator new calls made by the calling thread (alloc.cc overrides the
// global allocation functions of this binary).
uint64_t ThreadAllocs();

double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double p);

// Log-linear histogram of nanosecond samples: 128 linear sub-buckets per
// power of two (<0.8% bucket width), interpolated by rank inside a bucket.
// Fixed-size storage, so Record() is a few instructions and never allocates.
class Histogram {
 public:
  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  uint64_t count() const { return total_; }
  // p in [0, 1]; 0 when empty.
  double Quantile(double p) const {
    if (total_ == 0) {
      return 0;
    }
    const double rank = p * static_cast<double>(total_ - 1);
    uint64_t below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      const uint64_t c = counts_[i];
      if (c == 0) {
        continue;
      }
      if (static_cast<double>(below + c) > rank) {
        const double lo = static_cast<double>(Lower(i));
        const double width = static_cast<double>(Lower(i + 1)) - lo;
        return lo + width * ((rank - static_cast<double>(below) + 0.5) / static_cast<double>(c));
      }
      below += c;
    }
    return static_cast<double>(Lower(counts_.size() - 1));
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (48 - kSubBits) * kSub;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    const int msb = std::bit_width(v) - 1;
    if (msb >= 48) {
      return kBuckets - 1;
    }
    const int shift = msb - kSubBits;
    return static_cast<size_t>(kSub + static_cast<uint64_t>(shift) * kSub +
                               ((v >> shift) - kSub));
  }
  static uint64_t Lower(size_t index) {
    if (index < kSub) {
      return index;
    }
    const uint64_t shift = (index - kSub) / kSub;
    const uint64_t sub = (index - kSub) % kSub;
    return (kSub + sub) << shift;
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

// Machine-speed reference. The host these figures come from changes speed
// by up to ~50% over minutes (frequency, and memory-system contention from
// other tenants), which moves every figure of a run together. The reference
// is a fixed amount of the generic work the RX path is made of — allocate,
// copy, table-driven CRC, std::map and std::unordered_map lookups,
// std::function calls — using no Paramecium code, so a change to the system
// under test never moves it. Sample() times it once; its ratio to the
// nominal time is the run's slowdown at that moment.
class SpeedRef {
 public:
  // The reference's time on the reference machine (this host in a median
  // state); normalized figures read as if measured there.
  static constexpr double kNominalUs = 1500.0;

  SpeedRef();
  double Sample();  // runs the reference; records and returns the slowdown
  double MedianSlowdown() const { return samples_.empty() ? 1.0 : Median(samples_); }
  size_t samples() const { return samples_.size(); }

 private:
  std::vector<uint8_t> source_;
  std::array<uint32_t, 256> crc_table_{};
  std::map<uint16_t, uint64_t> ports_;
  std::unordered_map<uint64_t, uint64_t> flows_;
  std::vector<double> samples_;
};

// Span names of the traced run. A span's parent is named, not indexed: self
// time per name is its total minus the totals of spans naming it as parent.
enum class SpanName : uint8_t {
  kNone,
  kBurst,
  kNetOnFrameBurst,
  kFilterBatchHook,
  kFilterHook,
  kAppSocketHandler,
  kE9Inject,
  kE9Run,
  kCtlReload,
  kCtlParse,
  kCtlLoadCertified,
  kCtlReplay,
  kCtlCompile,
  kCtlVerify,
  kCtlAnalyze,
  kCtlJit,
  kCtlCertify,
  kCtlValidate,
  kCount,
};
const char* SpanNameText(SpanName name);

struct Span {
  uint64_t start = 0;  // ticks
  uint64_t end = 0;
  uint64_t id = 0;  // shared by every span of one burst or one reload
  SpanName name = SpanName::kNone;
  SpanName parent = SpanName::kNone;
  uint32_t thread = 0;
};

// Keeps the first `capacity` spans for the written trace and folds every
// span into per-name totals. One log per thread; Merge() folds them.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity, uint32_t thread = 0) : thread_(thread) {
    kept_.reserve(capacity);
  }
  void Add(SpanName name, SpanName parent, uint64_t id, uint64_t start, uint64_t end) {
    const uint64_t d = end - start;
    total_[static_cast<size_t>(name)] += d;
    child_total_[static_cast<size_t>(parent)] += d;
    if (kept_.size() < kept_.capacity()) {
      kept_.push_back(Span{start, end, id, name, parent, thread_});
    }
  }
  void Merge(const SpanLog& other) {
    for (size_t i = 0; i < total_.size(); ++i) {
      total_[i] += other.total_[i];
      child_total_[i] += other.child_total_[i];
    }
    kept_.insert(kept_.end(), other.kept_.begin(), other.kept_.end());
  }
  double TotalNs(SpanName name) const { return TicksToNs(total_[static_cast<size_t>(name)]); }
  double SelfNs(SpanName name) const {
    const size_t i = static_cast<size_t>(name);
    return TicksToNs(total_[i] - std::min(total_[i], child_total_[i]));
  }
  // chrome://tracing "complete" events, one per kept span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kNames = static_cast<size_t>(SpanName::kCount);
  uint32_t thread_;
  std::vector<Span> kept_;
  std::array<uint64_t, kNames> total_{};
  std::array<uint64_t, kNames> child_total_{};
};

}  // namespace ib

#endif  // INGRESSBENCH_SRC_HARNESS_H_
