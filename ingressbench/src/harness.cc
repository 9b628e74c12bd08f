#include "harness.h"

#include <cstring>
#include <fstream>
#include <functional>

namespace ib {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

namespace {
constexpr int kRefIterations = 6000;
constexpr uint64_t kRefFlows = 4096;
constexpr uint64_t kRefMul = 0x9E3779B97F4A7C15ull;
}  // namespace

SpeedRef::SpeedRef() : source_(2048) {
  for (size_t i = 0; i < source_.size(); ++i) {
    source_[i] = static_cast<uint8_t>(i * 131);
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    crc_table_[i] = c;
  }
  for (uint16_t p = 0; p < 16; ++p) {
    ports_[static_cast<uint16_t>(5000 + p)] = p;
  }
  for (uint64_t k = 0; k < kRefFlows; ++k) {
    flows_[k * kRefMul] = k;
  }
  samples_.reserve(4096);
}

double SpeedRef::Sample() {
  const std::function<uint64_t(uint64_t)> step = [](uint64_t x) { return x * 3 + 1; };
  const uint64_t t0 = NowNs();
  uint64_t sum = 0;
  for (int i = 0; i < kRefIterations; ++i) {
    const size_t size = 64 + ((static_cast<size_t>(i) * 37) & 511);
    std::vector<uint8_t> copy(source_.begin(), source_.begin() + static_cast<ptrdiff_t>(size));
    uint32_t crc = ~0u;
    for (size_t b = 0; b < 64; ++b) {
      crc = crc_table_[(crc ^ copy[b]) & 0xFF] ^ (crc >> 8);
    }
    sum += crc;
    sum += ports_.find(static_cast<uint16_t>(5000 + (i & 15)))->second;
    sum += flows_.find((static_cast<uint64_t>(i) & (kRefFlows - 1)) * kRefMul)->second;
    sum = step(sum);
  }
  asm volatile("" : : "r"(sum));
  const double slowdown = static_cast<double>(NowNs() - t0) / 1e3 / kNominalUs;
  samples_.push_back(slowdown);
  return slowdown;
}

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kNone: return "";
    case SpanName::kBurst: return "burst";
    case SpanName::kNetOnFrameBurst: return "net.on_frame_burst";
    case SpanName::kFilterBatchHook: return "filter.batch_hook";
    case SpanName::kFilterHook: return "filter.hook";
    case SpanName::kAppSocketHandler: return "app.socket_handler";
    case SpanName::kE9Inject: return "hw.deliver_frames";
    case SpanName::kE9Run: return "nucleus.run_until_idle";
    case SpanName::kCtlReload: return "ctl.reload";
    case SpanName::kCtlParse: return "ctl.parse";
    case SpanName::kCtlLoadCertified: return "ctl.load_certified";
    case SpanName::kCtlReplay: return "ctl.replay";
    case SpanName::kCtlCompile: return "ctl.compile";
    case SpanName::kCtlVerify: return "ctl.verify";
    case SpanName::kCtlAnalyze: return "ctl.analyze";
    case SpanName::kCtlJit: return "ctl.jit";
    case SpanName::kCtlCertify: return "ctl.certify";
    case SpanName::kCtlValidate: return "ctl.validate";
    case SpanName::kCount: break;
  }
  return "?";
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  uint64_t origin = ~uint64_t{0};
  for (const Span& s : kept_) {
    origin = std::min(origin, s.start);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : kept_) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << SpanNameText(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << TicksToNs(s.start - origin) / 1000.0
        << ",\"dur\":" << TicksToNs(s.end - s.start) / 1000.0 << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":\"" << SpanNameText(s.parent) << "\"}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

}  // namespace ib
