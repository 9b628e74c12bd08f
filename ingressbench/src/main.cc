// ingress_bench: drives one workload for a fixed wall time and prints
//   info {...}                                   (run record)
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}   (last line)
// Usage:
//   ingress_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-file <path>]
//   ingress_bench --selftest
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "harness.h"
#include "src/base/log.h"
#include "src/sfi/jit.h"
#include "workloads.h"

#ifndef INGRESSBENCH_BUILD_TYPE
#define INGRESSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Fixed integer work (a dependent 64-bit LCG chain), timed: lets records
// from different machines be normalized against each other.
double CalibrationMs() {
  const uint64_t t0 = ib::NowNs();
  uint64_t x = 1;
  for (int i = 0; i < 50'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return static_cast<double>(ib::NowNs() - t0) / 1e6;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ingress_bench --workload <flowhit_64|churn_64|imix_reload|e9_user_rx> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n"
               "       ingress_bench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  para::Logger::Get().set_min_level(para::LogLevel::kError);
  ib::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") {
      const int failures = ib::RunSelfTests();
      std::printf("%s: %d failed check(s)\n", failures == 0 ? "OK" : "FAILED", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const auto w = ib::ParseWorkload(value);
      if (!w) {
        return Usage();
      }
      options.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-file") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.seconds <= 0) {
    return Usage();
  }

  const ib::RunResult r = ib::RunWorkload(options);

  std::string info = "{\"workload\":" + JsonString(ib::WorkloadName(options.workload)) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"seconds\":" + JsonNumber(options.seconds) +
                     ",\"trace\":" + (options.trace ? "1" : "0") +
                     ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ",\"cpu_model\":" + JsonString(CpuModel()) +
                     ",\"build_type\":" + JsonString(INGRESSBENCH_BUILD_TYPE) +
                     ",\"jit_available\":" + (para::sfi::JitAvailable() ? "true" : "false") +
                     ",\"PARA_SFI_NO_JIT\":" + JsonString(EnvOr("PARA_SFI_NO_JIT", "")) +
                     ",\"PARA_FILTER_SHARDS\":" + JsonString(EnvOr("PARA_FILTER_SHARDS", "")) +
                     ",\"commit\":" + JsonString(EnvOr("INGRESSBENCH_COMMIT", "unknown")) +
                     ",\"calibration_ms\":" + JsonNumber(CalibrationMs());
  for (const auto& [key, json] : r.info) {
    info += ",\"" + key + "\":" + json;
  }
  info += ",\"problems\":[";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    info += i == 0 ? "" : ",";
    info += JsonString(r.problems[i]);
  }
  info += "]}";
  std::printf("info %s\n", info.c_str());

  std::string out = std::string("{\"correct\":") + (r.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const ib::Metric& m = r.metrics[i];
    out += i == 0 ? "" : ",";
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
