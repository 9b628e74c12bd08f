// The four workloads' set-up, closed-loop drivers and metric extraction.
#ifndef INGRESSBENCH_SRC_WORKLOADS_H_
#define INGRESSBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "traffic.h"

namespace ib {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOptions {
  Workload workload = Workload::kFlowHit64;
  uint64_t seed = 1;
  double seconds = 10;
  // false: end-to-end metrics from an untraced run. true: per-layer metrics
  // from a run alternating untraced and traced slices.
  bool trace = false;
  std::string trace_path;  // chrome://tracing output of the traced run ("" = none)
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  // Run record: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> info;

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string key, std::string json) {
    info.emplace_back(std::move(key), std::move(json));
  }
};

RunResult RunWorkload(const RunOptions& options);

// Benchmark self-tests; returns the number of failed checks.
int RunSelfTests();

}  // namespace ib

#endif  // INGRESSBENCH_SRC_WORKLOADS_H_
