// The benchmark's workloads: a closed-loop load generator talking to an
// in-process dfkyd over its unix socket, plus the checks on every output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace dfkybench {

struct RunConfig {
  std::string workload;  // "encrypt-feed", "churn" or "catchup"
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  // the per-layer run
};

struct RunResult {
  Tally tally;
  /// Metric name -> value; the end-to-end set, or with RunConfig::trace
  /// the per-layer set.
  std::map<std::string, double> metrics;
  /// Human-readable report: every latency with its sample count, the
  /// workload-specific latencies and the failure breakdown.
  std::vector<std::string> report;
};

/// The benchmark's workloads (BENCHMARK.json).
extern const std::vector<std::string> kWorkloads;
/// Every end-to-end metric (trace 0) and per-layer metric (trace 1) a run
/// reports, on every workload, with its unit.
struct MetricName {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricName> kEndToEnd;
extern const std::vector<MetricName> kPerLayer;

/// Runs one workload in the current directory (its scratch space).
/// Throws on a set-up failure; failed checks during the run are counted in
/// `out.tally` instead.
void run_workload(const RunConfig& cfg, RunResult& out);

}  // namespace dfkybench
