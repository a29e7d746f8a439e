// Per-layer measurement from outside the program: timed calls into each
// layer's public functions, the `obs` counters the program exports, and
// the daemon's request traces.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fixture.h"
#include "obs/trace.h"

namespace dfkybench {

/// Sum of every series of the counter `name` in the process's metrics
/// registry (all label sets).
double counter_sum(std::string_view name);

/// Single-threaded timings (medians, µs) of the core, group, crypto and
/// serial layers on a workload's own state, plus counted exponentiations
/// per core call.
struct CoreTimings {
  double seal_content_us = 0;
  double open_content_us = 0;
  double apply_reset_us = 0;
  double add_user_us = 0;
  double revoke_us = 0;
  double new_period_us = 0;
  double pow_us = 0;
  double multiexp_us = 0;  // v + 2 bases
  double stream_seal_us = 0;  // 1 KiB
  double schnorr_verify_us = 0;
  double hex_us_per_kib = 0;  // encode 1 KiB + decode it back
  double bundle_decode_us = 0;
  /// dfky_group_pow_total + dfky_fixedbase_pow_total per call.
  double pow_per_seal = 0;
  double pow_per_add_user = 0;
  double pow_per_apply_reset = 0;
};
CoreTimings time_core(const Fixture& fx, std::uint64_t seed);

/// Collects every trace the daemon files while it runs, by polling
/// obs::recent_traces() often enough that the 512-entry ring does not wrap
/// between reads. Ids the ring dropped before a read are counted as lost.
class TraceSampler {
 public:
  TraceSampler();
  ~TraceSampler();
  TraceSampler(const TraceSampler&) = delete;
  TraceSampler& operator=(const TraceSampler&) = delete;

  /// Stops polling (after a last read) and returns the traces, by id.
  std::vector<dfky::obs::TraceContext> finish();
  /// Trace ids in [first, last] seen that were never read.
  std::uint64_t lost() const { return lost_; }

 private:
  void poll();

  std::mutex mu_;
  std::unordered_map<std::uint64_t, dfky::obs::TraceContext> seen_;
  std::uint64_t lost_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: it uses the members above
};

/// Speed of the host: the median µs of a fixed chain of 512-bit GMP modular
/// exponentiations (`mpz_powm`, the routine the sec512 group's Group::pow
/// calls today, but on fixed operands and outside the program's code), run
/// nine times on each of up to 4 threads at once, one per processor the
/// workloads use. Call it only while the program under test is idle, so
/// that its figure holds the host's speed and none of the program's load.
double host_probe_us();

/// Mean self time per trace (µs) of each span kind, and of the total, over
/// the traces of one verb. Spans tile a trace, so a span's duration is its
/// self time.
struct SpanMeans {
  std::size_t n = 0;
  std::array<double, 10> span_us{};  // indexed by obs::SpanKind
  double total_us = 0;

  double of(dfky::obs::SpanKind k) const {
    return span_us[static_cast<std::size_t>(k)];
  }
};
SpanMeans span_means(const std::vector<dfky::obs::TraceContext>& traces,
                     std::string_view verb);

}  // namespace dfkybench
