// Sample statistics and failure accounting for the dfkyd benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dfkybench {

/// Linear-interpolated percentile (q in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double q);

double mean(const std::vector<double>& v);

/// The highest of the percentiles 50, 90, 99 and 99.9 that a sample of `n`
/// values supports, meaning at least ten samples lie beyond it; nullopt
/// when not even the median has ten samples beyond it.
std::optional<double> highest_supported_percentile(std::size_t n);

/// A latency sample summarized for the report: its size, median and the
/// highest percentile the sample supports.
struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0;
  std::optional<double> top_q;  // e.g. 99 for the p99
  double top = 0;               // value at top_q
};
LatencySummary summarize(const std::vector<double>& v);

/// Attempted and failed operations, with each failure filed under the
/// check that caught it. A failed check is counted and the run goes on.
/// Thread-safe.
class Tally {
 public:
  void attempt(std::uint64_t n = 1);
  void fail(const std::string& check, std::uint64_t n = 1);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// failed / attempted (0 when nothing was attempted).
  double error_rate() const;
  std::map<std::string, std::uint64_t> by_check() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> by_check_;
};

}  // namespace dfkybench
