#include "stats.h"

#include <algorithm>
#include <cmath>

namespace dfkybench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  // Samples strictly beyond the q-th percentile: n * (1 - q/100), counted
  // in thousandths to stay exact.
  std::optional<double> best;
  for (const std::size_t permille : {500, 900, 990, 999}) {
    if (n * (1000 - permille) >= 10 * 1000) {
      best = static_cast<double>(permille) / 10.0;
    }
  }
  return best;
}

LatencySummary summarize(const std::vector<double>& v) {
  LatencySummary s;
  s.n = v.size();
  s.p50 = percentile(v, 50);
  s.top_q = highest_supported_percentile(v.size());
  if (s.top_q) s.top = percentile(v, *s.top_q);
  return s;
}

void Tally::attempt(std::uint64_t n) {
  std::lock_guard lk(mu_);
  attempted_ += n;
}

void Tally::fail(const std::string& check, std::uint64_t n) {
  std::lock_guard lk(mu_);
  failed_ += n;
  by_check_[check] += n;
}

std::uint64_t Tally::attempted() const {
  std::lock_guard lk(mu_);
  return attempted_;
}

std::uint64_t Tally::failed() const {
  std::lock_guard lk(mu_);
  return failed_;
}

double Tally::error_rate() const {
  std::lock_guard lk(mu_);
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

std::map<std::string, std::uint64_t> Tally::by_check() const {
  std::lock_guard lk(mu_);
  return by_check_;
}

}  // namespace dfkybench
