#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>

#include <gmp.h>

#include "core/content.h"
#include "core/receiver.h"
#include "crypto/stream_seal.h"
#include "daemon/protocol.h"
#include "obs/metrics.h"
#include "rng/chacha_rng.h"
#include "serial/buffer.h"
#include "stats.h"

namespace dfkybench {

namespace obs = dfky::obs;

double counter_sum(std::string_view name) {
  const std::string text = obs::MetricsRegistry::instance().prometheus();
  std::istringstream in(text);
  std::string line;
  double sum = 0;
  while (std::getline(in, line)) {
    if (!line.starts_with(name) || line.size() <= name.size()) continue;
    const char next = line[name.size()];
    if (next != '{' && next != ' ') continue;
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

namespace {

using Clock = std::chrono::steady_clock;

double pows_now() {
  return counter_sum("dfky_group_pow_total") +
         counter_sum("dfky_fixedbase_pow_total");
}

/// Median µs of `reps` calls of `fn`, each timed on its own.
double median_us(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return percentile(std::move(us), 50);
}

/// Exponentiations counted during one call of `fn`.
double pows_during(const std::function<void()>& fn) {
  const double before = pows_now();
  fn();
  return pows_now() - before;
}

/// µs of one run of the host probe's fixed exponentiation chain.
double probe_chain_us() {
  mpz_t base, exp, mod, out;
  mpz_inits(base, exp, mod, out, nullptr);
  // Fixed 512-bit operands, the size of the sec512 group.
  mpz_ui_pow_ui(mod, 3, 323);
  mpz_ui_pow_ui(base, 7, 180);
  mpz_ui_pow_ui(exp, 5, 220);
  const auto t0 = Clock::now();
  for (int i = 0; i < 16; ++i) mpz_powm(out, base, exp, mod);
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  mpz_clears(base, exp, mod, out, nullptr);
  return us;
}

}  // namespace

CoreTimings time_core(const Fixture& fx, std::uint64_t seed) {
  dfky::ChaChaRng rng(seed ^ 0xC0DEull);
  const dfky::SystemParams& sp = fx.sp();
  const dfky::Group& group = sp.group;
  const dfky::SecurityManager& mgr = fx.manager;
  CoreTimings ct;

  dfky::Bytes payload(1024);
  rng.fill(payload);

  std::optional<dfky::ContentMessage> msg;
  ct.seal_content_us = median_us(40, [&] {
    msg = dfky::seal_content(sp, mgr.public_key(), payload, rng);
  });
  ct.pow_per_seal = pows_during(
      [&] { msg = dfky::seal_content(sp, mgr.public_key(), payload, rng); });
  ct.open_content_us = median_us(
      40, [&] { (void)dfky::open_content(sp, fx.probe_key(), *msg); });

  {
    dfky::SecurityManager m = mgr;
    ct.add_user_us = median_us(40, [&] { (void)m.add_user(rng); });
    ct.pow_per_add_user = pows_during([&] { (void)m.add_user(rng); });
  }
  {
    // Revokes below the saturation limit: none of them rolls the period.
    dfky::SecurityManager m = mgr;
    std::size_t next = 0;
    const int reps = static_cast<int>(
        std::min<std::size_t>(m.saturation_limit() - m.saturation_level() - 1,
                              fx.revocable.size()));
    ct.revoke_us = median_us(
        reps, [&] { (void)m.remove_user(fx.revocable[next++], rng); });
  }
  std::optional<dfky::SignedResetBundle> rolled;
  {
    // Every roll starts from the workload's state; the copy is untimed.
    std::vector<double> us;
    for (int i = 0; i < 20; ++i) {
      dfky::SecurityManager m = mgr;
      const auto t0 = Clock::now();
      rolled = m.new_period(rng);
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                       .count());
    }
    ct.new_period_us = percentile(std::move(us), 50);
  }
  const dfky::SignedResetBundle& bundle = *rolled;
  {
    const auto apply = [&] {
      dfky::Receiver rx(sp, fx.probe_key(), mgr.verification_key());
      if (rx.apply_reset(bundle) != dfky::ResetOutcome::kApplied) {
        throw std::runtime_error("core timing: probe key did not follow");
      }
    };
    ct.apply_reset_us = median_us(20, apply);
    ct.pow_per_apply_reset = pows_during(apply);
  }

  const dfky::Gelt base = group.pow_g(group.random_exponent(rng));
  const dfky::Bigint e = group.random_exponent(rng);
  ct.pow_us = median_us(100, [&] { (void)group.pow(base, e); });
  {
    std::vector<dfky::Gelt> bases;
    std::vector<dfky::Bigint> exps;
    for (std::size_t i = 0; i < sp.v + 2; ++i) {
      bases.push_back(group.pow_g(group.random_exponent(rng)));
      exps.push_back(group.random_exponent(rng));
    }
    ct.multiexp_us =
        median_us(40, [&] { (void)dfky::multiexp(group, bases, exps); });
  }
  {
    dfky::Bytes key(dfky::kSealKeySize);
    rng.fill(key);
    ct.stream_seal_us =
        median_us(200, [&] { (void)dfky::seal(key, payload); });
  }
  ct.schnorr_verify_us = median_us(
      40, [&] { (void)bundle.verify(group, mgr.verification_key()); });
  ct.hex_us_per_kib = median_us(200, [&] {
    (void)dfky::daemon::hex_decode(dfky::daemon::hex_encode(payload));
  });
  {
    dfky::Writer w;
    bundle.serialize(w, group);
    const dfky::Bytes raw = std::move(w).take();
    ct.bundle_decode_us = median_us(100, [&] {
      dfky::Reader r(raw);
      (void)dfky::SignedResetBundle::deserialize(r, group);
    });
  }
  return ct;
}

TraceSampler::TraceSampler() {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      poll();
      // 512 ring slots against at most a few thousand requests a second.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

TraceSampler::~TraceSampler() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
  }
}

void TraceSampler::poll() {
  std::vector<obs::TraceContext> got = obs::recent_traces();
  std::lock_guard lk(mu_);
  for (obs::TraceContext& t : got) seen_.try_emplace(t.id, std::move(t));
}

std::vector<obs::TraceContext> TraceSampler::finish() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
  }
  poll();
  std::lock_guard lk(mu_);
  std::vector<obs::TraceContext> out;
  out.reserve(seen_.size());
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (auto& [id, t] : seen_) {
    lo = std::min(lo, id);
    hi = std::max(hi, id);
    out.push_back(std::move(t));
  }
  seen_.clear();
  if (!out.empty()) lost_ = (hi - lo + 1) - out.size();
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  return out;
}

double host_probe_us() {
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::vector<double>> us(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&us, t] {
      for (int i = 0; i < 9; ++i) us[t].push_back(probe_chain_us());
    });
  }
  std::vector<double> all;
  for (unsigned t = 0; t < threads; ++t) {
    pool[t].join();
    all.insert(all.end(), us[t].begin(), us[t].end());
  }
  return percentile(std::move(all), 50);
}

SpanMeans span_means(const std::vector<obs::TraceContext>& traces,
                     std::string_view verb) {
  SpanMeans m;
  for (const obs::TraceContext& t : traces) {
    if (t.verb != verb) continue;
    ++m.n;
    m.total_us += static_cast<double>(t.total_ns) / 1e3;
    for (const obs::TraceSpan& s : t.spans) {
      m.span_us[static_cast<std::size_t>(s.kind)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  if (m.n > 0) {
    const double n = static_cast<double>(m.n);
    m.total_us /= n;
    for (double& s : m.span_us) s /= n;
  }
  return m;
}

}  // namespace dfkybench
