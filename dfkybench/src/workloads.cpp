#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <malloc.h>
#include <sys/resource.h>

#include "client.h"
#include "core/content.h"
#include "core/keyfile.h"
#include "core/receiver.h"
#include "daemon/protocol.h"
#include "fixture.h"
#include "layers.h"
#include "obs/trace.h"
#include "rng/chacha_rng.h"
#include "serial/buffer.h"

namespace dfkybench {

const std::vector<std::string> kWorkloads = {"encrypt-feed", "churn",
                                             "catchup"};

const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_s_ref", "1/s"},
    {"op_p50_ms_ref", "ms"},
};

const std::vector<MetricName> kPerLayer = {
    {"reactor.gap_us", "us"},
    {"reactor.bytes_in_per_op", "B"},
    {"reactor.bytes_out_per_op", "B"},
    {"daemon.parse_us", "us"},
    {"daemon.respond_us", "us"},
    {"shard.route_us", "us"},
    {"shard.encrypt_busy_cores", "cores"},
    {"group_commit.queue_wait_us", "us"},
    {"group_commit.batch_size", "count"},
    {"store.wal_append_us", "us"},
    {"store.fsync_us", "us"},
    {"store.fsyncs_per_mutation", "count"},
    {"store.wal_bytes_per_mutation", "B"},
    {"store.snapshot_bytes", "B"},
    {"store.snapshots_per_1k_mutations", "count"},
    {"feed.frames_per_op", "count"},
    {"feed.shed", "count"},
    {"feed.replay_ms", "ms"},
    {"feed.replay_bytes", "B"},
    {"core.seal_content_us", "us"},
    {"core.open_content_us", "us"},
    {"core.apply_reset_us", "us"},
    {"core.add_user_us", "us"},
    {"core.revoke_us", "us"},
    {"core.new_period_us", "us"},
    {"group.pow_per_op", "count"},
    {"group.pow_us", "us"},
    {"group.multiexp_us", "us"},
    {"crypto.stream_seal_us", "us"},
    {"crypto.schnorr_verify_us", "us"},
    {"crypto.schnorr_verifies_per_catchup", "count"},
    {"serial.hex_us_per_kib", "us"},
    {"serial.bundle_decode_us", "us"},
    {"trace.unexplained_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.lost_traces", "count"},
};

namespace {

namespace fs = std::filesystem;
namespace obs = dfky::obs;
using dfky::daemon::hex_decode;
using dfky::daemon::hex_encode;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kUsers = 5000;
constexpr int kSetups = 25;  // setup_s is the fastest of these
constexpr std::size_t kPayloadBytes = 1024;
constexpr const char* kSocket = "d.sock";
/// A typical host_probe_us() on the 4-core Xeon this benchmark was tuned
/// on. It only sets the scale of the scaled figures.
constexpr double kRefProbeUs = 1400;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t draw(dfky::Rng& rng) {
  std::array<dfky::byte, 8> b{};
  rng.fill(b);
  std::uint64_t v = 0;
  std::memcpy(&v, b.data(), sizeof v);
  return v;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t n) {
  return seed * 0x9E3779B97F4A7C15ull ^ (stream << 40) ^ n;
}

/// The 1 KiB payload of request `seq` of generator stream `stream`.
dfky::Bytes payload_for(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t seq) {
  dfky::ChaChaRng rng(mix(seed, stream, seq));
  dfky::Bytes b(kPayloadBytes);
  rng.fill(b);
  return b;
}

std::uint64_t hash_of(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

std::uint64_t hash_of(const dfky::Bytes& b) {
  return hash_of(std::string_view(reinterpret_cast<const char*>(b.data()),
                                  b.size()));
}

dfky::ContentMessage decode_content(std::string_view ct_hex,
                                    const dfky::Group& group) {
  const auto raw = hex_decode(ct_hex);
  if (!raw) throw dfky::DecodeError("ciphertext is not hex");
  dfky::Reader r(*raw);
  dfky::ContentMessage msg = dfky::ContentMessage::deserialize(r, group);
  r.expect_end();
  return msg;
}

dfky::SignedResetBundle decode_bundle(std::string_view hex,
                                      const dfky::Group& group) {
  const auto raw = hex_decode(hex);
  if (!raw) throw dfky::DecodeError("bundle is not hex");
  dfky::Reader r(*raw);
  dfky::SignedResetBundle b = dfky::SignedResetBundle::deserialize(r, group);
  r.expect_end();
  return b;
}

/// Runs a generator thread's body: an exception there (a connection that
/// could not be made) is a failed check, not the end of the run.
template <typename Fn>
void guarded(Tally& tally, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    tally.fail("lost_connection");
  }
}

/// A response field, or "" when the daemon left it out.
std::string get(const dfky::daemon::Response& r, const std::string& key) {
  const auto it = r.fields.find(key);
  return it == r.fields.end() ? std::string() : it->second;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// "<name> p50=.. p99=.. n=.." — the median and the highest percentile the
/// sample supports.
std::string latency_line(const std::string& name,
                         const std::vector<double>& ms) {
  const LatencySummary s = summarize(ms);
  std::string line = name + " p50=" + fmt(s.p50) + "ms";
  if (s.top_q) {
    char q[16];
    std::snprintf(q, sizeof q, "%g", *s.top_q);
    line += std::string(" p") + q + "=" + fmt(s.top) + "ms";
  }
  return line + " n=" + std::to_string(s.n);
}

/// Alternating measurement phases. Round 0 of every workload is a warm-up;
/// the end-to-end run measures the rest untraced, and the per-layer run
/// alternates untraced and traced rounds so both see the same machine
/// conditions.
enum Phase : int { kWarmup = 0, kUntraced = 1, kTraced = 2 };

Phase phase_of(const RunConfig& cfg, int round) {
  if (round == 0) return kWarmup;
  return cfg.trace && round % 2 == 0 ? kTraced : kUntraced;
}

/// Rounds of a run, warm-up included. Every round is a fixed amount of
/// work that takes about a second at v = 16 on a 4-core host, so a faster
/// program does the same work (and grows the same state) in less time.
int rounds_of(const RunConfig& cfg) {
  return 1 + std::max(2, static_cast<int>(cfg.seconds));
}

/// Runs `rounds` rounds of fixed work on `workers` threads. Before each
/// round, `idle(round)` runs on the calling thread while every worker is
/// parked and no request is in flight; then every worker runs
/// `work(worker, round)`, and once all have, `done(round, seconds)` gets the
/// round's wall time. `idle(rounds)` runs once more at the end. `work` must
/// not throw: it counts its failures in the run's Tally.
void run_rounds(int workers, int rounds,
                const std::function<void(int, int)>& work,
                const std::function<void(int)>& idle,
                const std::function<void(int, double)>& done) {
  std::barrier sync(workers + 1);
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < rounds; ++r) {
        sync.arrive_and_wait();  // released
        work(w, r);
        sync.arrive_and_wait();  // finished
      }
    });
  }
  for (int r = 0; r < rounds; ++r) {
    idle(r);
    const auto t0 = Clock::now();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    done(r, seconds_since(t0));
  }
  idle(rounds);
  for (auto& t : threads) t.join();
}

/// The raw figures of each untraced round, and the host probe taken while
/// the program was idle before each round and after the last.
struct RoundFigures {
  std::vector<int> round;
  std::vector<double> ops_s, p50_ms;
  std::vector<double> probe_us;  // index = round; one more than rounds

  void add(int r, double ops, double p50) {
    round.push_back(r);
    ops_s.push_back(ops);
    p50_ms.push_back(p50);
  }
};

/// The end-to-end figures of a run, scaled to a reference host speed. The
/// processors of a shared host slow down by 15-40% for minutes at a time.
/// Each round is scaled by the mean of the probes on either side of it
/// (`slowdown` = probe / kRefProbeUs): throughput x slowdown and latency /
/// slowdown; the median round is reported. The probes run while the program
/// is idle, so the program's own load never reaches them. The raw medians
/// are reported too.
void put_figures(RunResult& out, const RoundFigures& f) {
  std::vector<double> ops, p50, slowdown;
  for (std::size_t i = 0; i < f.round.size(); ++i) {
    const auto r = static_cast<std::size_t>(f.round[i]);
    const double s = (f.probe_us[r] + f.probe_us[r + 1]) / 2 / kRefProbeUs;
    ops.push_back(f.ops_s[i] * s);
    p50.push_back(f.p50_ms[i] / s);
    slowdown.push_back(s);
  }
  out.metrics["ops_s_ref"] = percentile(ops, 50);
  out.metrics["op_p50_ms_ref"] = percentile(p50, 50);
  out.report.push_back("raw ops_s=" + fmt(percentile(f.ops_s, 50)) +
                       " op_p50_ms=" + fmt(percentile(f.p50_ms, 50)) +
                       " host_probe_us=" + fmt(percentile(f.probe_us, 50)) +
                       " slowdown=" + fmt(percentile(slowdown, 50)) +
                       " rounds=" + std::to_string(f.round.size()));
}

/// The store, set up kSetups times from scratch and served by the last.
struct Served {
  std::optional<Fixture> fx;
  std::unique_ptr<DaemonHost> host;
};

/// Sets the store up (users, periods and key snapshots, up to the daemon
/// being ready) kSetups times and keeps the last one serving. With
/// `pristine`, the last store is also copied there before the daemon
/// opens it (untimed), for workloads that restore it between rounds.
///
/// setup_s is the fastest set-up, scaled to the reference host speed by
/// the median host probe, one taken before each set-up while nothing runs.
/// The fastest one leaves out the short stalls of a shared host; the
/// scaling takes out its slow stretches, which last minutes.
Served set_up(const RunConfig& cfg, RunResult& out, std::size_t periods,
              const std::string& pristine = {}) {
  Served s;
  std::vector<double> times, probes;
  for (int i = 0; i < kSetups; ++i) {
    const bool last = i + 1 == kSetups;
    const std::string dir = last ? "store" : "store." + std::to_string(i);
    probes.push_back(host_probe_us());
    const auto t0 = Clock::now();
    s.fx = build_store(dir, {.seed = cfg.seed, .users = kUsers,
                             .periods = periods});
    double untimed = 0;
    if (last && !pristine.empty()) {
      const auto c0 = Clock::now();
      copy_store(dir, pristine);
      untimed = seconds_since(c0);
    }
    s.host = std::make_unique<DaemonHost>(dir, kSocket);
    times.push_back(seconds_since(t0) - untimed);
    if (!last) {
      s.host->stop();
      s.host.reset();
      fs::remove_all(dir);
    }
  }
  const double fastest = *std::min_element(times.begin(), times.end());
  const double probe = percentile(probes, 50);
  out.metrics["setup_s"] = fastest * kRefProbeUs / probe;
  out.report.push_back("raw setup_s=" + fmt(fastest) +
                       " host_probe_us=" + fmt(probe) + " set-ups=" +
                       std::to_string(kSetups));
  return s;
}

double pct_change(double base, double now) {
  return base == 0 ? 0 : (base - now) / base * 100.0;
}

void put_core(RunResult& out, const CoreTimings& c) {
  auto& m = out.metrics;
  m["core.seal_content_us"] = c.seal_content_us;
  m["core.open_content_us"] = c.open_content_us;
  m["core.apply_reset_us"] = c.apply_reset_us;
  m["core.add_user_us"] = c.add_user_us;
  m["core.revoke_us"] = c.revoke_us;
  m["core.new_period_us"] = c.new_period_us;
  m["group.pow_us"] = c.pow_us;
  m["group.multiexp_us"] = c.multiexp_us;
  m["crypto.stream_seal_us"] = c.stream_seal_us;
  m["crypto.schnorr_verify_us"] = c.schnorr_verify_us;
  m["serial.hex_us_per_kib"] = c.hex_us_per_kib;
  m["serial.bundle_decode_us"] = c.bundle_decode_us;
}

/// Handler-span layers of the primary verb, with the reactor gap and the
/// unexplained share. `rtt_us` / `ping_rtt_us` are client means over the
/// traced rounds; a `ping`'s own gap is the reactor's fixed per-request
/// cost, so what the verb's gap exceeds it by is left unexplained.
void put_spans(RunResult& out, const std::vector<obs::TraceContext>& traces,
               const std::string& verb, double rtt_us, double ping_rtt_us) {
  using K = obs::SpanKind;
  const SpanMeans v = span_means(traces, verb);
  const SpanMeans ping = span_means(traces, "ping");
  auto& m = out.metrics;
  const double gap = rtt_us - v.total_us;
  const double ping_gap = ping_rtt_us - ping.total_us;
  m["reactor.gap_us"] = gap;
  m["daemon.parse_us"] = v.of(K::kAccept) + v.of(K::kParse);
  m["daemon.respond_us"] = v.of(K::kRespond);
  m["shard.route_us"] = v.of(K::kRoute);
  m["group_commit.queue_wait_us"] = v.of(K::kQueueWait);
  m["store.wal_append_us"] = v.of(K::kWalAppend);
  m["store.fsync_us"] = v.of(K::kFsync);
  m["trace.unexplained_pct"] = rtt_us > 0 ? (gap - ping_gap) / rtt_us * 100 : 0;
  out.report.push_back("trace " + verb + ": n=" + std::to_string(v.n) +
                       " rtt_us=" + fmt(rtt_us) + " total_us=" +
                       fmt(v.total_us) + " gap_us=" + fmt(gap) +
                       " ping_gap_us=" + fmt(ping_gap) + " (ping n=" +
                       std::to_string(ping.n) + ")");
  std::string spans = "spans " + verb + " (mean self us):";
  for (int k = 0; k <= static_cast<int>(K::kBarrierCommit); ++k) {
    const double us = v.span_us[static_cast<std::size_t>(k)];
    if (us > 0) {
      spans += " " + std::string(obs::span_name(static_cast<K>(k))) + "=" +
               fmt(us);
    }
  }
  out.report.push_back(spans);
}

// ---- encrypt-feed ----------------------------------------------------------

constexpr int kEncryptClients = 3;
constexpr std::uint64_t kEncryptsPerRound = 192;  // per connection
constexpr std::uint64_t kOpenEvery = 16;  // the subscriber opens 1 push in k
constexpr std::uint64_t kPingEvery = 32;  // traced rounds: 1 ping per k ops

struct EncSample {
  std::uint64_t ct_hash = 0;
  Clock::time_point sent;
  double rtt_us = 0;
  std::uint64_t seq = 0;
};

/// One provider connection of encrypt-feed.
struct Sender {
  std::optional<LineClient> cl;
  std::vector<EncSample> round;  // this round's acked encrypts
  std::vector<double> ping_us;
  std::uint64_t bytes_in = 0, bytes_out = 0;

  void drop() {
    bytes_in += cl->bytes_sent();
    bytes_out += cl->bytes_received();
    cl.reset();
  }
};

void run_encrypt_feed(const RunConfig& cfg, RunResult& out) {
  Served sv = set_up(cfg, out, 0);
  const Fixture& fx = *sv.fx;
  const dfky::Group& group = fx.sp().group;
  Tally& tally = out.tally;

  const double frames0 = counter_sum("dfkyd_feed_frames_total");
  const double shed0 = counter_sum("dfkyd_feed_shed_total");
  obs::trace_reset();
  std::optional<TraceSampler> sampler;
  if (cfg.trace) sampler.emplace();

  // The subscriber: holds every push of a round, opens a fixed 1-in-k
  // sample. `received` counts a push once it is held (and opened).
  struct Push {
    std::uint64_t ct_hash;
    Clock::time_point at;
  };
  std::mutex feed_mu;
  std::vector<Push> pushes;
  std::unordered_map<std::uint64_t, std::uint64_t> opened;  // ct -> pt hash
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> sub_stop{false};
  std::atomic<bool> sub_lost{false};  // no more pushes will come
  LineClient sub(kSocket, 200);
  const auto hello = sub.call("subscribe");
  if (!hello || !hello->starts_with("ok")) {
    throw std::runtime_error("subscribe refused: " + hello.value_or("EOF"));
  }
  std::thread sub_thread([&] {
    std::uint64_t held = 0;
    for (;;) {
      const auto line = sub.read_line();
      if (!line) {
        if (sub.timed_out() && !sub_stop.load()) continue;
        if (!sub.timed_out()) tally.fail("lost_connection");
        sub_lost.store(true);
        return;
      }
      const auto at = Clock::now();
      if (!line->starts_with("bcast encrypt ")) {
        tally.fail("feed_unexpected_frame");
        continue;
      }
      const std::string_view ct = field(*line, "ct");
      const std::uint64_t h = hash_of(ct);
      std::optional<std::uint64_t> pt;
      if (++held % kOpenEvery == 0) {
        try {
          pt = hash_of(dfky::open_content(fx.sp(), fx.probe_key(),
                                          decode_content(ct, group)));
        } catch (const std::exception&) {
          pt = 0;  // cannot match any payload hash below
        }
      }
      {
        const std::lock_guard lk(feed_mu);
        pushes.push_back({h, at});
        if (pt) opened[h] = *pt;
      }
      received.fetch_add(1);
    }
  });

  std::vector<Sender> senders(kEncryptClients);
  std::atomic<std::uint64_t> acked{0};
  const auto send_round = [&](int c, int round) {
    Sender& s = senders[static_cast<std::size_t>(c)];
    s.round.clear();
    const bool traced = phase_of(cfg, round) == kTraced;
    for (std::uint64_t i = 0; i < kEncryptsPerRound; ++i) {
      const std::uint64_t seq = round * kEncryptsPerRound + i;
      tally.attempt();
      try {
        if (!s.cl) s.cl.emplace(kSocket);
      } catch (const std::exception&) {
        tally.fail("lost_connection");
        continue;
      }
      if (traced && i % kPingEvery == kPingEvery - 1) {
        const auto t0 = Clock::now();
        const auto pong = s.cl->call("ping");
        if (pong && pong->starts_with("ok")) {
          s.ping_us.push_back(us_between(t0, Clock::now()));
        }
      }
      const std::string req =
          "encrypt " + hex_encode(payload_for(cfg.seed, c, seq));
      const auto t0 = Clock::now();
      const auto reply = s.cl->call(req);
      const auto t1 = Clock::now();
      if (!reply) {
        tally.fail("lost_connection");
        s.drop();
        continue;
      }
      if (!reply->starts_with("ok")) {
        tally.fail("err_reply");
        continue;
      }
      s.round.push_back(
          {hash_of(field(*reply, "ct")), t0, us_between(t0, t1), seq});
      acked.fetch_add(1);
    }
  };

  // After each round: wait for the subscriber to hold every acked push,
  // then match acks to pushes by ciphertext: no gaps, no duplicates, and
  // every opened sample equals the payload that was sent.
  const int rounds = rounds_of(cfg);
  RoundFigures fig;
  std::array<std::uint64_t, 3> verified{};
  std::array<double, 3> secs{};
  std::array<std::vector<double>, 3> rtt_ms, lag_ms;
  std::uint64_t total_pushes = 0, total_opened = 0;
  const auto finish_round = [&](int round, double seconds) {
    obs::set_tracing(false);
    const auto wait_until = Clock::now() + std::chrono::seconds(10);
    while (received.load() < acked.load() && !sub_lost.load() &&
           Clock::now() < wait_until) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::lock_guard lk(feed_mu);
    std::unordered_map<std::uint64_t, Clock::time_point> seen;
    for (const Push& p : pushes) {
      if (!seen.try_emplace(p.ct_hash, p.at).second) {
        tally.fail("feed_duplicate");
      }
    }
    const Phase ph = phase_of(cfg, round);
    std::vector<double> round_ms;
    std::uint64_t matched = 0;
    for (int c = 0; c < kEncryptClients; ++c) {
      for (const EncSample& s : senders[static_cast<std::size_t>(c)].round) {
        const auto it = seen.find(s.ct_hash);
        if (it == seen.end()) {
          tally.fail("feed_gap");
          continue;
        }
        ++matched;
        if (const auto o = opened.find(s.ct_hash); o != opened.end()) {
          if (o->second != hash_of(payload_for(cfg.seed, c, s.seq))) {
            tally.fail("decrypt_mismatch");
            continue;
          }
        }
        round_ms.push_back(s.rtt_us / 1e3);
        lag_ms[ph].push_back(us_between(s.sent, it->second) / 1e3);
      }
    }
    if (seen.size() > matched) {
      tally.fail("feed_unexpected_frame", seen.size() - matched);
    }
    total_pushes += pushes.size();
    total_opened += opened.size();
    pushes.clear();
    opened.clear();
    verified[ph] += round_ms.size();
    secs[ph] += seconds;
    if (ph == kUntraced) {
      fig.add(round, static_cast<double>(round_ms.size()) / seconds,
              percentile(round_ms, 50));
    }
    rtt_ms[ph].insert(rtt_ms[ph].end(), round_ms.begin(), round_ms.end());
  };
  run_rounds(
      kEncryptClients, rounds,
      [&](int c, int round) { send_round(c, round); },
      [&](int round) {
        fig.probe_us.push_back(host_probe_us());
        if (round < rounds) obs::set_tracing(phase_of(cfg, round) == kTraced);
      },
      finish_round);
  sub_stop.store(true);
  sub_thread.join();
  for (Sender& s : senders) {
    if (s.cl) s.drop();
  }

  const double shed = counter_sum("dfkyd_feed_shed_total") - shed0;
  if (shed > 0) tally.fail("feed_shed", static_cast<std::uint64_t>(shed));

  const double ops_u = static_cast<double>(verified[kUntraced]) /
                       secs[kUntraced];
  out.report.push_back(latency_line("encrypt_ms", rtt_ms[kUntraced]));
  out.report.push_back(latency_line("feed_lag_ms", lag_ms[kUntraced]));
  out.report.push_back("pushes=" + std::to_string(total_pushes) +
                       " opened=" + std::to_string(total_opened) +
                       " acked=" + std::to_string(acked.load()));
  if (!cfg.trace) {
    put_figures(out, fig);
    return;
  }

  const std::vector<obs::TraceContext> traces = sampler->finish();
  const double ops_t = static_cast<double>(verified[kTraced]) / secs[kTraced];
  std::vector<double> pings;
  for (const Sender& s : senders) {
    pings.insert(pings.end(), s.ping_us.begin(), s.ping_us.end());
  }
  std::vector<double> rtt_t_us;
  for (const double ms : rtt_ms[kTraced]) rtt_t_us.push_back(ms * 1e3);
  put_spans(out, traces, "encrypt", mean(rtt_t_us), mean(pings));
  const CoreTimings core = time_core(fx, cfg.seed);
  put_core(out, core);
  auto& m = out.metrics;
  std::uint64_t in = 0, outb = 0;
  for (const Sender& s : senders) {
    in += s.bytes_in;
    outb += s.bytes_out;
  }
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(acked.load(), 1));
  m["reactor.bytes_in_per_op"] = static_cast<double>(in) / ops;
  m["reactor.bytes_out_per_op"] = static_cast<double>(outb) / ops;
  m["shard.encrypt_busy_cores"] = ops_u * core.seal_content_us / 1e6;
  m["feed.frames_per_op"] =
      (counter_sum("dfkyd_feed_frames_total") - frames0) / ops;
  m["feed.shed"] = shed;
  m["group.pow_per_op"] = core.pow_per_seal;
  m["trace.overhead_pct"] = pct_change(ops_u, ops_t);
  m["trace.lost_traces"] = static_cast<double>(sampler->lost());
  out.report.push_back("ops_s untraced=" + fmt(ops_u) + " traced=" +
                       fmt(ops_t));
}

// ---- churn -----------------------------------------------------------------

constexpr int kChurnClients = 4;
constexpr std::size_t kWindow = 4;         // tagged requests in flight per conn
constexpr std::size_t kOpsPerConn = 256;   // per round: bounds state growth
constexpr std::uint64_t kKeyCheckEvery = 64;  // sampled add-user key files

enum class Verb { kAdd, kRevoke, kEncrypt, kPing };

struct ChurnOp {
  Verb verb = Verb::kAdd;
  std::uint64_t target = 0;  // revoke
};

struct ChurnReply {
  Verb verb = Verb::kAdd;
  double rtt_us = 0;
  bool ok = false;
  std::uint64_t period = 0;
  std::string bundles;  // revokes that rolled the period
  std::string key;      // sampled add-user key files
};

/// One connection's ops for a round: ~70% add-user, 15% revoke of a
/// setup user, 15% encrypt. The state is restored before every round, so
/// the same revoke targets may be drawn again.
std::vector<ChurnOp> churn_ops(std::uint64_t seed, int conn, int round,
                               const std::vector<std::uint64_t>& targets) {
  dfky::ChaChaRng rng(mix(seed, 100 + conn, round));
  std::vector<ChurnOp> ops;
  std::size_t next = 0;
  for (std::size_t i = 0; i < kOpsPerConn; ++i) {
    const std::uint64_t u = draw(rng) % 100;
    if (u < 70) {
      ops.push_back({Verb::kAdd, 0});
    } else if (u < 85 && next < targets.size()) {
      ops.push_back({Verb::kRevoke, targets[next++]});
    } else {
      ops.push_back({Verb::kEncrypt, 0});
    }
  }
  return ops;
}

struct ChurnConnResult {
  std::vector<ChurnReply> replies;
  std::vector<double> ping_us;
  std::uint64_t bytes_in = 0, bytes_out = 0, requests = 0;
};

/// Runs one connection's ops closed-loop with up to kWindow tagged
/// requests in flight.
void churn_conn(const RunConfig& cfg, int conn, int round,
                const std::vector<ChurnOp>& ops, bool traced, Tally& tally,
                ChurnConnResult& res) {
  LineClient cl(kSocket);
  struct InFlight {
    Verb verb;
    Clock::time_point sent;
  };
  std::unordered_map<std::uint64_t, InFlight> inflight;
  std::size_t next = 0;
  std::uint64_t tag = 0;
  std::size_t adds = 0;
  const auto send_next = [&] {
    const ChurnOp& op = ops[next];
    std::string body;
    const Verb verb = op.verb;
    if (traced && next % kPingEvery == kPingEvery - 1) {
      // A ping rides along; its reactor gap is the fixed per-request cost.
      inflight[tag] = {Verb::kPing, Clock::now()};
      cl.send("@" + std::to_string(tag++) + " ping");
    }
    switch (verb) {
      case Verb::kAdd: body = "add-user"; break;
      case Verb::kRevoke: body = "revoke " + std::to_string(op.target); break;
      case Verb::kEncrypt:
        body = "encrypt " + hex_encode(payload_for(cfg.seed, 200 + conn,
                                                   round * kOpsPerConn + next));
        break;
      case Verb::kPing: break;
    }
    tally.attempt();
    inflight[tag] = {verb, Clock::now()};
    ++next;
    return cl.send("@" + std::to_string(tag++) + " " + body);
  };
  bool alive = true;
  while (alive && next < ops.size() && inflight.size() < kWindow) {
    alive = send_next();
  }
  while (alive && !inflight.empty()) {
    const auto line = cl.read_line();
    const auto at = Clock::now();
    if (!line) break;
    const auto resp = dfky::daemon::parse_response(*line);
    if (!resp || !resp->id || !inflight.contains(*resp->id)) {
      tally.fail("bad_reply");
      continue;
    }
    const InFlight f = inflight[*resp->id];
    inflight.erase(*resp->id);
    const double rtt = us_between(f.sent, at);
    if (f.verb == Verb::kPing) {
      if (resp->ok) res.ping_us.push_back(rtt);
    } else {
      ChurnReply r{f.verb, rtt, resp->ok, 0, {}, {}};
      if (!resp->ok) tally.fail("err_reply");
      if (resp->ok && f.verb == Verb::kRevoke) {
        r.period = dfky::daemon::parse_u64(get(*resp, "period")).value_or(0);
        r.bundles = get(*resp, "bundles");
      }
      if (resp->ok && f.verb == Verb::kAdd && adds++ % kKeyCheckEvery == 0) {
        r.key = get(*resp, "key");
      }
      res.replies.push_back(std::move(r));
    }
    if (next < ops.size()) alive = send_next();
  }
  const std::size_t lost = (ops.size() - next) + [&] {
    std::size_t n = 0;
    for (const auto& [t, f] : inflight) n += f.verb != Verb::kPing;
    return n;
  }();
  if (lost > 0) {
    tally.fail("lost_connection", lost);
    tally.attempt(ops.size() - next);
  }
  res.bytes_in = cl.bytes_sent();
  res.bytes_out = cl.bytes_received();
  res.requests = next;
}

/// Checks a round's effects through the protocol: the rolled periods are
/// contiguous and match `status`, and each sampled add-user key file
/// parses, follows the period changes and opens a fresh broadcast.
void check_churn_round(const RunConfig& cfg, int round, const Fixture& fx,
                       const std::vector<ChurnConnResult>& conns,
                       Tally& tally) {
  std::map<std::uint64_t, std::string> bundles;  // period -> bundle hex
  std::vector<std::string> keys;
  for (const auto& c : conns) {
    for (const ChurnReply& r : c.replies) {
      if (!r.bundles.empty() && !bundles.emplace(r.period, r.bundles).second) {
        tally.fail("period_gap");
      }
      if (!r.key.empty()) keys.push_back(r.key);
    }
  }
  const std::uint64_t start = fx.manager.period();
  std::uint64_t expect = start;
  for (const auto& [p, b] : bundles) {
    if (p != ++expect) tally.fail("period_gap");
  }
  LineClient ctl(kSocket);
  const auto st = ctl.call("status");
  const std::string_view period =
      st ? field(*st, "period") : std::string_view{};
  if (dfky::daemon::parse_u64(period) != expect) tally.fail("period_gap");

  const dfky::Bytes payload = payload_for(cfg.seed, 300, round);
  const auto enc = ctl.call("encrypt " + hex_encode(payload));
  if (!enc || !enc->starts_with("ok")) {
    tally.fail("key_check", keys.size());
    return;
  }
  for (const std::string& hex : keys) {
    try {
      const auto raw = hex_decode(hex);
      if (!raw) throw dfky::DecodeError("key file is not hex");
      const dfky::KeyFileData kf = dfky::decode_key_file(*raw);
      dfky::Receiver rx(kf.sp, kf.key, kf.manager_vk);
      for (std::uint64_t p = kf.key.period + 1; p <= expect; ++p) {
        const auto b = bundles.find(p);
        if (b == bundles.end() ||
            rx.apply_reset(decode_bundle(b->second, kf.sp.group)) !=
                dfky::ResetOutcome::kApplied) {
          throw dfky::DecodeError("key cannot follow period " +
                                  std::to_string(p));
        }
      }
      const dfky::Bytes pt = dfky::open_content(
          kf.sp, rx.key(), decode_content(field(*enc, "ct"), kf.sp.group));
      if (pt != payload) tally.fail("key_check");
    } catch (const std::exception&) {
      tally.fail("key_check");
    }
  }
}

std::string latest_file(const std::string& dir, const std::string& prefix) {
  std::string best;
  std::uint64_t best_gen = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (!name.starts_with(prefix)) continue;
    const auto gen = dfky::daemon::parse_u64(name.substr(prefix.size()));
    if (gen && (best.empty() || *gen > best_gen)) {
      best = e.path().string();
      best_gen = *gen;
    }
  }
  return best;
}

void run_churn(const RunConfig& cfg, RunResult& out) {
  Served sv = set_up(cfg, out, 0, "pristine");
  const Fixture& fx = *sv.fx;
  Tally& tally = out.tally;

  // Each connection revokes its own seeded shuffle of the setup users.
  std::vector<std::vector<std::uint64_t>> targets(kChurnClients);
  {
    dfky::ChaChaRng rng(mix(cfg.seed, 99, 0));
    std::vector<std::uint64_t> ids = fx.revocable;
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[draw(rng) % i]);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      targets[i % kChurnClients].push_back(ids[i]);
    }
  }

  struct Totals {
    double seconds = 0;
    std::uint64_t mutations = 0;
    std::vector<double> add_ms, revoke_ms, roll_ms, encrypt_ms;
    std::vector<double> ping_us;
    std::uint64_t encrypts = 0, bytes_in = 0, bytes_out = 0, requests = 0;
    double wal_bytes_per_record = 0;
    int wal_samples = 0;
  };
  std::array<Totals, 3> tot;
  RoundFigures fig;  // mutations per second and add-user median per round
  const double muts0 = counter_sum("dfkyd_commit_mutations_total");
  const double batches0 = counter_sum("dfkyd_commit_batches_total");
  const double fsyncs0 = counter_sum("dfky_store_group_commits_total");
  const double snaps0 = counter_sum("dfky_store_snapshots_total");
  obs::trace_reset();
  std::optional<TraceSampler> sampler;
  if (cfg.trace) sampler.emplace();
  double snapshot_bytes = 0;

  const int rounds = rounds_of(cfg);
  std::vector<ChurnConnResult> conns;
  const auto before_round = [&](int round) {
    fig.probe_us.push_back(host_probe_us());
    if (round == rounds) return;
    if (round > 0) {  // restore the set-up state: bounded growth per round
      sv.host->stop();
      sv.host.reset();
      // Hand the stopped daemon's heap back, so the peak is one round's
      // and not the allocator's history of restarts.
      ::malloc_trim(0);
      fs::remove_all("store");
      copy_store("pristine", "store");
      sv.host = std::make_unique<DaemonHost>("store", kSocket);
    }
    conns.assign(kChurnClients, {});
    obs::set_tracing(phase_of(cfg, round) == kTraced);
  };
  const auto finish_round = [&](int round, double round_s) {
    obs::set_tracing(false);
    const Phase ph = phase_of(cfg, round);
    Totals& t = tot[ph];
    t.seconds += round_s;
    const std::uint64_t muts_before = t.mutations;
    const std::size_t adds_before = t.add_ms.size();

    for (const auto& c : conns) {
      for (const ChurnReply& r : c.replies) {
        if (!r.ok) continue;
        const double ms = r.rtt_us / 1e3;
        switch (r.verb) {
          case Verb::kAdd:
            ++t.mutations;
            t.add_ms.push_back(ms);
            break;
          case Verb::kRevoke:
            ++t.mutations;
            (r.bundles.empty() ? t.revoke_ms : t.roll_ms).push_back(ms);
            break;
          case Verb::kEncrypt:
            ++t.encrypts;
            t.encrypt_ms.push_back(ms);
            break;
          case Verb::kPing: break;
        }
      }
      t.ping_us.insert(t.ping_us.end(), c.ping_us.begin(), c.ping_us.end());
      t.bytes_in += c.bytes_in;
      t.bytes_out += c.bytes_out;
      t.requests += c.requests;
    }
    if (ph == kUntraced) {
      fig.add(round, (t.mutations - muts_before) / round_s,
              percentile(std::vector<double>(t.add_ms.begin() + adds_before,
                                             t.add_ms.end()),
                         50));
    }

    // WAL bytes per record and snapshot size, by stat from outside.
    {
      LineClient ctl(kSocket);
      const auto st = ctl.call("status");
      const std::uint64_t records =
          st ? dfky::daemon::parse_u64(field(*st, "wal_records")).value_or(0)
             : 0;
      const std::string wal = latest_file("store", "wal.");
      if (records > 0 && !wal.empty()) {
        t.wal_bytes_per_record +=
            static_cast<double>(fs::file_size(wal)) / records;
        ++t.wal_samples;
      }
      const std::string snap = latest_file("store", "snap.");
      if (!snap.empty()) {
        snapshot_bytes = static_cast<double>(fs::file_size(snap));
      }
    }
    check_churn_round(cfg, round, fx, conns, tally);
  };
  run_rounds(
      kChurnClients, rounds,
      [&](int c, int round) {
        guarded(tally, [&] {
          churn_conn(cfg, c, round, churn_ops(cfg.seed, c, round, targets[c]),
                     phase_of(cfg, round) == kTraced, tally,
                     conns[static_cast<std::size_t>(c)]);
        });
      },
      before_round, finish_round);

  const Totals& u = tot[kUntraced];
  const double ops_u = u.mutations / u.seconds;
  out.report.push_back(latency_line("add_user_ms", u.add_ms));
  out.report.push_back(latency_line("revoke_ms", u.revoke_ms));
  out.report.push_back(latency_line("period_roll_ms", u.roll_ms));
  out.report.push_back(latency_line("encrypt_ms", u.encrypt_ms));
  if (!cfg.trace) {
    put_figures(out, fig);
    return;
  }

  const Totals& tr = tot[kTraced];
  const double ops_t = tr.mutations / tr.seconds;
  const std::vector<obs::TraceContext> traces = sampler->finish();
  std::vector<double> add_us;
  for (const double ms : tr.add_ms) add_us.push_back(ms * 1e3);
  put_spans(out, traces, "add-user", mean(add_us), mean(tr.ping_us));
  for (const char* verb : {"revoke", "encrypt"}) {
    const SpanMeans s = span_means(traces, verb);
    out.report.push_back(std::string("trace ") + verb + ": n=" +
                         std::to_string(s.n) + " total_us=" + fmt(s.total_us));
  }
  const CoreTimings core = time_core(fx, cfg.seed);
  put_core(out, core);
  auto& m = out.metrics;
  const double muts = counter_sum("dfkyd_commit_mutations_total") - muts0;
  const double batches = counter_sum("dfkyd_commit_batches_total") - batches0;
  const double requests = static_cast<double>(u.requests + tr.requests);
  m["reactor.bytes_in_per_op"] = (u.bytes_in + tr.bytes_in) / requests;
  m["reactor.bytes_out_per_op"] = (u.bytes_out + tr.bytes_out) / requests;
  m["shard.encrypt_busy_cores"] =
      u.encrypts / u.seconds * core.seal_content_us / 1e6;
  m["group_commit.batch_size"] = batches > 0 ? muts / batches : 0;
  const double fsyncs = counter_sum("dfky_store_group_commits_total") - fsyncs0;
  m["store.fsyncs_per_mutation"] = muts > 0 ? fsyncs / muts : 0;
  const int walsamples = u.wal_samples + tr.wal_samples;
  m["store.wal_bytes_per_mutation"] =
      walsamples > 0
          ? (u.wal_bytes_per_record + tr.wal_bytes_per_record) / walsamples
          : 0;
  m["store.snapshot_bytes"] = snapshot_bytes;
  const double snaps = counter_sum("dfky_store_snapshots_total") - snaps0;
  m["store.snapshots_per_1k_mutations"] = muts > 0 ? snaps / muts * 1e3 : 0;
  m["group.pow_per_op"] = core.pow_per_add_user;
  m["trace.overhead_pct"] = pct_change(ops_u, ops_t);
  m["trace.lost_traces"] = static_cast<double>(sampler->lost());
  out.report.push_back("ops_s untraced=" + fmt(ops_u) + " traced=" +
                       fmt(ops_t) + " mutations=" + fmt(muts) + " batches=" +
                       fmt(batches));
}

// ---- catchup ---------------------------------------------------------------

constexpr int kCatchupClients = 4;  // receivers catching up at once
constexpr std::uint64_t kMaxGap = 12;
constexpr int kShufflesPerRound = 4;  // per receiver, of the gaps 1..kMaxGap

struct CatchupSample {
  double total_ms = 0;
  double subscribe_rtt_us = 0;  // subscribe -> `ok` line
  double replay_ms = 0;         // subscribe -> last replayed frame
  double request_bytes = 0;
  double replay_bytes = 0;
  double hex_us = 0, decode_us = 0, apply_us = 0;
  std::uint64_t gap = 0;
};

/// A receiver whose key is `gap` periods stale catches up on a fresh
/// connection: `subscribe <from>`, the replayed `bcast new-period` frames,
/// decode and apply_reset each bundle, then it must be current and open
/// `bcast`. nullopt (with the failed check counted) when any step fails.
std::optional<CatchupSample> catch_up(const Fixture& fx, std::uint64_t gap,
                                      const dfky::ContentMessage& bcast,
                                      const dfky::Bytes& payload,
                                      Tally& tally) {
  const dfky::SystemParams& sp = fx.sp();
  const std::uint64_t current = fx.manager.period();
  const std::uint64_t from = current - gap;
  CatchupSample s;
  s.gap = gap;
  LineClient cl(kSocket);
  const auto t0 = Clock::now();
  cl.send("subscribe " + std::to_string(from));
  const auto hello = cl.read_line();
  s.subscribe_rtt_us = us_between(t0, Clock::now());
  if (!hello || !hello->starts_with("ok")) {
    tally.fail(hello ? "err_reply" : "lost_connection");
    return std::nullopt;
  }
  if (dfky::daemon::parse_u64(field(*hello, "replayed")) != gap) {
    tally.fail("feed_gap");
    return std::nullopt;
  }
  std::vector<std::string> frames;
  for (std::uint64_t i = 0; i < gap; ++i) {
    auto line = cl.read_line();
    if (!line) break;
    frames.push_back(std::move(*line));
  }
  s.replay_ms = us_between(t0, Clock::now()) / 1e3;
  s.request_bytes = static_cast<double>(cl.bytes_sent());
  s.replay_bytes = static_cast<double>(cl.bytes_received());
  if (frames.size() != gap) {
    tally.fail("feed_gap");
    return std::nullopt;
  }
  dfky::Receiver rx(sp, fx.probe_keys[from], fx.manager.verification_key());
  for (std::uint64_t i = 0; i < gap; ++i) {
    const std::string& f = frames[i];
    const auto p = dfky::daemon::parse_u64(field(f, "period"));
    if (!f.starts_with("bcast new-period ") || p != from + i + 1) {
      tally.fail("feed_gap");
      return std::nullopt;
    }
    const auto a = Clock::now();
    const auto raw = hex_decode(field(f, "bundles"));
    const auto b = Clock::now();
    if (!raw) {
      tally.fail("feed_gap");
      return std::nullopt;
    }
    dfky::Reader r(*raw);
    const dfky::SignedResetBundle bundle =
        dfky::SignedResetBundle::deserialize(r, sp.group);
    const auto c = Clock::now();
    const dfky::ResetOutcome res = rx.apply_reset(bundle);
    const auto d = Clock::now();
    s.hex_us += us_between(a, b);
    s.decode_us += us_between(b, c);
    s.apply_us += us_between(c, d);
    if (res != dfky::ResetOutcome::kApplied) {
      tally.fail("not_current");
      return std::nullopt;
    }
  }
  if (rx.state() != dfky::ReceiverState::kCurrent || rx.period() != current) {
    tally.fail("not_current");
    return std::nullopt;
  }
  s.total_ms = us_between(t0, Clock::now()) / 1e3;
  if (dfky::open_content(sp, rx.key(), bcast) != payload) {
    tally.fail("decrypt_mismatch");
    return std::nullopt;
  }
  return s;
}

void run_catchup(const RunConfig& cfg, RunResult& out) {
  const std::size_t periods = dfky::SecurityManager::kDefaultArchiveCapacity;
  Served sv = set_up(cfg, out, periods);
  const Fixture& fx = *sv.fx;
  Tally& tally = out.tally;

  // The current broadcast every caught-up receiver must open.
  const dfky::Bytes payload = payload_for(cfg.seed, 400, 0);
  std::optional<dfky::ContentMessage> bcast;
  {
    LineClient ctl(kSocket);
    const auto enc = ctl.call("encrypt " + hex_encode(payload));
    if (!enc || !enc->starts_with("ok")) {
      throw std::runtime_error("set-up encrypt failed: " + enc.value_or("EOF"));
    }
    bcast = decode_content(field(*enc, "ct"), fx.sp().group);
  }

  // Each receiver's gaps in a round: seeded shuffles of 1..kMaxGap, an
  // exactly uniform mix.
  std::vector<std::vector<CatchupSample>> round_samples(kCatchupClients);
  const auto catch_up_round = [&](int c, int round) {
    auto& mine = round_samples[static_cast<std::size_t>(c)];
    mine.clear();
    dfky::ChaChaRng rng(mix(cfg.seed, 500 + c, round));
    for (int k = 0; k < kShufflesPerRound; ++k) {
      std::vector<std::uint64_t> gaps;
      for (std::uint64_t g = 1; g <= kMaxGap; ++g) gaps.push_back(g);
      for (std::size_t i = gaps.size(); i > 1; --i) {
        std::swap(gaps[i - 1], gaps[draw(rng) % i]);
      }
      for (const std::uint64_t gap : gaps) {
        tally.attempt();
        try {
          if (auto s = catch_up(fx, gap, *bcast, payload, tally)) {
            mine.push_back(*s);
          }
        } catch (const std::exception&) {
          tally.fail("catchup_exception");
        }
      }
    }
  };

  const int rounds = rounds_of(cfg);
  RoundFigures fig;
  std::array<std::vector<CatchupSample>, 3> samples;
  std::array<double, 3> secs{};
  run_rounds(
      kCatchupClients, rounds, catch_up_round,
      [&](int round) {
        fig.probe_us.push_back(host_probe_us());
        if (round < rounds) obs::set_tracing(phase_of(cfg, round) == kTraced);
      },
      [&](int round, double seconds) {
        obs::set_tracing(false);
        const Phase ph = phase_of(cfg, round);
        std::vector<double> round_ms;
        for (const auto& mine : round_samples) {
          for (const CatchupSample& s : mine) {
            samples[ph].push_back(s);
            round_ms.push_back(s.total_ms);
          }
        }
        secs[ph] += seconds;
        if (ph == kUntraced) {
          fig.add(round, static_cast<double>(round_ms.size()) / seconds,
                  percentile(round_ms, 50));
        }
      });

  const auto collect = [&](int ph, auto get) {
    std::vector<double> v;
    for (const CatchupSample& s : samples[ph]) v.push_back(get(s));
    return v;
  };
  const std::vector<double> lat =
      collect(kUntraced, [](const CatchupSample& s) { return s.total_ms; });
  const double ops_u = samples[kUntraced].size() / secs[kUntraced];
  out.report.push_back(latency_line("catchup_ms", lat));
  if (!cfg.trace) {
    put_figures(out, fig);
    return;
  }

  const double ops_t = samples[kTraced].size() / secs[kTraced];
  const CoreTimings core = time_core(fx, cfg.seed);
  put_core(out, core);
  auto& m = out.metrics;
  const auto avg = [&](auto get) {
    return mean(collect(kTraced, get));
  };
  const double total_us =
      avg([](const CatchupSample& s) { return s.total_ms; }) * 1e3;
  const double replay_us =
      avg([](const CatchupSample& s) { return s.replay_ms; }) * 1e3;
  const double hex = avg([](const CatchupSample& s) { return s.hex_us; });
  const double decode = avg([](const CatchupSample& s) { return s.decode_us; });
  const double apply = avg([](const CatchupSample& s) { return s.apply_us; });
  const double gap =
      avg([](const CatchupSample& s) { return static_cast<double>(s.gap); });
  // `subscribe` is answered by the reactor thread itself: its whole round
  // trip is reactor time.
  m["reactor.gap_us"] =
      avg([](const CatchupSample& s) { return s.subscribe_rtt_us; });
  m["reactor.bytes_in_per_op"] =
      avg([](const CatchupSample& s) { return s.request_bytes; });
  m["reactor.bytes_out_per_op"] =
      avg([](const CatchupSample& s) { return s.replay_bytes; });
  m["feed.replay_ms"] = replay_us / 1e3;
  m["feed.replay_bytes"] = m["reactor.bytes_out_per_op"];
  m["feed.frames_per_op"] = gap;
  m["crypto.schnorr_verifies_per_catchup"] = gap;
  m["group.pow_per_op"] = core.pow_per_apply_reset * gap;
  const double explained = replay_us + hex + decode + apply;
  m["trace.unexplained_pct"] =
      total_us > 0 ? (total_us - explained) / total_us * 100 : 0;
  m["trace.overhead_pct"] = pct_change(ops_u, ops_t);
  out.report.push_back("catchup layers (mean us): total=" + fmt(total_us) +
                       " replay=" + fmt(replay_us) + " hex=" + fmt(hex) +
                       " decode=" + fmt(decode) + " apply=" + fmt(apply) +
                       " gap=" + fmt(gap));
  out.report.push_back("ops_s untraced=" + fmt(ops_u) + " traced=" +
                       fmt(ops_t));
}

}  // namespace

void run_workload(const RunConfig& cfg, RunResult& out) {
  obs::set_tracing(false);
  if (cfg.trace) {
    for (const MetricName& m : kPerLayer) out.metrics[m.name] = 0;
  }
  if (cfg.workload == "encrypt-feed") {
    run_encrypt_feed(cfg, out);
  } else if (cfg.workload == "churn") {
    run_churn(cfg, out);
  } else if (cfg.workload == "catchup") {
    run_catchup(cfg, out);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  const double rss = peak_rss_mb();
  out.report.push_back("setup_s=" + fmt(out.metrics["setup_s"]) +
                       " peak_rss_mb=" + fmt(rss) + " error_rate=" +
                       fmt(out.tally.error_rate()));
  if (cfg.trace) {
    out.metrics.erase("setup_s");
  } else {
    out.metrics["peak_rss_mb"] = rss;
  }
}

}  // namespace dfkybench
