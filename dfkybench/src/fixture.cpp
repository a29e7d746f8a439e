#include "fixture.h"

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "client.h"
#include "core/receiver.h"
#include "group/params.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"

namespace dfkybench {

namespace {

constexpr std::size_t kSaturationLimit = 16;  // v

dfky::SecurityManager make_manager(dfky::ChaChaRng& rng) {
  dfky::SystemParams sp = dfky::SystemParams::create(
      dfky::Group(dfky::GroupParams::named(dfky::ParamId::kSec512)),
      kSaturationLimit, rng);
  return dfky::SecurityManager(std::move(sp), rng);
}

}  // namespace

Fixture build_store(const std::string& dir, const FixtureConfig& cfg) {
  dfky::ChaChaRng rng(cfg.seed);
  dfky::SecurityManager mgr = make_manager(rng);
  const auto probe = mgr.add_user(rng);
  std::vector<std::uint64_t> revocable;
  revocable.reserve(cfg.users);
  for (std::size_t i = 1; i < cfg.users; ++i) {
    revocable.push_back(mgr.add_user(rng).id);
  }
  std::vector<dfky::UserKey> keys{probe.key};
  dfky::Receiver rx(mgr.params(), probe.key, mgr.verification_key());
  for (std::size_t p = 0; p < cfg.periods; ++p) {
    if (rx.apply_reset(mgr.new_period(rng)) != dfky::ResetOutcome::kApplied) {
      throw std::runtime_error("set-up: probe key could not follow a period");
    }
    keys.push_back(rx.key());
  }
  Fixture fx{mgr, std::move(keys), std::move(revocable)};
  static dfky::RealFileIo io;
  dfky::StateStore::create(io, dir, std::move(mgr), rng);  // released here
  return fx;
}

void copy_store(const std::string& from, const std::string& to) {
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

DaemonHost::DaemonHost(const std::string& store_dir, const std::string& socket)
    : socket_(socket) {
  dfky::daemon::DaemonOptions opts;
  opts.store_dir = store_dir;
  opts.socket_path = socket;
  daemon_ = std::make_unique<dfky::daemon::Daemon>(std::move(opts));
  thread_ = std::thread([this] { rc_ = daemon_->run(); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!can_connect(socket_)) {
    if (std::chrono::steady_clock::now() > give_up) {
      stop();
      throw std::runtime_error("daemon did not come up on " + socket_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

DaemonHost::~DaemonHost() { stop(); }

int DaemonHost::stop() {
  if (stopped_) return rc_;
  stopped_ = true;
  try {
    LineClient c(socket_);
    c.call("shutdown");
  } catch (const std::exception&) {
    // Already down (fail-stop): joining is all that is left.
  }
  thread_.join();
  return rc_;
}

}  // namespace dfkybench
