// Benchmark set-up: a plain single store (what `dfky_cli init --store`
// makes) with a seeded population, and an in-process dfkyd serving it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/manager.h"
#include "daemon/daemon.h"

namespace dfkybench {

struct FixtureConfig {
  std::uint64_t seed = 1;
  std::size_t users = 5000;
  /// New-period rolls after the users are added (0..archive capacity).
  std::size_t periods = 0;
};

/// What the load generator knows about the store it created. The manager
/// is a copy taken when the store was written; the benchmark times core
/// calls on it and never hands it to the daemon.
struct Fixture {
  dfky::SecurityManager manager;
  /// The key of a user no workload revokes, at every period 0..current
  /// (index = period).
  std::vector<dfky::UserKey> probe_keys;
  /// Setup users a workload may revoke (the probe excluded).
  std::vector<std::uint64_t> revocable;

  const dfky::SystemParams& sp() const { return manager.params(); }
  const dfky::UserKey& probe_key() const { return probe_keys.back(); }
};

/// Creates the store directory `dir` (which must not exist) from a
/// manager built deterministically from `cfg.seed`.
Fixture build_store(const std::string& dir, const FixtureConfig& cfg);

/// Copies a store directory (the daemon must not be serving either).
void copy_store(const std::string& from, const std::string& to);

/// A real daemon::Daemon — the class dfkyd's main() wraps — serving
/// `store_dir` on the unix socket `socket` from a thread of this process.
/// The constructor returns once the socket accepts connections; the
/// destructor sends `shutdown` and joins.
class DaemonHost {
 public:
  DaemonHost(const std::string& store_dir, const std::string& socket);
  ~DaemonHost();
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  const std::string& socket() const { return socket_; }
  /// Shuts the daemon down and joins it; returns its exit code.
  /// Idempotent.
  int stop();

 private:
  std::string socket_;
  std::unique_ptr<dfky::daemon::Daemon> daemon_;
  int rc_ = 0;
  bool stopped_ = false;
  std::thread thread_;  // declared last: it uses the members above
};

}  // namespace dfkybench
