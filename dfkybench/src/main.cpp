// dfky_bench — one run of one workload against an in-process dfkyd.
//
//   dfky_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--git-describe DESC]
//   dfky_bench --list-metrics
//
// Runs in the current directory (its scratch space). Everything the daemon
// prints goes to stderr; stdout carries the report lines and, last, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>
#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "daemon/protocol.h"
#include "workloads.h"

namespace {

using dfkybench::kEndToEnd;
using dfkybench::kPerLayer;
using dfkybench::kWorkloads;

int usage() {
  std::fprintf(stderr,
               "usage: dfky_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-describe DESC]\n"
               "       dfky_bench --list-metrics\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string list_metrics() {
  std::string out = "{\"workloads\": [";
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    out += (i ? ", " : "") + json_string(kWorkloads[i]);
  }
  for (const auto& [key, list] : {std::pair{"end_to_end", &kEndToEnd},
                                  std::pair{"per_layer", &kPerLayer}}) {
    out += std::string("], \"") + key + "\": [";
    for (std::size_t i = 0; i < list->size(); ++i) {
      out += (i ? ", " : "") + std::string("[") +
             json_string((*list)[i].name) + ", " +
             json_string((*list)[i].unit) + "]";
    }
  }
  return out + "]}";
}

/// Name of the filesystem holding the current directory.
std::string filesystem_name() {
  struct statfs st{};
  if (::statfs(".", &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::printf("%s\n", list_metrics().c_str());
      return 0;
    }
    if (!a.starts_with("--") || i + 1 == argc) return usage();
    args[a.substr(2)] = argv[++i];
  }
  dfkybench::RunConfig cfg;
  const auto seed = dfky::daemon::parse_u64(args["seed"]);
  const auto seconds = dfky::daemon::parse_u64(args["seconds"]);
  cfg.workload = args["workload"];
  if (!seed || !seconds || *seconds == 0 ||
      (args["trace"] != "0" && args["trace"] != "1")) {
    return usage();
  }
  cfg.seed = *seed;
  cfg.seconds = static_cast<double>(*seconds);
  cfg.trace = args["trace"] == "1";

  // The daemon prints its lifecycle to stdout; keep stdout for the result.
  std::fflush(stdout);
  const int result_fd = ::dup(STDOUT_FILENO);
  ::dup2(STDERR_FILENO, STDOUT_FILENO);
  std::FILE* result = ::fdopen(result_fd, "w");

  dfkybench::RunResult out;
  try {
    dfkybench::run_workload(cfg, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfky_bench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  const auto& names = cfg.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  bool complete = true;
  for (const auto& m : names) {
    const auto it = out.metrics.find(m.name);
    if (it == out.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "dfky_bench: metric %s missing\n", m.name);
      complete = false;
      continue;
    }
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + json_number(it->second) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  if (out.metrics.size() != names.size()) complete = false;

  const char* git = args.contains("git-describe") ? args["git-describe"].c_str()
                                                  : "unknown";
  std::fprintf(result,
               "run: workload=%s seed=%llu seconds=%llu trace=%d nproc=%u "
               "fs=%s build=%s obs=%s git=%s\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               static_cast<unsigned long long>(*seconds), cfg.trace ? 1 : 0,
               std::thread::hardware_concurrency(), filesystem_name().c_str(),
               DFKYBENCH_BUILD_TYPE, DFKY_OBS_ENABLED ? "ON" : "OFF", git);
  for (const std::string& line : out.report) {
    std::fprintf(result, "%s\n", line.c_str());
  }
  for (const auto& [check, n] : out.tally.by_check()) {
    std::fprintf(result, "failed check %s: %llu\n", check.c_str(),
                 static_cast<unsigned long long>(n));
  }
  std::fprintf(result,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {%s}}\n",
               out.tally.failed() == 0 && complete ? "true" : "false",
               static_cast<unsigned long long>(out.tally.attempted()),
               static_cast<unsigned long long>(out.tally.failed()),
               metrics.c_str());
  std::fclose(result);
  return 0;
}
