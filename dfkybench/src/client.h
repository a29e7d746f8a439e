// Blocking line client for dfkyd's unix socket: the load generator's only
// way into the daemon.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dfkybench {

class LineClient {
 public:
  /// Connects to the unix socket at `path`; throws std::runtime_error when
  /// it cannot. Reads time out after `timeout_ms` (a lost reply).
  explicit LineClient(const std::string& path, int timeout_ms = 20000);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends `line` plus LF. False when the connection is lost.
  bool send(std::string_view line);
  /// The next LF-terminated line without its LF; nullopt on EOF, error or
  /// timeout.
  std::optional<std::string> read_line();
  /// One request, one reply.
  std::optional<std::string> call(std::string_view line);

  /// After read_line() returned nullopt: true when the read timed out,
  /// false when the connection is gone.
  bool timed_out() const { return timed_out_; }

  std::uint64_t bytes_sent() const { return sent_; }
  std::uint64_t bytes_received() const { return received_; }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;  // start of the first unread byte in buf_
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  bool timed_out_ = false;
};

/// True once a connection to `path` succeeds.
bool can_connect(const std::string& path);

/// The value of ` key=` in a response or push line (up to the next space),
/// or an empty view. The view aliases `line`.
std::string_view field(std::string_view line, std::string_view key);

}  // namespace dfkybench
