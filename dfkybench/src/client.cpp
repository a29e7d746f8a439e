#include "client.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace dfkybench {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

LineClient::LineClient(const std::string& path, int timeout_ms)
    : fd_(connect_unix(path)) {
  if (fd_ < 0) {
    throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
  }
  const timeval tv{.tv_sec = timeout_ms / 1000,
                   .tv_usec = (timeout_ms % 1000) * 1000};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::send(std::string_view line) {
  std::string out;
  out.reserve(line.size() + 1);
  out.append(line);
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  sent_ += out.size();
  return true;
}

std::optional<std::string> LineClient::read_line() {
  for (;;) {
    const std::size_t lf = buf_.find('\n', pos_);
    if (lf != std::string::npos) {
      std::string line = buf_.substr(pos_, lf - pos_);
      pos_ = lf + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return line;
    }
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      timed_out_ = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      return std::nullopt;
    }
    received_ += static_cast<std::uint64_t>(n);
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> LineClient::call(std::string_view line) {
  if (!send(line)) return std::nullopt;
  return read_line();
}

bool can_connect(const std::string& path) {
  const int fd = connect_unix(path);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

std::string_view field(std::string_view line, std::string_view key) {
  std::size_t at = 0;
  for (;;) {
    at = line.find(key, at);
    if (at == std::string_view::npos) return {};
    const std::size_t val = at + key.size();
    if ((at == 0 || line[at - 1] == ' ') && val < line.size() &&
        line[val] == '=') {
      const std::size_t end = line.find(' ', val + 1);
      return line.substr(val + 1, end == std::string_view::npos
                                      ? std::string_view::npos
                                      : end - val - 1);
    }
    at = val;
  }
}

}  // namespace dfkybench
