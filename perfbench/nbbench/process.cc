#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "common/check.h"
#include "net/socket.h"

extern char** environ;

namespace nbbench {

namespace service = netbatch::service;

DaemonProcess::DaemonProcess(const std::vector<std::string>& argv,
                             const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  spawn_ns_ = NowNs();
  const int rc =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  NETBATCH_CHECK(rc == 0, "cannot spawn " + argv[0]);
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) Stop(SIGKILL);
}

bool DaemonProcess::Stop(int signal) {
  if (pid_ <= 0) return false;
  ::kill(pid_, signal);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status) == 0;
  return WIFSIGNALED(status) && WTERMSIG(status) == signal;
}

int ConnectUntil(const std::string& path, std::uint64_t deadline_ns) {
  for (;;) {
    const int fd = netbatch::net::ConnectUnix(path);
    if (fd >= 0 || NowNs() >= deadline_ns) return fd;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

bool SendAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<service::Frame> RoundTrip(
    int fd, service::Opcode opcode, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  service::EncodeFrame(static_cast<std::uint16_t>(opcode), request_id, payload,
                       bytes);
  if (!SendAll(fd, bytes)) return std::nullopt;
  service::FrameDecoder decoder;
  std::vector<service::Frame> frames;
  std::uint8_t buf[1 << 16];
  for (;;) {
    for (service::Frame& frame : frames) {
      if (frame.header.request_id == request_id) return std::move(frame);
    }
    frames.clear();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    if (!decoder.Feed(buf, static_cast<std::size_t>(n), frames)) {
      return std::nullopt;
    }
  }
}

std::optional<DaemonStats> FetchStats(const std::string& socket_path,
                                      std::uint64_t deadline_ns,
                                      std::uint64_t* replied_ns) {
  const int fd = ConnectUntil(socket_path, deadline_ns);
  if (fd < 0) return std::nullopt;
  const auto frame = RoundTrip(fd, service::Opcode::kStats, 1, {});
  if (replied_ns != nullptr) *replied_ns = NowNs();
  ::close(fd);
  if (!frame.has_value()) return std::nullopt;
  DaemonStats stats;
  std::istringstream text(
      std::string(frame->payload.begin(), frame->payload.end()));
  std::string line;
  while (std::getline(text, line)) {
    const std::size_t brace = line.find('{');
    if (brace != std::string::npos) {
      // placement_latency_ns{count=..,p50=..,...}
      std::istringstream fields(line.substr(brace + 1));
      std::string field;
      while (std::getline(fields, field, ',')) {
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos) continue;
        stats.placement_latency_ns[field.substr(0, eq)] =
            std::stoll(field.substr(eq + 1));
      }
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string name = line.substr(0, eq);
    stats.value[name] = std::stoll(line.substr(eq + 1));
    const std::size_t max_at = line.find("(max=", eq);
    if (max_at != std::string::npos) {
      stats.max[name] = std::stoll(line.substr(max_at + 5));
    }
  }
  return stats;
}

}  // namespace nbbench
