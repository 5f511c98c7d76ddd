// A netbatchd child process and the client calls the serve workloads make
// outside the load itself: connecting, one-shot requests, kStats scraping.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace nbbench {

// Owns one spawned daemon. The destructor SIGKILLs and reaps a child that
// is still running, so no exit path leaves a process behind.
class DaemonProcess {
 public:
  // Spawns `argv` (argv[0] is the executable path) with stdout and stderr
  // appended to `log_path`. Aborts when the spawn itself fails.
  DaemonProcess(const std::vector<std::string>& argv,
                const std::string& log_path);
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }
  // NowNs() just before the spawn: the start of setup/recovery timing.
  std::uint64_t spawn_ns() const { return spawn_ns_; }
  // Sends `signal` and waits for the child to exit. Returns true when the
  // child exited with status 0 (SIGTERM drains cleanly) or was killed by
  // exactly `signal`.
  bool Stop(int signal);

 private:
  pid_t pid_ = -1;
  std::uint64_t spawn_ns_ = 0;
};

// Connects to the unix socket at `path`, retrying every 100us until
// `deadline_ns` (NowNs() clock). Returns the fd or -1.
int ConnectUntil(const std::string& path, std::uint64_t deadline_ns);

// Sends all of `bytes` on `fd` (MSG_NOSIGNAL, retrying on EINTR). Returns
// false when the connection failed.
bool SendAll(int fd, const std::vector<std::uint8_t>& bytes);

// Sends one request on `fd` and blocks for the response frame with the same
// request id. Returns nullopt on a send/recv failure or protocol error.
std::optional<netbatch::service::Frame> RoundTrip(
    int fd, netbatch::service::Opcode opcode, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload);

// The daemon's kStats text, parsed: "name=value" and "name=value (max=m)"
// lines, plus the placement_latency_ns{...} line's fields.
struct DaemonStats {
  std::map<std::string, std::int64_t> value;
  std::map<std::string, std::int64_t> max;
  std::map<std::string, std::int64_t> placement_latency_ns;
  std::int64_t Get(const std::string& name) const {
    const auto it = value.find(name);
    return it == value.end() ? 0 : it->second;
  }
  std::int64_t Max(const std::string& name) const {
    const auto it = max.find(name);
    return it == max.end() ? 0 : it->second;
  }
};
// Connects (retrying until `deadline_ns`) and sends one kStats request.
// Shard 0 answers it only once every shard has replied, and a shard starts
// serving only after its own recovery, so the reply also marks the whole
// daemon as recovered. Stores NowNs() at the reply in `*replied_ns` when
// given. Returns nullopt on failure.
std::optional<DaemonStats> FetchStats(const std::string& socket_path,
                                      std::uint64_t deadline_ns = 0,
                                      std::uint64_t* replied_ns = nullptr);

}  // namespace nbbench
