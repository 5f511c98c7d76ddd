#include "service/daemon.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "net/poller.h"
#include "net/socket.h"

namespace netbatch::service {

namespace {

// Acceptor poll timeout: long enough to idle cheaply, short enough to
// notice the stop/drain flags promptly.
constexpr int kIdlePollMs = 100;

constexpr std::uint64_t kUnixToken = 0;
constexpr std::uint64_t kTcpToken = 1;

}  // namespace

Daemon::Daemon(const cluster::ClusterConfig& config, ShardStackFactory factory,
               DaemonOptions options, sched::CoreOptions core_options)
    : options_(std::move(options)) {
  NETBATCH_CHECK(options_.time_scale > 0, "time_scale must be positive");
  NETBATCH_CHECK(options_.threads > 0, "at least one shard thread");
  NETBATCH_CHECK(!options_.socket_path.empty() || options_.tcp,
                 "daemon needs a unix socket path or a TCP listener");
  NETBATCH_CHECK(!config.pools.empty(), "cluster needs at least one pool");

  if (!options_.socket_path.empty()) {
    unix_listener_ = net::ListenUnix(options_.socket_path);
  }
  if (options_.tcp) {
    tcp_listener_ = net::ListenTcp(options_.tcp_port);
    tcp_port_ = net::BoundTcpPort(tcp_listener_);
  }

  // Interleaved slicing: global pool g lives on shard g % S as local pool
  // g / S, so any pool-count imbalance is at most one pool per shard.
  const auto pool_count = static_cast<std::uint32_t>(config.pools.size());
  const std::uint32_t shard_count = std::min(options_.threads, pool_count);
  std::vector<cluster::ClusterConfig> shard_configs(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shard_configs[s].suspended_holds_memory = config.suspended_holds_memory;
    shard_configs[s].local_resume_first = config.local_resume_first;
  }
  for (std::uint32_t g = 0; g < pool_count; ++g) {
    shard_configs[g % shard_count].pools.push_back(config.pools[g]);
  }

  stacks_.reserve(shard_count);
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    stacks_.push_back(factory(s));
    NETBATCH_CHECK(stacks_[s].scheduler != nullptr && stacks_[s].policy != nullptr,
                   "shard stack factory returned a null stage");
    ShardOptions shard_options;
    shard_options.shard_index = s;
    shard_options.shard_count = shard_count;
    shard_options.global_pool_count = pool_count;
    shard_options.time_scale = options_.time_scale;
    shard_options.auto_complete = options_.auto_complete;
    shard_options.max_payload = options_.max_payload;
    shard_options.max_session_pending = options_.max_session_pending;
    if (!options_.data_dir.empty()) {
      shard_options.data_dir =
          options_.data_dir + "/shard-" + std::to_string(s);
      std::error_code ec;
      std::filesystem::create_directories(shard_options.data_dir, ec);
      NETBATCH_CHECK(!ec, "failed to create " + shard_options.data_dir + ": " +
                              ec.message());
      shard_options.fsync_every = options_.fsync_every;
      shard_options.fsync_interval_ms = options_.fsync_interval_ms;
      shard_options.checkpoint_every_ticks = options_.checkpoint_every_ticks;
    }
    shards_.push_back(std::make_unique<ShardLoop>(
        shard_configs[s], *stacks_[s].scheduler, *stacks_[s].policy,
        shard_options, core_options, directory_, draining_));
  }
  std::vector<ShardLoop*> peers;
  peers.reserve(shard_count);
  for (auto& shard : shards_) peers.push_back(shard.get());
  for (auto& shard : shards_) shard->SetPeers(peers);
}

Daemon::~Daemon() {
  if (unix_listener_ >= 0) {
    ::close(unix_listener_);
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_listener_ >= 0) ::close(tcp_listener_);
}

void Daemon::Run(const std::atomic<bool>& stop) {
  const std::uint64_t origin_ns = WallNanos();
  for (auto& shard : shards_) shard->set_clock_origin(origin_ns);
  for (auto& shard : shards_) shard->Start();
  // No session is served before every shard has recovered: connections
  // wait in the listen backlog meanwhile (see ShardLoop::WaitUntilServing).
  for (auto& shard : shards_) shard->WaitUntilServing();

  net::Poller poller;
  if (unix_listener_ >= 0) poller.Add(unix_listener_, net::kPollIn, kUnixToken);
  if (tcp_listener_ >= 0) poller.Add(tcp_listener_, net::kPollIn, kTcpToken);
  NETBATCH_LOG(kInfo) << "netbatchd serving on "
                      << (unix_listener_ >= 0 ? options_.socket_path
                                              : std::string("(no unix)"))
                      << (tcp_listener_ >= 0
                              ? " + tcp:" + std::to_string(tcp_port_)
                              : "")
                      << " (threads=" << shards_.size()
                      << ", time_scale=" << options_.time_scale << ")";

  std::vector<net::PollResult> ready;
  std::uint32_t next_shard = 0;
  bool listeners_open = true;
  while (!stop.load(std::memory_order_relaxed)) {
    poller.Wait(kIdlePollMs, ready);
    if (listeners_open && draining_.load(std::memory_order_acquire)) {
      // kDrain: stop admitting connections; existing sessions are served
      // until the stop flag flips.
      if (unix_listener_ >= 0) {
        poller.Remove(unix_listener_);
        ::close(unix_listener_);
        ::unlink(options_.socket_path.c_str());
        unix_listener_ = -1;
      }
      if (tcp_listener_ >= 0) {
        poller.Remove(tcp_listener_);
        ::close(tcp_listener_);
        tcp_listener_ = -1;
      }
      listeners_open = false;
      NETBATCH_LOG(kInfo) << "netbatchd draining: listeners closed";
      continue;
    }
    for (const net::PollResult& event : ready) {
      const int listener =
          event.token == kUnixToken ? unix_listener_ : tcp_listener_;
      if (listener < 0) continue;
      for (;;) {
        const int fd = event.token == kUnixToken ? net::AcceptUnix(listener)
                                                 : net::AcceptTcp(listener);
        if (fd < 0) break;  // accept queue drained
        ShardMessage msg;
        msg.kind = ShardMessage::Kind::kNewSession;
        msg.fd = fd;
        shards_[next_shard]->Post(std::move(msg));
        next_shard = (next_shard + 1) % shards_.size();
      }
    }
  }

  for (auto& shard : shards_) shard->RequestStop();
  for (auto& shard : shards_) shard->Join();

  placement_latency_ = LatencyHistogram();
  std::uint64_t placements = 0;
  for (auto& shard : shards_) {
    placement_latency_.Merge(shard->placement_latency());
    placements +=
        shard->core().counters().GetCounter("jobs.started").value();
  }

  if (unix_listener_ >= 0) {
    poller.Remove(unix_listener_);
    ::close(unix_listener_);
    ::unlink(options_.socket_path.c_str());
    unix_listener_ = -1;
  }
  if (tcp_listener_ >= 0) {
    poller.Remove(tcp_listener_);
    ::close(tcp_listener_);
    tcp_listener_ = -1;
  }
  NETBATCH_LOG(kInfo) << "netbatchd stopped; " << placements
                      << " placements served across " << shards_.size()
                      << " shard(s)";
}

}  // namespace netbatch::service
