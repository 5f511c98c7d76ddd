#include "service/shard_loop.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/log.h"

namespace netbatch::service {

namespace {

// The poll timeout when nothing is pending: long enough to idle cheaply,
// short enough to notice the stop flag promptly.
constexpr int kIdlePollMs = 100;

// Epoll token for the mailbox eventfd; never collides with a session token
// (fd part would be 0xffffffff).
constexpr std::uint64_t kWakeToken = ~0ull;

bool IsTerminal(cluster::JobState state) {
  return state == cluster::JobState::kCompleted ||
         state == cluster::JobState::kRejected ||
         state == cluster::JobState::kKilled;
}

// WAL record types. Every payload leads with the I64 tick the mutation was
// applied at, so replay re-runs the exact decision sequence and recovery
// can fast-forward the clock before touching the core.
enum class WalKind : std::uint16_t {
  kSubmit = 1,     // now, JobSpec (candidate pools already shard-local)
  kJobOp = 2,      // now, u16 opcode, u64 job id — logged only if it mutated
  kMachineOp = 3,  // now, u16 opcode, u32 local pool, u32 machine
  kTimer = 4,      // now, u16 kind, u64 job, u64 stamp, u32 local pool
  kDrain = 5,      // now
  // now, u32 count, count * u64 job id. Reclamation reuses job-table slots
  // (with a generation floor), so WHEN a terminal job left the table is as
  // much a part of the decision sequence as the ops themselves: replay must
  // erase the same ids at the same point or later submits land in different
  // slots/generations than the live run (and an acked re-submit of a
  // reclaimed id would bounce off its still-present predecessor).
  kReclaim = 6,
};

// Ids per kReclaim record; a pathological round reclaiming more than this
// simply logs several records back to back (erase order is preserved).
constexpr std::size_t kReclaimIdsPerRecord = 8192;

// Version tag of the shard wrapper around the core's serialized state
// inside a snapshot payload.
constexpr std::uint32_t kSnapshotWrapperVersion = 1;

constexpr std::uint32_t kShardMetaMagic = 0x4d53424eu;  // "NBSM"

// The tick stamp leading every WAL record payload (0 if malformed — the
// CRC already vouched for it, so that never happens in practice).
Ticks WalRecordNow(const persist::WalRecord& record) {
  if (record.payload.size() < 8) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | record.payload[i];
  return static_cast<Ticks>(v);
}

// Scatter-gather stats folding uses the shared netbatch::MergeCounterSnapshots
// (common/counters.h): counters add, gauge values merge per-policy (sum for
// additive quantities, max for watermarks like daemon.recovery_ms), gauge
// maxes merge by max — a 2-shard daemon must report the cluster-wide
// watermark, not the sum of per-shard watermarks.

// Same layout as CounterRegistry::Render(), so clients parse one format
// whether the daemon runs one shard or many.
std::string RenderCounterSnapshot(const CounterSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  for (const auto& [name, value, max] : snap.gauges) {
    out += name + "=" + std::to_string(value) +
           " (max=" + std::to_string(max) + ")\n";
  }
  return out;
}

std::string RenderLatencyLine(const LatencyHistogram& lat) {
  return "placement_latency_ns{count=" + std::to_string(lat.count()) +
         ",p50=" + std::to_string(lat.Quantile(0.5)) +
         ",p99=" + std::to_string(lat.Quantile(0.99)) +
         ",p999=" + std::to_string(lat.Quantile(0.999)) +
         ",max=" + std::to_string(lat.max()) + "}\n";
}

}  // namespace

std::uint64_t WallNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ShardLoop::ShardLoop(const cluster::ClusterConfig& config,
                     cluster::InitialScheduler& scheduler,
                     cluster::ReschedulingPolicy& policy, ShardOptions options,
                     sched::CoreOptions core_options, JobDirectory& directory,
                     std::atomic<bool>& draining)
    : options_(options),
      core_(config, scheduler, policy, /*host=*/*this,
            std::move(core_options)),
      directory_(&directory),
      draining_(&draining) {
  NETBATCH_CHECK(options_.time_scale > 0, "time_scale must be positive");
  NETBATCH_CHECK(options_.shard_index < options_.shard_count,
                 "shard index out of range");
  core_.AddObserver(this);
  // A serving core reclaims terminal jobs; the simulator never does, which
  // is what keeps sweep artifacts byte-identical.
  core_.jobs().EnableReclamation();
  latency_map_gauge_ = &core_.counters().GetGauge("daemon.latency_map_entries");
  if (!options_.data_dir.empty()) {
    // Registered in the ctor (not lazily in the durability paths) so the
    // registry order is identical before a checkpoint and after a restore.
    wal_bytes_gauge_ = &core_.counters().GetGauge("daemon.wal_bytes");
    wal_records_gauge_ = &core_.counters().GetGauge("daemon.wal_records");
    recovery_ms_gauge_ = &core_.counters().GetGauge("daemon.recovery_ms");
  }
}

// --- time & timers ----------------------------------------------------------

Ticks ShardLoop::NowTicks() const {
  const std::uint64_t elapsed_ns = WallNanos() - clock_origin_ns_;
  // ticks = seconds * time_scale, computed in ns to avoid drift. The offset
  // is zero except after recovery, which resumes the pre-crash tick clock
  // (per shard — cross-shard tick comparability is approximate after a
  // restart, and nothing compares ticks across cores).
  return tick_offset_ +
         static_cast<Ticks>(
             static_cast<std::uint64_t>(options_.time_scale) * elapsed_ns /
             1'000'000'000ull);
}

void ShardLoop::PushTimer(TimerKind kind, const cluster::Job& job, Ticks delay,
                          PoolId pool) {
  Timer timer;
  timer.due = NowTicks() + delay;
  timer.seq = next_timer_seq_++;
  timer.kind = kind;
  timer.job = job.id();
  timer.stamp = job.generation();
  timer.pool = pool;
  timers_.push_back(timer);
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
}

void ShardLoop::ArmCompletion(cluster::Job job, Ticks duration) {
  if (!options_.auto_complete) return;  // the client owns completion
  PushTimer(TimerKind::kCompletion, job, duration);
}

void ShardLoop::ArmWaitTimeout(cluster::Job job, Ticks threshold) {
  PushTimer(TimerKind::kWaitTimeout, job, threshold);
}

void ShardLoop::ScheduleRestartDelivery(cluster::Job job, PoolId target,
                                        Ticks overhead) {
  PushTimer(TimerKind::kDelivery, job, overhead, target);
}

void ShardLoop::OnJobTerminal(const cluster::Job& job) {
  // A job that went terminal before ever starting (killed while queued,
  // rejected at admission) would leak its arrival entry forever — this
  // erase IS the latency-map drain.
  if (submit_arrival_ns_.erase(job.id()) > 0) {
    latency_map_gauge_->Set(
        static_cast<std::int64_t>(submit_arrival_ns_.size()));
  }
  reclaim_queue_.push_back(job.id());
}

void ShardLoop::OnJobStarted(const cluster::Job& job) {
  const auto it = submit_arrival_ns_.find(job.id());
  if (it == submit_arrival_ns_.end()) return;  // restart/backfill, not admission
  placement_latency_.Record(WallNanos() - it->second);
  submit_arrival_ns_.erase(it);
  latency_map_gauge_->Set(static_cast<std::int64_t>(submit_arrival_ns_.size()));
}

void ShardLoop::DrainDueTimers() {
  while (!timers_.empty()) {
    const Ticks now = NowTicks();
    if (timers_.front().due > now) break;
    const Timer timer = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    timers_.pop_back();
    // A reclaimed slot means the job this timer was armed for is gone (and
    // its id may even be reused — the generation floor on reuse would catch
    // that too, but an unknown id must not reach jobs_.at()).
    if (!core_.jobs().Contains(timer.job)) continue;
    switch (timer.kind) {
      case TimerKind::kCompletion:
        core_.Complete(timer.job, timer.stamp, now);
        break;
      case TimerKind::kWaitTimeout:
        core_.OnWaitTimeout(timer.job, timer.stamp, now);
        break;
      case TimerKind::kDelivery:
        core_.DeliverRestart(timer.job, timer.stamp, timer.pool, now);
        break;
    }
    if (wal_ != nullptr) {
      wal_payload_.clear();
      WireWriter w(wal_payload_);
      w.I64(now);
      w.U16(static_cast<std::uint16_t>(timer.kind));
      w.U64(timer.job.value());
      w.U64(timer.stamp);
      w.U32(timer.pool.value());
      AppendWal(static_cast<std::uint16_t>(WalKind::kTimer));
    }
  }
}

int ShardLoop::NextTimerDelayMs() const {
  if (timers_.empty()) return -1;
  const Ticks now = NowTicks();
  const Ticks due = timers_.front().due;
  if (due <= now) return 0;
  // ticks -> ms at time_scale ticks per second, rounded up so we never wake
  // a hair early and busy-spin.
  const std::int64_t ms =
      ((due - now) * 1000 + options_.time_scale - 1) / options_.time_scale;
  return static_cast<int>(std::min<std::int64_t>(ms, kIdlePollMs));
}

// --- lifecycle --------------------------------------------------------------

void ShardLoop::Start() {
  thread_ = std::thread([this] { Run(); });
}

void ShardLoop::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
  ShardMessage nudge;  // fd < 0: wakes the loop, handled as a no-op
  mailbox_.Post(std::move(nudge));
}

void ShardLoop::Join() {
  if (thread_.joinable()) thread_.join();
}

void ShardLoop::Run() {
  if (!options_.data_dir.empty()) RecoverFromDisk();
  serving_.store(true, std::memory_order_release);
  serving_.notify_all();
  poller_.Add(mailbox_.wake_fd(), net::kPollIn, kWakeToken);
  while (!stop_.load(std::memory_order_relaxed)) {
    int timeout_ms = NextTimerDelayMs();
    if (timeout_ms < 0) timeout_ms = kIdlePollMs;
    poller_.Wait(timeout_ms, ready_);
    // Clear-before-drain keeps the wake-up race-free (see net/mailbox.h).
    mailbox_.ClearWake();
    DrainMailbox();
    DrainDueTimers();
    DrainReclaim();
    if (wal_ != nullptr && options_.checkpoint_every_ticks > 0 &&
        NowTicks() >= next_checkpoint_due_) {
      DoLocalCheckpoint();
      next_checkpoint_due_ = NowTicks() + options_.checkpoint_every_ticks;
    }
    for (const net::PollResult& event : ready_) {
      if (event.token == kWakeToken) continue;  // handled above
      const int fd = static_cast<int>(event.token & 0xffffffffu);
      const auto gen = static_cast<std::uint32_t>(event.token >> 32);
      const auto it = sessions_.find(fd);
      // Generation mismatch: this event is for a connection dropped earlier
      // in the batch whose fd number was already recycled. Delivering it to
      // the new session would corrupt an unrelated client's stream.
      if (it == sessions_.end() || it->second.gen != gen) continue;
      SessionState& state = it->second;
      bool alive = true;
      if (event.events & net::kPollOut) {
        alive = state.session.FlushPending() == net::Session::IoStatus::kOk;
      }
      if (alive && (event.events & net::kPollIn)) {
        alive = HandleReadable(state, event.token);
      }
      if (alive && (event.events & net::kPollHup) &&
          !(event.events & net::kPollIn)) {
        alive = false;
      }
      if (!alive) {
        DropSession(fd);
        continue;
      }
      // Sessions with queued output get rearmed by FlushRound below,
      // usually straight back to read-only interest.
      if (!state.session.wants_write()) RearmSession(state);
    }
    // One WAL flush covers the whole round's records (also the time-based
    // fsync trigger's heartbeat), then the queued acks leave.
    FlushRound();
  }
  poller_.Remove(mailbox_.wake_fd());
  sessions_.clear();
  // Connections the acceptor posted after the stop flag flipped would leak
  // their fds inside dead mailbox nodes otherwise.
  inbox_.clear();
  mailbox_.Drain(inbox_);
  for (ShardMessage& msg : inbox_) {
    if (msg.kind == ShardMessage::Kind::kNewSession && msg.fd >= 0) {
      ::close(msg.fd);
    }
  }
  inbox_.clear();
}

void ShardLoop::DrainMailbox() {
  inbox_.clear();
  mailbox_.Drain(inbox_);
  for (ShardMessage& msg : inbox_) HandleMessage(msg);
  inbox_.clear();
}

void ShardLoop::DrainReclaim() {
  reclaimed_ids_.clear();
  for (JobId id : reclaim_queue_) {
    if (!core_.jobs().Contains(id)) continue;  // already reclaimed
    if (!IsTerminal(core_.jobs().at(id).state())) continue;
    directory_->EraseIfOwner(id, options_.shard_index);
    core_.jobs().Erase(id);
    if (wal_ != nullptr) reclaimed_ids_.push_back(id);
  }
  reclaim_queue_.clear();
  // Erasing frees slots for reuse, which moves the generation sequence
  // later Creates observe — log it so replay reclaims at the same point
  // (see WalKind::kReclaim).
  for (std::size_t base = 0; base < reclaimed_ids_.size();
       base += kReclaimIdsPerRecord) {
    const std::size_t end =
        std::min(base + kReclaimIdsPerRecord, reclaimed_ids_.size());
    wal_payload_.clear();
    WireWriter w(wal_payload_);
    w.I64(NowTicks());
    w.U32(static_cast<std::uint32_t>(end - base));
    for (std::size_t i = base; i < end; ++i) {
      w.U64(reclaimed_ids_[i].value());
    }
    AppendWal(static_cast<std::uint16_t>(WalKind::kReclaim));
  }
}

void ShardLoop::HandleMessage(ShardMessage& msg) {
  switch (msg.kind) {
    case ShardMessage::Kind::kNewSession:
      if (msg.fd >= 0) AddSession(msg.fd);
      break;
    case ShardMessage::Kind::kFrame:
      ProcessFrame(msg.sender, msg.token, msg.frame, msg.arrival_ns,
                   /*out=*/nullptr);
      break;
    case ShardMessage::Kind::kResponse:
      WriteToSession(msg.token, msg.bytes.data(), msg.bytes.size());
      break;
    case ShardMessage::Kind::kStatsQuery: {
      core_.RefreshGauges(NowTicks());
      ShardMessage reply;
      reply.kind = ShardMessage::Kind::kStatsReply;
      reply.sender = options_.shard_index;
      reply.gather = msg.gather;
      reply.counters = core_.counters().TakeSnapshot();
      reply.latency = placement_latency_;
      peers_[msg.sender]->Post(std::move(reply));
      break;
    }
    case ShardMessage::Kind::kStatsReply: {
      const auto it = stats_gathers_.find(msg.gather);
      if (it == stats_gathers_.end()) break;
      MergeCounterSnapshots(it->second.counters, msg.counters);
      it->second.latency.Merge(msg.latency);
      if (--it->second.remaining == 0) FinishStatsGather(msg.gather);
      break;
    }
    case ShardMessage::Kind::kSnapshotQuery: {
      ShardMessage reply;
      reply.kind = ShardMessage::Kind::kSnapshotReply;
      reply.sender = options_.shard_index;
      reply.gather = msg.gather;
      reply.snapshot = LocalSnapshot();
      peers_[msg.sender]->Post(std::move(reply));
      break;
    }
    case ShardMessage::Kind::kSnapshotReply: {
      const auto it = snapshot_gathers_.find(msg.gather);
      if (it == snapshot_gathers_.end()) break;
      SnapshotGather& g = it->second;
      g.merged.started += msg.snapshot.started;
      g.merged.completed += msg.snapshot.completed;
      g.merged.rejected += msg.snapshot.rejected;
      g.merged.preemptions += msg.snapshot.preemptions;
      g.merged.reschedules += msg.snapshot.reschedules;
      g.merged.pools.insert(g.merged.pools.end(), msg.snapshot.pools.begin(),
                            msg.snapshot.pools.end());
      if (--g.remaining == 0) FinishSnapshotGather(msg.gather);
      break;
    }
    case ShardMessage::Kind::kCheckpointQuery: {
      if (wal_ != nullptr) DoLocalCheckpoint();
      ShardMessage reply;
      reply.kind = ShardMessage::Kind::kCheckpointReply;
      reply.sender = options_.shard_index;
      reply.gather = msg.gather;
      peers_[msg.sender]->Post(std::move(reply));
      break;
    }
    case ShardMessage::Kind::kCheckpointReply: {
      const auto it = checkpoint_gathers_.find(msg.gather);
      if (it == checkpoint_gathers_.end()) break;
      if (--it->second.remaining == 0) FinishCheckpointGather(msg.gather);
      break;
    }
  }
}

// --- sessions ---------------------------------------------------------------

void ShardLoop::AddSession(int fd) {
  const std::uint32_t gen = next_session_gen_++;
  auto [it, inserted] =
      sessions_.emplace(fd, SessionState(fd, options_.max_payload, gen));
  NETBATCH_CHECK(inserted, "fd already has a session");
  it->second.session.set_max_pending(options_.max_session_pending);
  poller_.Add(fd, net::kPollIn, MakeToken(fd, gen));
}

void ShardLoop::DropSession(int fd) {
  poller_.Remove(fd);
  sessions_.erase(fd);
}

void ShardLoop::RearmSession(SessionState& state) {
  poller_.Modify(state.session.fd(),
                 state.session.wants_write() ? (net::kPollIn | net::kPollOut)
                                             : net::kPollIn,
                 MakeToken(state.session.fd(), state.gen));
}

bool ShardLoop::HandleReadable(SessionState& state, std::uint64_t token) {
  read_buf_.clear();
  const net::Session::IoStatus status = state.session.Read(read_buf_);
  if (status == net::Session::IoStatus::kError) return false;
  frames_.clear();
  if (!state.decoder.Feed(read_buf_.data(), read_buf_.size(), frames_)) {
    NETBATCH_LOG(kWarn) << "dropping session: " << state.decoder.error();
    return false;
  }
  const std::uint64_t arrival_ns = WallNanos();
  write_buf_.clear();
  for (const Frame& frame : frames_) {
    ProcessFrame(options_.shard_index, token, frame, arrival_ns, &write_buf_);
  }
  if (!write_buf_.empty()) {
    // Queue only — the bytes leave in FlushRound(), after this round's WAL
    // records have reached the kernel.
    if (state.session.QueueWrite(write_buf_.data(), write_buf_.size()) !=
        net::Session::IoStatus::kOk) {
      NETBATCH_LOG(kWarn) << "dropping session: pending output over "
                          << options_.max_session_pending
                          << " bytes (slow reader)";
      return false;
    }
    round_dirty_.push_back(token);
  }
  if (status == net::Session::IoStatus::kClosed) {
    // Orderly EOF. A partial frame left in the decoder means the peer
    // truncated mid-send; either way the session is done.
    return false;
  }
  return true;
}

void ShardLoop::WriteToSession(std::uint64_t token, const std::uint8_t* bytes,
                               std::size_t size) {
  const int fd = static_cast<int>(token & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(token >> 32);
  const auto it = sessions_.find(fd);
  if (it == sessions_.end() || it->second.gen != gen) return;  // session gone
  SessionState& state = it->second;
  if (state.session.QueueWrite(bytes, size) !=
      net::Session::IoStatus::kOk) {
    NETBATCH_LOG(kWarn) << "dropping session: pending output over "
                        << options_.max_session_pending
                        << " bytes (slow reader)";
    DropSession(fd);
    return;
  }
  round_dirty_.push_back(token);
}

void ShardLoop::FlushRound() {
  FlushWal();
  if (round_dirty_.empty()) return;
  for (const std::uint64_t token : round_dirty_) {
    const int fd = static_cast<int>(token & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(token >> 32);
    const auto it = sessions_.find(fd);
    if (it == sessions_.end() || it->second.gen != gen) continue;
    if (it->second.session.FlushPending() != net::Session::IoStatus::kOk) {
      DropSession(fd);
      continue;
    }
    RearmSession(it->second);
  }
  round_dirty_.clear();
}

// --- frame dispatch ---------------------------------------------------------

template <typename EncodePayload>
void ShardLoop::Respond(std::uint32_t origin, std::uint64_t token,
                        std::uint16_t opcode, std::uint64_t request_id,
                        std::vector<std::uint8_t>* out,
                        EncodePayload&& encode_payload) {
  const bool local = origin == options_.shard_index;
  std::vector<std::uint8_t> own;
  std::vector<std::uint8_t>& bytes = local && out != nullptr ? *out : own;
  const std::size_t frame_start =
      BeginFrame(opcode | kResponseBit, request_id, bytes);
  encode_payload(bytes);
  EndFrame(frame_start, bytes);
  if (&bytes == out) return;
  if (local) {
    WriteToSession(token, own.data(), own.size());
    return;
  }
  // A forwarded mutation was applied (and logged) HERE, but its ack leaves
  // through the origin shard's socket — flush this shard's WAL before the
  // response crosses the mailbox, or the origin could ack an unflushed
  // record.
  FlushWal();
  ShardMessage msg;
  msg.kind = ShardMessage::Kind::kResponse;
  msg.sender = options_.shard_index;
  msg.token = token;
  msg.bytes = std::move(own);
  peers_[origin]->Post(std::move(msg));
}

void ShardLoop::RespondStatus(std::uint32_t origin, std::uint64_t token,
                              const FrameHeader& header, Status status,
                              std::vector<std::uint8_t>* out) {
  Respond(origin, token, header.opcode, header.request_id, out,
          [status](std::vector<std::uint8_t>& payload) {
            WireWriter(payload).U32(static_cast<std::uint32_t>(status));
          });
}

void ShardLoop::ForwardFrame(std::uint32_t target, std::uint32_t origin,
                             std::uint64_t token, const Frame& frame,
                             std::uint64_t arrival_ns) {
  ShardMessage msg;
  msg.kind = ShardMessage::Kind::kFrame;
  msg.sender = origin;
  msg.token = token;
  msg.frame = frame;
  msg.arrival_ns = arrival_ns;
  peers_[target]->Post(std::move(msg));
}

void ShardLoop::ProcessFrame(std::uint32_t origin, std::uint64_t token,
                             const Frame& frame, std::uint64_t arrival_ns,
                             std::vector<std::uint8_t>* out) {
  switch (static_cast<Opcode>(frame.header.opcode)) {
    case Opcode::kSubmit:
      HandleSubmit(origin, token, frame, arrival_ns, out);
      break;
    case Opcode::kComplete:
    case Opcode::kSuspend:
    case Opcode::kResume:
    case Opcode::kQueryJob:
    case Opcode::kKill:
      HandleJobOp(origin, token, frame, out);
      break;
    case Opcode::kFailMachine:
    case Opcode::kRepairMachine:
      HandleMachineOp(origin, token, frame, out);
      break;
    case Opcode::kDrain:
      draining_->store(true, std::memory_order_release);
      if (wal_ != nullptr) {
        // A drain is the orderly shutdown path: make everything acked so
        // far durable — log the drain, force the batch out, and write a
        // final checkpoint on every shard — before confirming it.
        wal_payload_.clear();
        WireWriter(wal_payload_).I64(NowTicks());
        AppendWal(static_cast<std::uint16_t>(WalKind::kDrain));
        wal_->Sync();
        StartCheckpointFanout(token, frame.header, out);
      } else {
        RespondStatus(origin, token, frame.header, Status::kOk, out);
      }
      break;
    case Opcode::kCheckpoint:
      if (wal_ == nullptr) {
        // No --data-dir: there is nowhere to checkpoint to.
        RespondStatus(origin, token, frame.header, Status::kBadState, out);
      } else {
        StartCheckpointFanout(token, frame.header, out);
      }
      break;
    case Opcode::kSnapshot:
      // Only ever initiated on the session's shard (never forwarded).
      HandleSnapshot(token, frame, out);
      break;
    case Opcode::kStats:
      HandleStats(token, frame, out);
      break;
    default:
      RespondStatus(origin, token, frame.header, Status::kBadRequest, out);
  }
}

void ShardLoop::HandleSubmit(std::uint32_t origin, std::uint64_t token,
                             const Frame& frame, std::uint64_t arrival_ns,
                             std::vector<std::uint8_t>* out) {
  SubmitResponse response;
  workload::JobSpec spec;
  bool valid = DecodeJobSpec(frame.payload, spec);
  if (valid) {
    response.job_id = spec.id.value();
    if (spec.cores <= 0 || spec.memory_mb < 0 || spec.runtime < 0) {
      valid = false;
    }
    for (PoolId pool : spec.candidate_pools) {
      if (pool.value() >= options_.global_pool_count) valid = false;
    }
  }
  if (valid && draining_->load(std::memory_order_acquire)) {
    response.status = Status::kDraining;
    Respond(origin, token, frame.header.opcode, frame.header.request_id, out,
            [&](std::vector<std::uint8_t>& payload) {
              EncodeSubmitResponse(response, payload);
            });
    return;
  }
  if (valid && !spec.candidate_pools.empty()) {
    // Keep the candidates this shard owns (an empty candidate list means
    // "any pool" and is always shard-local). When none are ours, forward to
    // the shard of the first candidate — the common case, where a client's
    // submits target pools on its session's shard, never crosses threads.
    std::vector<PoolId> local;
    for (PoolId pool : spec.candidate_pools) {
      if (ShardOfPool(pool.value()) == options_.shard_index) {
        local.push_back(ToLocalPool(pool.value()));
      }
    }
    if (local.empty()) {
      ForwardFrame(ShardOfPool(spec.candidate_pools.front().value()), origin,
                   token, frame, arrival_ns);
      return;
    }
    spec.candidate_pools = std::move(local);
  }
  if (valid) {
    const JobId id = spec.id;
    // Local duplicates first (covers ids the duplication extension spawned
    // on this shard), then the cluster-wide claim.
    if (core_.jobs().Contains(id) ||
        !directory_->TryInsert(id, options_.shard_index)) {
      valid = false;
    } else {
      const Ticks now = NowTicks();
      if (wal_ != nullptr) {
        // Log the spec as admitted — candidate pools already rewritten to
        // this shard's local ids — so replay skips the routing step.
        wal_payload_.clear();
        WireWriter(wal_payload_).I64(now);
        EncodeJobSpec(spec, wal_payload_);
      }
      core_.AdmitJob(std::move(spec));
      submit_arrival_ns_.emplace(id, arrival_ns);
      latency_map_gauge_->Set(
          static_cast<std::int64_t>(submit_arrival_ns_.size()));
      core_.Submit(id, now);
      // Even a rejected submit mutated state (the scheduler cursor, the
      // reject counters, possibly the duplicate id sequence) — log it
      // before acking so the replayed core lands on the same sequence.
      if (wal_ != nullptr) {
        AppendWal(static_cast<std::uint16_t>(WalKind::kSubmit));
      }
      const cluster::Job& job = core_.jobs().at(id);
      switch (job.state()) {
        case cluster::JobState::kRunning:
          response.status = Status::kOk;
          response.pool = ToGlobalPool(job.pool()).value();
          response.machine = job.machine().value();
          break;
        case cluster::JobState::kWaiting:
        case cluster::JobState::kInTransit:
          response.status = Status::kQueued;
          response.pool = ToGlobalPool(job.pool()).value();
          break;
        default:
          // Rejected: OnJobTerminal already drained the arrival entry and
          // queued the slot for reclamation.
          response.status = Status::kRejected;
          break;
      }
    }
  }
  if (!valid) response.status = Status::kBadRequest;
  Respond(origin, token, frame.header.opcode, frame.header.request_id, out,
          [&](std::vector<std::uint8_t>& payload) {
            EncodeSubmitResponse(response, payload);
          });
}

void ShardLoop::HandleJobOp(std::uint32_t origin, std::uint64_t token,
                            const Frame& frame,
                            std::vector<std::uint8_t>* out) {
  const auto opcode = static_cast<Opcode>(frame.header.opcode);
  WireReader r(frame.payload);
  const JobId id(static_cast<JobId::ValueType>(r.U64()));
  Status status = Status::kOk;
  std::uint32_t state = 0;
  std::uint32_t pool = 0;
  std::uint32_t machine = 0;
  if (!r.exhausted()) {
    status = Status::kBadRequest;
  } else {
    // Route to the owning shard. A directory miss falls through to the
    // local table: it may be an internal duplicate id (shard-local, never
    // registered) — or truly unknown.
    const std::optional<std::uint32_t> owner = directory_->Lookup(id);
    if (owner.has_value() && *owner != options_.shard_index) {
      ForwardFrame(*owner, origin, token, frame, 0);
      return;
    }
    if (!core_.jobs().Contains(id)) {
      status = Status::kUnknownJob;
    } else {
      const Ticks now = NowTicks();
      const cluster::Job job = core_.jobs().at(id);
      bool mutated = false;
      switch (opcode) {
        case Opcode::kComplete:
          if (job.state() != cluster::JobState::kRunning) {
            status = Status::kBadState;
          } else {
            core_.Complete(id, job.generation(), now);
            mutated = true;
          }
          break;
        case Opcode::kSuspend:
          if (!core_.Suspend(id, now)) {
            status = Status::kBadState;
          } else {
            mutated = true;
          }
          break;
        case Opcode::kResume:
          if (job.state() != cluster::JobState::kSuspended) {
            status = Status::kBadState;
          } else if (!core_.Resume(id, now)) {
            // Still suspended: its machine is full or offline right now.
            status = Status::kQueued;
          } else {
            mutated = true;
          }
          break;
        case Opcode::kQueryJob:
          break;
        case Opcode::kKill:
          if (!core_.Kill(id, now)) {
            status = Status::kBadState;
          } else {
            mutated = true;
          }
          break;
        default:
          status = Status::kBadRequest;
          break;
      }
      // Only ops that actually changed the core are logged: replay mirrors
      // the applied sequence, not the request stream.
      if (mutated && wal_ != nullptr) {
        wal_payload_.clear();
        WireWriter w(wal_payload_);
        w.I64(now);
        w.U16(frame.header.opcode);
        w.U64(id.value());
        AppendWal(static_cast<std::uint16_t>(WalKind::kJobOp));
      }
      state = static_cast<std::uint32_t>(job.state());
      pool = ToGlobalPool(job.pool()).value();
      machine = job.machine().value();
    }
  }
  Respond(origin, token, frame.header.opcode, frame.header.request_id, out,
          [&](std::vector<std::uint8_t>& payload) {
            WireWriter w(payload);
            w.U32(static_cast<std::uint32_t>(status));
            if (opcode == Opcode::kQueryJob) {
              w.U32(state);
              w.U32(pool);
              w.U32(machine);
            }
          });
}

void ShardLoop::HandleMachineOp(std::uint32_t origin, std::uint64_t token,
                                const Frame& frame,
                                std::vector<std::uint8_t>* out) {
  std::uint32_t pool = 0;
  std::uint32_t machine = 0;
  if (!DecodeMachineOpPayload(frame.payload, pool, machine) ||
      pool >= options_.global_pool_count) {
    RespondStatus(origin, token, frame.header, Status::kBadRequest, out);
    return;
  }
  const std::uint32_t owner = ShardOfPool(pool);
  if (owner != options_.shard_index) {
    ForwardFrame(owner, origin, token, frame, 0);
    return;
  }
  const PoolId local = ToLocalPool(pool);
  if (machine >= core_.pool(local).machines().size()) {
    RespondStatus(origin, token, frame.header, Status::kBadRequest, out);
    return;
  }
  const Ticks now = NowTicks();
  if (static_cast<Opcode>(frame.header.opcode) == Opcode::kFailMachine) {
    core_.FailMachine(local, MachineId(machine), now);
  } else {
    core_.RepairMachine(local, MachineId(machine), now);
  }
  if (wal_ != nullptr) {
    wal_payload_.clear();
    WireWriter w(wal_payload_);
    w.I64(now);
    w.U16(frame.header.opcode);
    w.U32(local.value());
    w.U32(machine);
    AppendWal(static_cast<std::uint16_t>(WalKind::kMachineOp));
  }
  RespondStatus(origin, token, frame.header, Status::kOk, out);
}

// --- stats & snapshot scatter-gather ----------------------------------------

void ShardLoop::HandleStats(std::uint64_t token, const Frame& frame,
                            std::vector<std::uint8_t>* out) {
  core_.RefreshGauges(NowTicks());
  if (options_.shard_count == 1) {
    std::string text = core_.counters().Render();
    text += RenderLatencyLine(placement_latency_);
    Respond(options_.shard_index, token, frame.header.opcode,
            frame.header.request_id, out,
            [&](std::vector<std::uint8_t>& payload) {
              payload.insert(payload.end(), text.begin(), text.end());
            });
    return;
  }
  const std::uint64_t gid = next_gather_id_++;
  StatsGather& g = stats_gathers_[gid];
  g.token = token;
  g.request_id = frame.header.request_id;
  g.remaining = options_.shard_count - 1;
  g.counters = core_.counters().TakeSnapshot();
  g.latency = placement_latency_;
  for (std::uint32_t s = 0; s < options_.shard_count; ++s) {
    if (s == options_.shard_index) continue;
    ShardMessage query;
    query.kind = ShardMessage::Kind::kStatsQuery;
    query.sender = options_.shard_index;
    query.gather = gid;
    peers_[s]->Post(std::move(query));
  }
}

void ShardLoop::FinishStatsGather(std::uint64_t gather_id) {
  const auto it = stats_gathers_.find(gather_id);
  StatsGather& g = it->second;
  std::string text = RenderCounterSnapshot(g.counters);
  text += RenderLatencyLine(g.latency);
  Respond(options_.shard_index, g.token,
          static_cast<std::uint16_t>(Opcode::kStats), g.request_id,
          /*out=*/nullptr, [&](std::vector<std::uint8_t>& payload) {
            payload.insert(payload.end(), text.begin(), text.end());
          });
  stats_gathers_.erase(it);
}

sched::SchedulerCore::Snapshot ShardLoop::LocalSnapshot() {
  sched::SchedulerCore::Snapshot snap = core_.GetSnapshot();
  for (auto& pool : snap.pools) pool.id = ToGlobalPool(pool.id);
  return snap;
}

namespace {

void EncodeSnapshotPayload(Ticks now,
                           const sched::SchedulerCore::Snapshot& snap,
                           std::vector<std::uint8_t>& payload) {
  WireWriter w(payload);
  w.I64(now);
  w.U64(snap.started);
  w.U64(snap.completed);
  w.U64(snap.rejected);
  w.U64(snap.preemptions);
  w.U64(snap.reschedules);
  w.U32(static_cast<std::uint32_t>(snap.pools.size()));
  for (const auto& pool : snap.pools) {
    w.U32(pool.id.value());
    w.I64(pool.total_cores);
    w.I64(pool.busy_cores);
    w.U64(pool.queued);
    w.U64(pool.suspended);
  }
}

}  // namespace

void ShardLoop::HandleSnapshot(std::uint64_t token, const Frame& frame,
                               std::vector<std::uint8_t>* out) {
  if (options_.shard_count == 1) {
    Respond(options_.shard_index, token, frame.header.opcode,
            frame.header.request_id, out,
            [&](std::vector<std::uint8_t>& payload) {
              EncodeSnapshotPayload(NowTicks(), LocalSnapshot(), payload);
            });
    return;
  }
  const std::uint64_t gid = next_gather_id_++;
  SnapshotGather& g = snapshot_gathers_[gid];
  g.token = token;
  g.request_id = frame.header.request_id;
  g.remaining = options_.shard_count - 1;
  g.merged = LocalSnapshot();
  for (std::uint32_t s = 0; s < options_.shard_count; ++s) {
    if (s == options_.shard_index) continue;
    ShardMessage query;
    query.kind = ShardMessage::Kind::kSnapshotQuery;
    query.sender = options_.shard_index;
    query.gather = gid;
    peers_[s]->Post(std::move(query));
  }
}

void ShardLoop::FinishSnapshotGather(std::uint64_t gather_id) {
  const auto it = snapshot_gathers_.find(gather_id);
  SnapshotGather& g = it->second;
  std::sort(g.merged.pools.begin(), g.merged.pools.end(),
            [](const auto& a, const auto& b) {
              return a.id.value() < b.id.value();
            });
  Respond(options_.shard_index, g.token,
          static_cast<std::uint16_t>(Opcode::kSnapshot), g.request_id,
          /*out=*/nullptr, [&](std::vector<std::uint8_t>& payload) {
            EncodeSnapshotPayload(NowTicks(), g.merged, payload);
          });
  snapshot_gathers_.erase(it);
}

// --- durability -------------------------------------------------------------

void ShardLoop::AppendWal(std::uint16_t type) {
  wal_->Append(type, wal_payload_);
}

void ShardLoop::FlushWal() {
  if (wal_ == nullptr) return;
  const bool had_buffered = wal_->has_buffered();
  // Always let Flush run: with an empty buffer it still evaluates the
  // time-based fsync trigger for records flushed-but-unsynced earlier.
  wal_->Flush();
  if (!had_buffered) return;
  // Gauge updates ride the flush, not the per-record append — one batch's
  // worth of records shows up at once, which is also exactly when they
  // became crash-durable.
  wal_bytes_gauge_->Set(static_cast<std::int64_t>(wal_->bytes_appended()));
  wal_records_gauge_->Set(
      static_cast<std::int64_t>(wal_->records_appended()));
}

void ShardLoop::ValidateShardMeta() {
  const std::string path = options_.data_dir + "/shard.meta";
  std::vector<std::uint8_t> meta;
  {
    WireWriter w(meta);
    w.U32(kShardMetaMagic);
    w.U32(options_.shard_index);
    w.U32(options_.shard_count);
    w.U32(options_.global_pool_count);
    w.U32(ExtendCrc32c(0, meta.data(), meta.size()));
  }
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::vector<std::uint8_t> existing(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (existing == meta) return;
    // Separate an intact-but-different file from a torn write: the trailing
    // CRC vouches for intactness. Intact + different topology would
    // silently misroute every recovered job — refuse loudly. A torn file
    // (crash mid-write) says nothing about the topology; rewriting it below
    // keeps an otherwise healthy data dir bootable.
    const bool intact =
        existing.size() == meta.size() &&
        [&] {
          WireReader r(existing);
          const std::uint32_t magic = r.U32();
          r.U32();  // shard index
          r.U32();  // shard count
          r.U32();  // pool count
          const std::uint32_t crc = r.U32();
          return r.exhausted() && magic == kShardMetaMagic &&
                 crc == ExtendCrc32c(0, existing.data(), existing.size() - 4);
        }();
    NETBATCH_CHECK(!intact,
                   "shard.meta mismatch: " + path +
                       " was written by a daemon with different "
                       "--threads/pool topology");
    NETBATCH_LOG(kWarn) << "shard " << options_.shard_index
                        << ": torn/corrupt shard.meta, rewriting";
  }
  in.close();
  // tmp + fsync + rename, like snapshots: a crash mid-write must never
  // leave a partial file that bricks every subsequent start.
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  NETBATCH_CHECK(fd >= 0, "cannot create " + tmp_path);
  std::size_t off = 0;
  while (off < meta.size()) {
    const ssize_t n = ::write(fd, meta.data() + off, meta.size() - off);
    if (n < 0 && errno == EINTR) continue;
    NETBATCH_CHECK(n > 0, "cannot write " + tmp_path);
    off += static_cast<std::size_t>(n);
  }
  NETBATCH_CHECK(::fsync(fd) == 0, "cannot fsync " + tmp_path);
  ::close(fd);
  NETBATCH_CHECK(::rename(tmp_path.c_str(), path.c_str()) == 0,
                 "cannot rename " + tmp_path);
}

void ShardLoop::ApplyWalRecord(const persist::WalRecord& record) {
  WireReader r(record.payload);
  const Ticks now = r.I64();
  switch (static_cast<WalKind>(record.type)) {
    case WalKind::kSubmit: {
      workload::JobSpec spec;
      if (record.payload.size() < 8 ||
          !DecodeJobSpec(std::vector<std::uint8_t>(record.payload.begin() + 8,
                                                   record.payload.end()),
                         spec)) {
        NETBATCH_LOG(kWarn) << "WAL " << record.lsn << ": bad submit payload";
        return;
      }
      const JobId id = spec.id;
      if (core_.jobs().Contains(id)) {
        // Live, an id is only re-admitted after its terminal predecessor
        // was reclaimed, and that reclaim rides the log as a kReclaim
        // record preceding this one. A terminal occupant still here means
        // the reclaim record was lost (or the log predates kReclaim):
        // erase it rather than silently dropping an acked submit.
        if (!IsTerminal(core_.jobs().at(id).state())) {
          NETBATCH_LOG(kWarn) << "WAL " << record.lsn << ": duplicate submit";
          return;
        }
        directory_->EraseIfOwner(id, options_.shard_index);
        core_.jobs().Erase(id);
      }
      core_.AdmitJob(std::move(spec));
      core_.Submit(id, now);
      break;
    }
    case WalKind::kJobOp: {
      const auto opcode = static_cast<Opcode>(r.U16());
      const JobId id(static_cast<JobId::ValueType>(r.U64()));
      if (!r.exhausted() || !core_.jobs().Contains(id)) return;
      const cluster::Job job = core_.jobs().at(id);
      switch (opcode) {
        case Opcode::kComplete:
          if (job.state() == cluster::JobState::kRunning) {
            core_.Complete(id, job.generation(), now);
          }
          break;
        case Opcode::kSuspend:
          core_.Suspend(id, now);
          break;
        case Opcode::kResume:
          if (job.state() == cluster::JobState::kSuspended) {
            core_.Resume(id, now);
          }
          break;
        case Opcode::kKill:
          core_.Kill(id, now);
          break;
        default:
          break;
      }
      break;
    }
    case WalKind::kMachineOp: {
      const auto opcode = static_cast<Opcode>(r.U16());
      const PoolId local(r.U32());
      const MachineId machine(r.U32());
      if (!r.exhausted()) return;
      if (opcode == Opcode::kFailMachine) {
        core_.FailMachine(local, machine, now);
      } else {
        core_.RepairMachine(local, machine, now);
      }
      break;
    }
    case WalKind::kTimer: {
      const auto kind = static_cast<TimerKind>(r.U16());
      const JobId id(static_cast<JobId::ValueType>(r.U64()));
      const std::uint64_t stamp = r.U64();
      const PoolId pool(r.U32());
      if (!r.exhausted() || !core_.jobs().Contains(id)) return;
      switch (kind) {
        case TimerKind::kCompletion:
          core_.Complete(id, stamp, now);
          break;
        case TimerKind::kWaitTimeout:
          core_.OnWaitTimeout(id, stamp, now);
          break;
        case TimerKind::kDelivery:
          core_.DeliverRestart(id, stamp, pool, now);
          break;
      }
      break;
    }
    case WalKind::kReclaim: {
      // Mirror the live DrainReclaim that produced this record: erase the
      // listed ids in order, so slot reuse (and the generation floors it
      // seeds) advances exactly as it did before the crash.
      const std::uint32_t count = r.U32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const JobId id(static_cast<JobId::ValueType>(r.U64()));
        if (!r.ok()) break;
        if (!core_.jobs().Contains(id)) continue;
        if (!IsTerminal(core_.jobs().at(id).state())) continue;
        directory_->EraseIfOwner(id, options_.shard_index);
        core_.jobs().Erase(id);
      }
      break;
    }
    case WalKind::kDrain:
      draining_->store(true, std::memory_order_release);
      break;
    default:
      NETBATCH_LOG(kWarn) << "WAL " << record.lsn << ": unknown record type "
                          << record.type;
  }
}

void ShardLoop::RecoverFromDisk() {
  const std::uint64_t start_ns = WallNanos();
  ValidateShardMeta();
  persist::RecoveryPlan plan = persist::BuildRecoveryPlan(options_.data_dir);
  if (plan.truncated) {
    NETBATCH_LOG(kWarn) << "shard " << options_.shard_index
                        << ": WAL truncated during recovery: " << plan.reason;
  }

  // Fast-forward the tick clock past every persisted stamp before touching
  // the core: elapsed-time settlements inside it require time to only move
  // forward, and replay feeds it pre-crash stamps.
  struct RearmedTimer {
    std::uint16_t kind;
    JobId job;
    std::uint64_t stamp;
    PoolId pool;
    Ticks rel_due;
  };
  std::vector<RearmedTimer> rearm;
  std::vector<std::uint8_t> core_payload;
  bool restore_draining = false;
  if (plan.snapshot.has_value()) {
    WireReader r(plan.snapshot->payload);
    NETBATCH_CHECK(r.U32() == kSnapshotWrapperVersion,
                   "snapshot wrapper version mismatch");
    NETBATCH_CHECK(r.U32() == options_.shard_index &&
                       r.U32() == options_.shard_count,
                   "snapshot belongs to a different shard topology");
    restore_draining = r.U32() != 0;
    tick_offset_ = std::max(tick_offset_, r.I64());
    const std::uint32_t timer_count = r.U32();
    NETBATCH_CHECK(r.ok(), "snapshot wrapper truncated");
    rearm.reserve(timer_count);
    for (std::uint32_t i = 0; i < timer_count; ++i) {
      RearmedTimer t;
      t.kind = r.U16();
      t.job = JobId(static_cast<JobId::ValueType>(r.U64()));
      t.stamp = r.U64();
      t.pool = PoolId(r.U32());
      t.rel_due = r.I64();
      rearm.push_back(t);
    }
    const std::uint32_t core_len = r.U32();
    NETBATCH_CHECK(r.ok(), "snapshot wrapper truncated");
    r.Bytes(core_len, core_payload);
    NETBATCH_CHECK(r.exhausted(), "snapshot wrapper has trailing bytes");
  }
  for (const persist::WalRecord& record : plan.tail) {
    tick_offset_ = std::max(tick_offset_, WalRecordNow(record));
  }

  if (plan.snapshot.has_value()) {
    // The snapshot passed its CRC, so a failed import is a codec bug, not
    // disk damage — crash rather than serve an empty cluster.
    NETBATCH_CHECK(core_.ImportState(core_payload),
                   "snapshot payload failed to import");
    if (restore_draining) {
      draining_->store(true, std::memory_order_release);
    }
    const Ticks now = NowTicks();
    for (const RearmedTimer& t : rearm) {
      if (!core_.jobs().Contains(t.job)) continue;
      Timer timer;
      timer.due = now + t.rel_due;
      timer.seq = next_timer_seq_++;
      timer.kind = static_cast<TimerKind>(t.kind);
      timer.job = t.job;
      timer.stamp = t.stamp;
      timer.pool = t.pool;
      timers_.push_back(timer);
      std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
    }
  }

  for (const persist::WalRecord& record : plan.tail) ApplyWalRecord(record);

  // Re-register the surviving jobs in the shared directory (each shard
  // recovers its own; the directory stripes its locks, so concurrent
  // recovery is safe). Internal duplicates were never registered; terminal
  // jobs are queued for the normal reclaim path instead.
  std::size_t restored = 0;
  for (const cluster::Job job : core_.jobs()) {
    const JobId id = job.id();
    if (!core_.jobs().Contains(id) || core_.jobs().at(id).slot() != job.slot()) {
      continue;
    }
    ++restored;
    if (IsTerminal(job.state())) {
      reclaim_queue_.push_back(id);
      continue;
    }
    if (job.is_duplicate()) continue;
    // Shards recover concurrently but serve only after all of them are
    // done (Daemon::Run), so no live submit can have claimed the id: a
    // clash means two shards' logs both own it.
    NETBATCH_CHECK(directory_->TryInsert(id, options_.shard_index),
                   "recovered job id already owned by another shard");
  }

  persist::WalOptions wal_options;
  wal_options.next_lsn = plan.next_lsn;
  wal_options.fsync_every = options_.fsync_every;
  wal_options.fsync_interval_ms = options_.fsync_interval_ms;
  std::string error;
  wal_ = persist::WalWriter::Open(options_.data_dir, wal_options, &error);
  NETBATCH_CHECK(wal_ != nullptr, "failed to open WAL: " + error);

  if (options_.checkpoint_every_ticks > 0) {
    next_checkpoint_due_ = NowTicks() + options_.checkpoint_every_ticks;
  }
  wal_bytes_gauge_->Set(0);
  wal_records_gauge_->Set(0);
  recovery_ms_gauge_->Set(
      static_cast<std::int64_t>((WallNanos() - start_ns) / 1'000'000ull));
  if (plan.snapshot.has_value() || !plan.tail.empty()) {
    NETBATCH_LOG(kInfo) << "shard " << options_.shard_index << ": recovered "
                        << restored << " jobs (snapshot lsn "
                        << (plan.snapshot ? plan.snapshot->lsn : 0)
                        << ", replayed " << plan.tail.size()
                        << " records, next lsn " << plan.next_lsn << ")";
  }
}

void ShardLoop::DoLocalCheckpoint() {
  // Nothing in the current WAL batch may outrun the snapshot that claims
  // to cover it.
  wal_->Sync();
  const std::uint64_t lsn = wal_->last_lsn();
  const Ticks now = NowTicks();

  persist::SnapshotData snap;
  snap.lsn = lsn;
  WireWriter w(snap.payload);
  w.U32(kSnapshotWrapperVersion);
  w.U32(options_.shard_index);
  w.U32(options_.shard_count);
  w.U32(draining_->load(std::memory_order_acquire) ? 1 : 0);
  w.I64(now);

  // Pending host timers, minus the lazily-cancelled ones (dead job or
  // stale generation), as relative deadlines sorted canonically.
  std::vector<Timer> live;
  for (const Timer& t : timers_) {
    if (!core_.jobs().Contains(t.job)) continue;
    if (!core_.jobs().at(t.job).GenerationIs(t.stamp)) continue;
    live.push_back(t);
  }
  std::sort(live.begin(), live.end(), [](const Timer& a, const Timer& b) {
    return a.due != b.due ? a.due < b.due : a.seq < b.seq;
  });
  w.U32(static_cast<std::uint32_t>(live.size()));
  for (const Timer& t : live) {
    WireWriter tw(snap.payload);
    tw.U16(static_cast<std::uint16_t>(t.kind));
    tw.U64(t.job.value());
    tw.U64(t.stamp);
    tw.U32(t.pool.value());
    tw.I64(std::max<Ticks>(0, t.due - now));
  }

  std::vector<std::uint8_t> core_payload;
  core_.ExportState(core_payload);
  WireWriter(snap.payload).U32(static_cast<std::uint32_t>(core_payload.size()));
  snap.payload.insert(snap.payload.end(), core_payload.begin(),
                      core_payload.end());

  std::string error;
  NETBATCH_CHECK(persist::WriteSnapshot(options_.data_dir, snap, &error),
                 "checkpoint write failed: " + error);
  wal_->StartSegmentAndTruncate(lsn);
  persist::DeleteSnapshotsBelow(options_.data_dir, lsn);
  wal_bytes_gauge_->Set(static_cast<std::int64_t>(wal_->bytes_appended()));
  wal_records_gauge_->Set(
      static_cast<std::int64_t>(wal_->records_appended()));
}

void ShardLoop::StartCheckpointFanout(std::uint64_t token,
                                      const FrameHeader& header,
                                      std::vector<std::uint8_t>* out) {
  DoLocalCheckpoint();
  if (options_.shard_count == 1) {
    RespondStatus(options_.shard_index, token, header, Status::kOk, out);
    return;
  }
  const std::uint64_t gid = next_gather_id_++;
  CheckpointGather& g = checkpoint_gathers_[gid];
  g.token = token;
  g.request_id = header.request_id;
  g.opcode = header.opcode;
  g.remaining = options_.shard_count - 1;
  for (std::uint32_t s = 0; s < options_.shard_count; ++s) {
    if (s == options_.shard_index) continue;
    ShardMessage query;
    query.kind = ShardMessage::Kind::kCheckpointQuery;
    query.sender = options_.shard_index;
    query.gather = gid;
    peers_[s]->Post(std::move(query));
  }
}

void ShardLoop::FinishCheckpointGather(std::uint64_t gather_id) {
  const auto it = checkpoint_gathers_.find(gather_id);
  const CheckpointGather& g = it->second;
  FrameHeader header;
  header.opcode = g.opcode;
  header.request_id = g.request_id;
  RespondStatus(options_.shard_index, g.token, header, Status::kOk,
                /*out=*/nullptr);
  checkpoint_gathers_.erase(it);
}

}  // namespace netbatch::service
