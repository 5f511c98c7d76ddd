// One event-loop shard of the multi-core netbatchd.
//
// A ShardLoop is a whole single-threaded daemon in miniature: it owns its
// thread, its epoll Poller, the sessions the acceptor handed it, a timer
// min-heap, and one sched::SchedulerCore over the slice of pools assigned
// to this shard (global pool g lives on shard g % S as local pool g / S).
// Nothing in it is locked — every structure is touched only by the owning
// thread — so each core's decision sequence stays exactly as deterministic
// as the single-threaded daemon's.
//
// The only cross-thread seam is the mailbox (net/mailbox.h), drained at the
// top of every loop iteration:
//   - the acceptor posts new connections (kNewSession);
//   - peers forward protocol frames whose target pool or job lives here
//     (kFrame) and post back the encoded responses (kResponse);
//   - kSnapshot / kStats scatter a query to every peer (kSnapshotQuery /
//     kStatsQuery) and gather the per-shard contributions on the session's
//     shard, which merges and responds (LatencyHistogram::Merge is
//     lossless, counters sum by name).
//
// Epoll tokens are generation-stamped ((gen << 32) | fd): a token whose
// generation no longer matches the session registered under that fd is a
// stale event for a connection that died earlier in the same ready batch
// (the fd number may already belong to a new connection) and is dropped.
//
// Terminal jobs are reclaimed: CoreHost::OnJobTerminal queues the id, and
// the loop erases it from the job table (slot reuse with a generation
// floor, cluster/job.h) and the job directory one iteration later —
// after the dispatch that retired it has fully unwound.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/config.h"
#include "cluster/interfaces.h"
#include "common/histogram.h"
#include "net/mailbox.h"
#include "net/poller.h"
#include "net/session.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "service/job_directory.h"
#include "service/protocol.h"
#include "service/scheduler_core.h"

namespace netbatch::service {

// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t WallNanos();

// A cross-shard message. One struct with a kind tag rather than a variant:
// only kFrame/kResponse are frequent, and those use only the cheap fields.
struct ShardMessage {
  enum class Kind : std::uint8_t {
    kNewSession,     // fd (acceptor -> shard; fd < 0 is a stop nudge)
    kFrame,          // sender(origin shard), token, frame, arrival_ns
    kResponse,       // token, bytes (handler -> origin shard)
    kStatsQuery,       // sender(origin), gather
    kStatsReply,       // gather, counters, latency
    kSnapshotQuery,    // sender(origin), gather
    kSnapshotReply,    // gather, snapshot (pool ids already global)
    kCheckpointQuery,  // sender(origin), gather — force a durable snapshot
    kCheckpointReply,  // gather
  };
  Kind kind = Kind::kNewSession;
  std::uint32_t sender = 0;  // shard index the reply/response goes back to
  int fd = -1;
  std::uint64_t token = 0;       // origin shard's session token
  std::uint64_t gather = 0;      // scatter-gather correlation id
  std::uint64_t arrival_ns = 0;  // submit-frame arrival (latency accounting)
  Frame frame;
  std::vector<std::uint8_t> bytes;
  CounterSnapshot counters;
  LatencyHistogram latency;
  sched::SchedulerCore::Snapshot snapshot;
};

struct ShardOptions {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  // Total pools across every shard; candidate validation is global.
  std::uint32_t global_pool_count = 0;
  std::int64_t time_scale = 1000;
  bool auto_complete = true;
  std::uint32_t max_payload = kMaxPayloadBytes;
  // Per-session unsent-output cap (net::Session); 0 = unlimited.
  std::size_t max_session_pending = 4u << 20;
  // Durability (src/persist). Empty = no WAL, no checkpoints, no recovery.
  // This shard's private log directory; must exist before Start().
  std::string data_dir;
  // Group-commit fdatasync triggers, evaluated when the loop flushes the
  // WAL before acking a batch (see persist/wal.h): sync after this many
  // unsynced records (1 = every flush, 0 = no record trigger) ...
  std::uint32_t fsync_every = 0;
  // ... or after this many ms since the last sync (0 = no time trigger).
  std::uint32_t fsync_interval_ms = 250;
  // Ticks between automatic checkpoints; 0 = only on kCheckpoint/kDrain.
  std::int64_t checkpoint_every_ticks = 0;
};

class ShardLoop final : private sched::CoreHost,
                        private cluster::SimulationObserver {
 public:
  // `config` is this shard's slice of the cluster (local pool ids).
  // `scheduler` / `policy` are this shard's private instances; `directory`
  // and `draining` are shared with every shard and must outlive the loop.
  ShardLoop(const cluster::ClusterConfig& config,
            cluster::InitialScheduler& scheduler,
            cluster::ReschedulingPolicy& policy, ShardOptions options,
            sched::CoreOptions core_options, JobDirectory& directory,
            std::atomic<bool>& draining);

  ShardLoop(const ShardLoop&) = delete;
  ShardLoop& operator=(const ShardLoop&) = delete;

  // Wires the peer table for forwarding; indexed by shard, includes this.
  // Must be called on every shard before any Start().
  void SetPeers(std::vector<ShardLoop*> peers) { peers_ = std::move(peers); }
  // The shared clock origin (all shards convert wall time to ticks from the
  // same zero, so ticks are comparable across shards). Set before Start().
  void set_clock_origin(std::uint64_t origin_ns) {
    clock_origin_ns_ = origin_ns;
  }

  void Start();
  void RequestStop();
  void Join();
  // Blocks until the loop has finished RecoverFromDisk (immediately true
  // without a data dir) and is about to poll. The acceptor waits on every
  // shard before it accepts a connection: a shard that answered while a
  // peer was still replaying would miss that peer's jobs in the shared
  // directory — kUnknownJob for acked ids, or a second owner on re-submit.
  void WaitUntilServing() const {
    serving_.wait(false, std::memory_order_acquire);
  }

  // Thread-safe: this is how the acceptor and peer shards reach the loop.
  void Post(ShardMessage message) { mailbox_.Post(std::move(message)); }

  std::uint32_t shard_index() const { return options_.shard_index; }

  // Owning-thread-or-quiesced access (tests and post-Join merging).
  sched::SchedulerCore& core() { return core_; }
  const LatencyHistogram& placement_latency() const {
    return placement_latency_;
  }

 private:
  struct SessionState {
    net::Session session;
    FrameDecoder decoder;
    std::uint32_t gen;
    SessionState(int fd, std::uint32_t max_payload, std::uint32_t gen)
        : session(fd), decoder(max_payload), gen(gen) {}
  };

  enum class TimerKind : std::uint8_t { kCompletion, kWaitTimeout, kDelivery };
  struct Timer {
    Ticks due = 0;
    std::uint64_t seq = 0;  // FIFO tie-break among equal deadlines
    TimerKind kind = TimerKind::kCompletion;
    JobId job;
    std::uint64_t stamp = 0;
    PoolId pool;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  // In-flight scatter-gather state for kStats / kSnapshot, keyed by gather
  // id on the session's shard.
  struct StatsGather {
    std::uint64_t token = 0;
    std::uint64_t request_id = 0;
    std::uint32_t remaining = 0;
    CounterSnapshot counters;
    LatencyHistogram latency;
  };
  struct SnapshotGather {
    std::uint64_t token = 0;
    std::uint64_t request_id = 0;
    std::uint32_t remaining = 0;
    sched::SchedulerCore::Snapshot merged;
  };
  // kCheckpoint / kDrain wait for every shard's snapshot to be durable
  // before acking; `opcode` is echoed so both ops share the machinery.
  struct CheckpointGather {
    std::uint64_t token = 0;
    std::uint64_t request_id = 0;
    std::uint16_t opcode = 0;
    std::uint32_t remaining = 0;
  };

  // --- pool id translation (interleaved sharding) ---------------------------
  PoolId ToGlobalPool(PoolId local) const {
    return PoolId(local.value() * options_.shard_count + options_.shard_index);
  }
  std::uint32_t ShardOfPool(std::uint32_t global) const {
    return global % options_.shard_count;
  }
  PoolId ToLocalPool(std::uint32_t global) const {
    return PoolId(global / options_.shard_count);
  }

  static std::uint64_t MakeToken(int fd, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           static_cast<std::uint32_t>(fd);
  }

  // sched::CoreHost — deferred work becomes stamped wall-clock timers.
  void ArmCompletion(cluster::Job job, Ticks duration) override;
  void CancelCompletion(cluster::Job job) override {
    (void)job;  // lazy: the generation bump already invalidated the timer
  }
  void ArmWaitTimeout(cluster::Job job, Ticks threshold) override;
  void ScheduleRestartDelivery(cluster::Job job, PoolId target,
                               Ticks overhead) override;
  // Drains the job's latency-map entry (kill/reject before start would
  // otherwise leak it) and queues the slot for reclamation.
  void OnJobTerminal(const cluster::Job& job) override;

  // cluster::SimulationObserver — the start transition closes the
  // admission-to-placement latency measurement.
  void OnJobStarted(const cluster::Job& job) override;

  Ticks NowTicks() const;
  void PushTimer(TimerKind kind, const cluster::Job& job, Ticks delay,
                 PoolId pool = PoolId());
  void DrainDueTimers();
  int NextTimerDelayMs() const;

  void Run();
  void DrainMailbox();
  void DrainReclaim();
  void HandleMessage(ShardMessage& msg);
  void AddSession(int fd);
  void DropSession(int fd);
  bool HandleReadable(SessionState& state, std::uint64_t token);
  void RearmSession(SessionState& state);
  // Queues `bytes` on the session identified by `token` (no-op if the
  // session is gone; drops it on overflow) and marks it for FlushRound().
  void WriteToSession(std::uint64_t token, const std::uint8_t* bytes,
                      std::size_t size);
  // End of one loop iteration: one WAL flush for every record the round
  // appended, THEN one socket flush per session with queued responses.
  // That order is the append-before-ack invariant at batch granularity.
  void FlushRound();

  // Frame dispatch. `origin` is the shard owning the session; `out` batches
  // responses when the frame came off a local readable (origin == this
  // shard), and is null for mailbox-delivered frames.
  void ProcessFrame(std::uint32_t origin, std::uint64_t token,
                    const Frame& frame, std::uint64_t arrival_ns,
                    std::vector<std::uint8_t>* out);
  // Encodes one response frame — header, then `encode_payload(buffer)`
  // appending the payload, then the patched payload_len — and delivers it.
  // A response to a local frame off a readable session is built straight
  // into `out`, the round's batch for that session. Anything else gets its
  // own vector: written to the local session, or moved into the origin
  // shard's mailbox.
  template <typename EncodePayload>
  void Respond(std::uint32_t origin, std::uint64_t token, std::uint16_t opcode,
               std::uint64_t request_id, std::vector<std::uint8_t>* out,
               EncodePayload&& encode_payload);
  void RespondStatus(std::uint32_t origin, std::uint64_t token,
                     const FrameHeader& header, Status status,
                     std::vector<std::uint8_t>* out);
  void ForwardFrame(std::uint32_t target, std::uint32_t origin,
                    std::uint64_t token, const Frame& frame,
                    std::uint64_t arrival_ns);

  void HandleSubmit(std::uint32_t origin, std::uint64_t token,
                    const Frame& frame, std::uint64_t arrival_ns,
                    std::vector<std::uint8_t>* out);
  void HandleJobOp(std::uint32_t origin, std::uint64_t token,
                   const Frame& frame, std::vector<std::uint8_t>* out);
  void HandleMachineOp(std::uint32_t origin, std::uint64_t token,
                       const Frame& frame, std::vector<std::uint8_t>* out);
  void HandleStats(std::uint64_t token, const Frame& frame,
                   std::vector<std::uint8_t>* out);
  void HandleSnapshot(std::uint64_t token, const Frame& frame,
                      std::vector<std::uint8_t>* out);

  // This shard's snapshot with pool ids translated to global.
  sched::SchedulerCore::Snapshot LocalSnapshot();
  void FinishStatsGather(std::uint64_t gather_id);
  void FinishSnapshotGather(std::uint64_t gather_id);

  // --- durability (active only when options_.data_dir is set) ---------------
  // Rebuilds this shard's state from the newest valid snapshot plus the WAL
  // tail, re-arms timers, re-registers surviving jobs in the shared
  // directory, and opens the WAL for appending. Runs on the loop thread
  // before the first poll.
  void RecoverFromDisk();
  void ValidateShardMeta();
  void ApplyWalRecord(const persist::WalRecord& record);
  // Buffers wal_payload_ as one record; FlushWal() moves the batch into
  // the kernel. Every path that lets an ack escape this shard (a session
  // write or a response posted to a peer) flushes first, so an acked
  // mutation is always at least in the page cache when the client sees
  // the ack — that is the whole crash-safety argument.
  void AppendWal(std::uint16_t type);
  void FlushWal();
  // Syncs the WAL, writes a snapshot at last_lsn, then truncates the log
  // and deletes superseded snapshots. Callable at any point between core
  // operations — terminal-but-unreclaimed jobs serialize fine.
  void DoLocalCheckpoint();
  // Checkpoints locally, then every peer; responds kOk when all are durable.
  void StartCheckpointFanout(std::uint64_t token, const FrameHeader& header,
                             std::vector<std::uint8_t>* out);
  void FinishCheckpointGather(std::uint64_t gather_id);

  ShardOptions options_;
  sched::SchedulerCore core_;
  JobDirectory* directory_;
  std::atomic<bool>* draining_;
  std::vector<ShardLoop*> peers_;

  net::Mailbox<ShardMessage> mailbox_;
  net::Poller poller_;
  std::unordered_map<int, SessionState> sessions_;
  std::uint32_t next_session_gen_ = 1;
  // Tokens of sessions that queued output this iteration (may repeat; a
  // second FlushPending on a drained session is a no-op).
  std::vector<std::uint64_t> round_dirty_;

  // A binary heap via push_heap/pop_heap rather than priority_queue so
  // checkpointing can iterate the pending timers.
  std::vector<Timer> timers_;
  std::uint64_t next_timer_seq_ = 0;

  std::uint64_t clock_origin_ns_ = 0;
  // Recovery fast-forwards the tick clock past every persisted stamp
  // (elapsed time must never read negative inside the core).
  Ticks tick_offset_ = 0;

  std::unique_ptr<persist::WalWriter> wal_;
  std::vector<std::uint8_t> wal_payload_;
  Ticks next_checkpoint_due_ = 0;
  Gauge* wal_bytes_gauge_ = nullptr;
  Gauge* wal_records_gauge_ = nullptr;
  Gauge* recovery_ms_gauge_ = nullptr;

  std::unordered_map<JobId, std::uint64_t> submit_arrival_ns_;
  Gauge* latency_map_gauge_ = nullptr;
  LatencyHistogram placement_latency_;

  std::vector<JobId> reclaim_queue_;
  // Ids DrainReclaim actually erased this round, reused across rounds; they
  // become the round's kReclaim WAL record(s) so replay reclaims in step.
  std::vector<JobId> reclaimed_ids_;

  std::uint64_t next_gather_id_ = 1;
  std::unordered_map<std::uint64_t, StatsGather> stats_gathers_;
  std::unordered_map<std::uint64_t, SnapshotGather> snapshot_gathers_;
  std::unordered_map<std::uint64_t, CheckpointGather> checkpoint_gathers_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> serving_{false};

  // Reused per-wakeup buffers; steady-state serving allocates nothing
  // beyond mailbox nodes.
  std::vector<net::PollResult> ready_;
  std::vector<ShardMessage> inbox_;
  std::vector<std::uint8_t> read_buf_;
  std::vector<Frame> frames_;
  std::vector<std::uint8_t> write_buf_;
};

}  // namespace netbatch::service
