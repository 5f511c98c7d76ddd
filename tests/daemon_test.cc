// Tests for the serving layer: the MPSC mailbox (net/mailbox.h), guarded
// job-slot reclamation (cluster/job.h), the lock-free job directory
// (service/job_directory.h), and the sharded daemon (service/daemon.h) end
// to end over real sockets.
//
// The daemon tests run netbatchd in-process: a Daemon on its own thread,
// clients speaking the real wire protocol over unix-domain or TCP sockets.
// They cover the long-running-daemon bug batch — a job killed before it
// ever starts must drain its latency-map entry and free its id for reuse;
// a reader that stops draining its socket must be evicted, not buffered
// forever; fd churn must never deliver a stale epoll event to a recycled
// fd's new session — plus the sharded serving paths: cross-shard submit
// forwarding, merged stats/snapshot gathers, TCP transport, admin outage
// drills, and kDrain.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/job.h"
#include "core/policies.h"
#include "net/mailbox.h"
#include "net/socket.h"
#include "sched/round_robin.h"
#include "service/daemon.h"
#include "service/job_directory.h"
#include "service/protocol.h"

namespace netbatch {
namespace {

// --- mailbox ----------------------------------------------------------------

struct TestMsg {
  int producer = 0;
  int seq = 0;
};

TEST(MailboxTest, SingleProducerDrainsInFifoOrder) {
  net::Mailbox<TestMsg> mailbox;
  for (int i = 0; i < 1000; ++i) mailbox.Post({0, i});

  std::vector<TestMsg> out;
  mailbox.ClearWake();
  mailbox.Drain(out);
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[i].seq, i);

  // Empty drain is a no-op, not an error.
  out.clear();
  mailbox.Drain(out);
  EXPECT_TRUE(out.empty());
}

TEST(MailboxTest, PostSignalsTheWakeFd) {
  net::Mailbox<TestMsg> mailbox;
  std::uint64_t value = 0;
  // Nothing posted: the eventfd must not be readable.
  EXPECT_LT(::read(mailbox.wake_fd(), &value, sizeof(value)), 0);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

  mailbox.Post({0, 1});
  EXPECT_EQ(::read(mailbox.wake_fd(), &value, sizeof(value)),
            static_cast<ssize_t>(sizeof(value)));
  EXPECT_GE(value, 1u);
}

TEST(MailboxTest, ConcurrentProducersDeliverEverythingInPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  net::Mailbox<TestMsg> mailbox;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mailbox, p] {
      for (int i = 0; i < kPerProducer; ++i) mailbox.Post({p, i});
    });
  }

  std::vector<TestMsg> received;
  std::vector<TestMsg> batch;
  while (received.size() < kProducers * kPerProducer) {
    mailbox.ClearWake();
    batch.clear();
    mailbox.Drain(batch);
    received.insert(received.end(), batch.begin(), batch.end());
  }
  for (std::thread& producer : producers) producer.join();

  // Every message arrived exactly once, and each producer's stream is in
  // order even when interleaved with the others.
  int next_seq[kProducers] = {};
  for (const TestMsg& msg : received) {
    ASSERT_LT(msg.producer, kProducers);
    EXPECT_EQ(msg.seq, next_seq[msg.producer]);
    ++next_seq[msg.producer];
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

// --- job-table reclamation --------------------------------------------------

workload::JobSpec TableSpec(std::uint64_t id) {
  workload::JobSpec spec;
  spec.id = JobId(static_cast<JobId::ValueType>(id));
  spec.cores = 1;
  spec.memory_mb = 64;
  spec.runtime = MinutesToTicks(5);
  return spec;
}

TEST(JobTableReclaimTest, EraseFreesTheIdAndCreateReusesTheSlot) {
  cluster::JobArena table;
  table.EnableReclamation();
  table.Create(TableSpec(1));
  table.Create(TableSpec(2));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.live_size(), 2u);

  table.Erase(JobId(1));
  EXPECT_FALSE(table.Contains(JobId(1)));
  EXPECT_TRUE(table.Contains(JobId(2)));
  EXPECT_EQ(table.size(), 2u);       // slot parked, not destroyed
  EXPECT_EQ(table.live_size(), 1u);  // but no longer reachable
  EXPECT_EQ(table.reclaimed_count(), 1u);

  // The freed slot is reused — including for the same id, the daemon's
  // kill-then-resubmit path.
  table.Create(TableSpec(1));
  EXPECT_TRUE(table.Contains(JobId(1)));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.live_size(), 2u);
}

TEST(JobTableReclaimTest, ReusedSlotGenerationExceedsEveryOldStamp) {
  cluster::JobArena table;
  table.EnableReclamation();
  table.Create(TableSpec(7));
  // Simulate a job that handed out timer stamps up to generation 5 before
  // going terminal.
  table.at(JobId(7)).EnsureGenerationAtLeast(5);
  const std::uint64_t old_generation = table.at(JobId(7)).generation();
  table.Erase(JobId(7));

  cluster::Job reused = table.Create(TableSpec(8));
  // A stale timer stamped with any of the old occupant's generations must
  // never match the new job.
  EXPECT_GT(reused.generation(), old_generation);
  EXPECT_EQ(table.live_size(), 1u);
}

TEST(JobTableReclaimTest, SparseIdsShareTheFreeListWithDenseIds) {
  // Ids past the dense cap live in the hash-map side of the index but park
  // their slots on the same free list as dense ids, with the same
  // generation floor on reuse.
  cluster::JobArena table;
  table.EnableReclamation();
  constexpr std::uint64_t kSparseId = (1u << 24) + 17;  // >= kDenseCap
  table.Create(TableSpec(kSparseId));
  EXPECT_TRUE(table.Contains(JobId(kSparseId)));
  table.at(JobId(kSparseId)).EnsureGenerationAtLeast(9);
  const std::uint64_t old_generation = table.at(JobId(kSparseId)).generation();
  table.Erase(JobId(kSparseId));
  EXPECT_FALSE(table.Contains(JobId(kSparseId)));
  EXPECT_EQ(table.reclaimed_count(), 1u);
  EXPECT_EQ(table.live_size(), 0u);

  // A dense-id Create reuses the sparse job's parked slot, and its
  // generation clears every stamp the old occupant handed out.
  cluster::Job reused = table.Create(TableSpec(3));
  EXPECT_EQ(table.size(), 1u);  // slot reused, not appended
  EXPECT_EQ(table.live_size(), 1u);
  EXPECT_GT(reused.generation(), old_generation);

  // And a fresh sparse id can take a dense job's slot just the same —
  // including reuse of the same sparse id after a kill-then-resubmit.
  // (Views alias the slot, so snapshot the generation before the reuse.)
  const std::uint64_t dense_generation = reused.generation();
  table.Erase(JobId(3));
  cluster::Job sparse_again = table.Create(TableSpec(kSparseId));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Contains(JobId(kSparseId)));
  EXPECT_EQ(sparse_again.id(), JobId(kSparseId));
  EXPECT_GT(sparse_again.generation(), dense_generation);
}

TEST(JobTableReclaimTest, FreeSlotGenerationFloorsSurviveRestore) {
  // A compacted snapshot restore rebuilds only live jobs, so the free list
  // must be re-parked explicitly — otherwise replayed Creates observe
  // generation floors of zero and every timer stamp the live run logged
  // against a reused slot goes stale (or worse, a dead stamp goes fresh).
  cluster::JobArena live;
  live.EnableReclamation();
  live.Create(TableSpec(1));
  live.Create(TableSpec(2));
  live.at(JobId(1)).EnsureGenerationAtLeast(5);
  live.at(JobId(2)).EnsureGenerationAtLeast(9);
  live.Erase(JobId(1));
  live.Erase(JobId(2));

  std::vector<std::uint64_t> floors;
  live.AppendFreeSlotGenerations(floors);
  ASSERT_EQ(floors.size(), 2u);

  cluster::JobArena restored;
  restored.EnableReclamation();
  for (const std::uint64_t floor : floors) restored.RestoreFreeSlot(floor);
  EXPECT_EQ(restored.size(), 2u);       // parked slots, shaped like erasures
  EXPECT_EQ(restored.live_size(), 0u);  // but nothing reachable
  EXPECT_FALSE(restored.Contains(JobId(1)));
  EXPECT_FALSE(restored.Contains(JobId(2)));

  // Both tables must now hand out identical slot/generation sequences —
  // LIFO order included (job 2's slot, then job 1's).
  const cluster::Job a_live = live.Create(TableSpec(3));
  const cluster::Job a_restored = restored.Create(TableSpec(3));
  EXPECT_EQ(a_restored.generation(), a_live.generation());
  EXPECT_GT(a_restored.generation(), 9u);
  const cluster::Job b_live = live.Create(TableSpec(4));
  const cluster::Job b_restored = restored.Create(TableSpec(4));
  EXPECT_EQ(b_restored.generation(), b_live.generation());
  EXPECT_GT(b_restored.generation(), 5u);
  EXPECT_EQ(restored.size(), 2u);  // reused, not appended
  EXPECT_EQ(restored.live_size(), 2u);
}

TEST(JobTableReclaimTest, WithoutEnableReclamationCreateAlwaysAppends) {
  cluster::JobArena table;
  table.Create(TableSpec(1));
  table.Create(TableSpec(2));
  EXPECT_FALSE(table.reclaim_enabled());
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.live_size(), 2u);
}

}  // namespace
}  // namespace netbatch

namespace netbatch::service {
namespace {

// --- job directory ------------------------------------------------------------

constexpr JobId::ValueType kDenseCap = 1u << 24;  // the arena's dense cap

TEST(JobDirectoryTest, RacingInsertsHaveExactlyOneWinnerPerId) {
  // Every thread claims the same ids in the same order, so the threads
  // collide on each cell and on each chunk's first-touch publication.
  constexpr int kThreads = 4;
  constexpr JobId::ValueType kIds = 3 * (1u << 14) + 7;  // spans 4 chunks
  const std::vector<JobId::ValueType> sparse = {kDenseCap, kDenseCap + 1,
                                                0xfffffff0u};
  JobDirectory directory;
  std::vector<std::atomic<int>> dense_wins(kIds);
  std::vector<std::atomic<int>> sparse_wins(sparse.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto shard = static_cast<std::uint32_t>(t);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (JobId::ValueType v = 0; v < kIds; ++v) {
        if (directory.TryInsert(JobId(v), shard)) dense_wins[v].fetch_add(1);
      }
      for (std::size_t i = 0; i < sparse.size(); ++i) {
        if (directory.TryInsert(JobId(sparse[i]), shard)) {
          sparse_wins[i].fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (JobId::ValueType v = 0; v < kIds; ++v) {
    ASSERT_EQ(dense_wins[v].load(), 1) << "id " << v;
    const std::optional<std::uint32_t> owner = directory.Lookup(JobId(v));
    ASSERT_TRUE(owner.has_value()) << "id " << v;
    ASSERT_LT(*owner, static_cast<std::uint32_t>(kThreads));
    // The winner owns the id: no other shard can claim it again.
    ASSERT_FALSE(directory.TryInsert(JobId(v), (*owner + 1) % kThreads));
  }
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(sparse_wins[i].load(), 1) << "id " << sparse[i];
    EXPECT_TRUE(directory.Lookup(JobId(sparse[i])).has_value());
  }
}

TEST(JobDirectoryTest, EraseByANonOwnerIsANoOp) {
  JobDirectory directory;
  for (const JobId::ValueType v : {5u, kDenseCap + 5}) {
    ASSERT_TRUE(directory.TryInsert(JobId(v), 1));
    directory.EraseIfOwner(JobId(v), 0);
    directory.EraseIfOwner(JobId(v), 2);
    EXPECT_EQ(directory.Lookup(JobId(v)), std::optional<std::uint32_t>(1));
    EXPECT_FALSE(directory.TryInsert(JobId(v), 0));
    directory.EraseIfOwner(JobId(v), 1);
    EXPECT_EQ(directory.Lookup(JobId(v)), std::nullopt);
  }
}

TEST(JobDirectoryTest, EraseThenReinsertByAnotherShard) {
  JobDirectory directory;
  // Shard 0 must read as owned, not free.
  ASSERT_TRUE(directory.TryInsert(JobId(7), 0));
  EXPECT_EQ(directory.Lookup(JobId(7)), std::optional<std::uint32_t>(0));
  EXPECT_FALSE(directory.TryInsert(JobId(7), 2));
  directory.EraseIfOwner(JobId(7), 0);
  EXPECT_EQ(directory.Lookup(JobId(7)), std::nullopt);

  EXPECT_TRUE(directory.TryInsert(JobId(7), 2));
  EXPECT_EQ(directory.Lookup(JobId(7)), std::optional<std::uint32_t>(2));
  EXPECT_FALSE(directory.TryInsert(JobId(7), 0));
  // The old owner's late erase must not release the new owner's claim.
  directory.EraseIfOwner(JobId(7), 0);
  EXPECT_EQ(directory.Lookup(JobId(7)), std::optional<std::uint32_t>(2));
}

TEST(JobDirectoryTest, LookupInAnUntouchedChunkIsAbsent) {
  JobDirectory directory;
  EXPECT_EQ(directory.Lookup(JobId(123456)), std::nullopt);
  directory.EraseIfOwner(JobId(123456), 0);  // no chunk: nothing to erase
  EXPECT_EQ(directory.Lookup(JobId(123456)), std::nullopt);

  ASSERT_TRUE(directory.TryInsert(JobId(3), 1));
  // A neighbour in the touched chunk and an id in a far, untouched chunk.
  EXPECT_EQ(directory.Lookup(JobId(4)), std::nullopt);
  EXPECT_EQ(directory.Lookup(JobId(kDenseCap - 1)), std::nullopt);
  EXPECT_EQ(directory.Lookup(JobId(3)), std::optional<std::uint32_t>(1));
}

TEST(JobDirectoryTest, IdsAcrossTheDenseSparseBoundary) {
  JobDirectory directory;
  const JobId::ValueType ids[] = {kDenseCap - 1, kDenseCap, 0xffffffffu};
  std::uint32_t shard = 0;
  for (const JobId::ValueType v : ids) {
    ASSERT_TRUE(directory.TryInsert(JobId(v), shard++)) << "id " << v;
  }
  shard = 0;
  for (const JobId::ValueType v : ids) {
    EXPECT_EQ(directory.Lookup(JobId(v)), std::optional<std::uint32_t>(shard))
        << "id " << v;
    EXPECT_FALSE(directory.TryInsert(JobId(v), 9)) << "id " << v;
    ++shard;
  }
  // Releasing one side of the boundary leaves the other untouched.
  directory.EraseIfOwner(JobId(kDenseCap - 1), 0);
  EXPECT_EQ(directory.Lookup(JobId(kDenseCap - 1)), std::nullopt);
  EXPECT_EQ(directory.Lookup(JobId(kDenseCap)),
            std::optional<std::uint32_t>(1));
  directory.EraseIfOwner(JobId(kDenseCap), 1);
  EXPECT_EQ(directory.Lookup(JobId(kDenseCap)), std::nullopt);
  EXPECT_EQ(directory.Lookup(JobId(0xffffffffu)),
            std::optional<std::uint32_t>(2));
  EXPECT_TRUE(directory.TryInsert(JobId(kDenseCap), 4));
  EXPECT_EQ(directory.Lookup(JobId(kDenseCap)),
            std::optional<std::uint32_t>(4));
}

// --- in-process daemon fixture ----------------------------------------------

cluster::ClusterConfig SmallCluster(std::uint32_t pools,
                                    std::int32_t machines_per_pool,
                                    std::int32_t cores_per_machine) {
  cluster::ClusterConfig config;
  for (std::uint32_t p = 0; p < pools; ++p) {
    cluster::MachineGroupConfig group;
    group.count = machines_per_pool;
    group.cores = cores_per_machine;
    group.memory_mb = 32768;
    cluster::PoolConfig pool;
    pool.machine_groups.push_back(group);
    config.pools.push_back(pool);
  }
  return config;
}

ShardStackFactory TestStacks() {
  return [](std::uint32_t shard) {
    ShardStack stack;
    stack.scheduler = std::make_unique<sched::RoundRobinScheduler>();
    core::PolicyOptions options;
    options.seed = 42 + shard;
    stack.policy = core::MakePolicy(core::PolicyKind::kNoRes, options);
    return stack;
  };
}

// A daemon running on its own thread for the duration of one test.
class RunningDaemon {
 public:
  RunningDaemon(const cluster::ClusterConfig& config, DaemonOptions options)
      : daemon_(config, TestStacks(), std::move(options)) {
    thread_ = std::thread([this] { daemon_.Run(stop_); });
  }
  ~RunningDaemon() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  Daemon& daemon() { return daemon_; }

 private:
  Daemon daemon_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::string TestSocketPath(const std::string& name) {
  const std::string path =
      "/tmp/nb_daemon_test_" + std::to_string(::getpid()) + "_" + name +
      ".sock";
  ::unlink(path.c_str());
  return path;
}

DaemonOptions UnixOptions(const std::string& socket_path) {
  DaemonOptions options;
  options.socket_path = socket_path;
  options.time_scale = 1000;
  options.auto_complete = false;  // tests drive completion explicitly
  return options;
}

// A blocking protocol client over a connected stream socket.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  bool connected() const { return fd_ >= 0; }

  // False when the peer vanished mid-send (EPIPE/ECONNRESET) — which for
  // the slow-reader test is the expected outcome, not a failure.
  bool Send(Opcode opcode, std::uint64_t request_id,
            const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> wire;
    EncodeFrame(static_cast<std::uint16_t>(opcode), request_id, payload, wire);
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Blocking read of the next response frame; false on EOF.
  bool Recv(Frame& out) {
    for (;;) {
      if (!pending_.empty()) {
        out = std::move(pending_.front());
        pending_.pop_front();
        return true;
      }
      std::uint8_t buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      std::vector<Frame> frames;
      if (!decoder_.Feed(buf, static_cast<std::size_t>(n), frames)) {
        return false;
      }
      for (Frame& frame : frames) pending_.push_back(std::move(frame));
    }
  }

  SubmitResponse Submit(std::uint64_t request_id, const workload::JobSpec& spec) {
    std::vector<std::uint8_t> payload;
    EncodeJobSpec(spec, payload);
    EXPECT_TRUE(Send(Opcode::kSubmit, request_id, payload));
    Frame frame;
    SubmitResponse response;
    if (!Recv(frame)) {
      ADD_FAILURE() << "connection closed awaiting submit response";
      return response;
    }
    EXPECT_EQ(frame.header.request_id, request_id);
    EXPECT_TRUE(DecodeSubmitResponse(frame.payload, response));
    return response;
  }

  struct JobOpResult {
    Status status = Status::kBadRequest;
    std::uint32_t state = 0;
    std::uint32_t pool = 0;
    std::uint32_t machine = 0;
  };

  JobOpResult JobOp(Opcode opcode, std::uint64_t request_id,
                    std::uint64_t job_id) {
    std::vector<std::uint8_t> payload;
    WireWriter w(payload);
    w.U64(job_id);
    EXPECT_TRUE(Send(opcode, request_id, payload));
    Frame frame;
    JobOpResult result;
    if (!Recv(frame)) {
      ADD_FAILURE() << "connection closed awaiting job-op response";
      return result;
    }
    EXPECT_EQ(frame.header.request_id, request_id);
    WireReader r(frame.payload);
    result.status = static_cast<Status>(r.U32());
    if (opcode == Opcode::kQueryJob && result.status != Status::kBadRequest &&
        result.status != Status::kUnknownJob) {
      result.state = r.U32();
      result.pool = r.U32();
      result.machine = r.U32();
    }
    return result;
  }

  Status MachineOp(Opcode opcode, std::uint64_t request_id, std::uint32_t pool,
                   std::uint32_t machine) {
    std::vector<std::uint8_t> payload;
    EncodeMachineOpPayload(pool, machine, payload);
    EXPECT_TRUE(Send(opcode, request_id, payload));
    Frame frame;
    if (!Recv(frame)) {
      ADD_FAILURE() << "connection closed awaiting machine-op response";
      return Status::kBadRequest;
    }
    EXPECT_EQ(frame.header.request_id, request_id);
    WireReader r(frame.payload);
    return static_cast<Status>(r.U32());
  }

  std::string Stats(std::uint64_t request_id) {
    EXPECT_TRUE(Send(Opcode::kStats, request_id, {}));
    Frame frame;
    if (!Recv(frame)) {
      ADD_FAILURE() << "connection closed awaiting stats response";
      return "";
    }
    EXPECT_EQ(frame.header.request_id, request_id);
    return std::string(frame.payload.begin(), frame.payload.end());
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<Frame> pending_;
};

workload::JobSpec MakeSpec(std::uint64_t id, std::vector<PoolId> pools,
                           std::int32_t cores = 1,
                           Ticks runtime = MinutesToTicks(600)) {
  workload::JobSpec spec;
  spec.id = JobId(static_cast<JobId::ValueType>(id));
  spec.task = TaskId(static_cast<TaskId::ValueType>(id));
  spec.cores = cores;
  spec.memory_mb = 1024;
  spec.runtime = runtime;
  spec.candidate_pools = std::move(pools);
  return spec;
}

// --- the long-running-daemon bug batch --------------------------------------

TEST(DaemonTest, CompletedJobsAreReclaimedAndTheirIdsReusable) {
  const std::string path = TestSocketPath("reclaim");
  RunningDaemon daemon(SmallCluster(1, 1, 4), UnixOptions(path));
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  const SubmitResponse submitted = client.Submit(1, MakeSpec(10, {}));
  EXPECT_EQ(submitted.status, Status::kOk);
  EXPECT_EQ(client.JobOp(Opcode::kComplete, 2, 10).status, Status::kOk);

  // The terminal job was reclaimed (at the loop iteration serving this
  // query, which is why the daemon can run forever) ...
  EXPECT_EQ(client.JobOp(Opcode::kQueryJob, 3, 10).status,
            Status::kUnknownJob);
  // ... and its id is free for a new submission.
  EXPECT_EQ(client.Submit(4, MakeSpec(10, {})).status, Status::kOk);
}

TEST(DaemonTest, KillBeforeStartDrainsLatencyMapAndFreesTheId) {
  const std::string path = TestSocketPath("killqueued");
  // One machine, one core: the second submission can only queue.
  RunningDaemon daemon(SmallCluster(1, 1, 1), UnixOptions(path));
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(client.Submit(1, MakeSpec(1, {})).status, Status::kOk);
  EXPECT_EQ(client.Submit(2, MakeSpec(2, {})).status, Status::kQueued);

  // Kill the queued job: it goes terminal without ever starting, the exact
  // path that used to leak its submit-arrival entry forever.
  EXPECT_EQ(client.JobOp(Opcode::kKill, 3, 2).status, Status::kOk);
  EXPECT_EQ(client.JobOp(Opcode::kQueryJob, 4, 2).status, Status::kUnknownJob);

  // The id is reusable, and the resubmitted job is the only arrival entry
  // left — the gauge proves the kill drained its predecessor's.
  EXPECT_EQ(client.Submit(5, MakeSpec(2, {})).status, Status::kQueued);
  const std::string stats = client.Stats(6);
  EXPECT_NE(stats.find("daemon.latency_map_entries=1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("jobs.killed=1"), std::string::npos) << stats;
}

TEST(DaemonTest, KilledQueuedJobsReusedSlotRecordsOnePlacementSample) {
  const std::string path = TestSocketPath("slotreuse");
  // One two-core machine: a one-core job runs, a two-core job queues.
  RunningDaemon daemon(SmallCluster(1, 1, 2), UnixOptions(path));
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(client.Submit(1, MakeSpec(1, {})).status, Status::kOk);
  EXPECT_EQ(client.Submit(2, MakeSpec(2, {}, /*cores=*/2)).status,
            Status::kQueued);
  // Kill the queued job; the query's loop iteration has reclaimed its
  // slot, the only free one, so the next submit lands in it. The kill
  // itself closed the pending arrival.
  EXPECT_EQ(client.JobOp(Opcode::kKill, 3, 2).status, Status::kOk);
  EXPECT_EQ(client.JobOp(Opcode::kQueryJob, 4, 2).status, Status::kUnknownJob);
  const std::string killed = client.Stats(5);
  EXPECT_NE(killed.find("daemon.latency_map_entries=0 (max=1)"),
            std::string::npos)
      << killed;

  // The new occupant starts at once: its own admission is the only one
  // measured, and no arrival is left pending.
  EXPECT_EQ(client.Submit(6, MakeSpec(3, {})).status, Status::kOk);
  const std::string stats = client.Stats(7);
  EXPECT_NE(stats.find("placement_latency_ns{count=2,"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("daemon.latency_map_entries=0 (max=1)"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("jobs.killed=1"), std::string::npos) << stats;
}

TEST(DaemonTest, SlowReaderIsEvictedInsteadOfBufferedForever) {
  const std::string path = TestSocketPath("slowreader");
  DaemonOptions options = UnixOptions(path);
  options.max_session_pending = 64 * 1024;
  RunningDaemon daemon(SmallCluster(1, 1, 4), options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  // Pipeline far more stats requests than the pending-output cap plus the
  // kernel's socket buffer can hold, without reading a byte back. The
  // daemon must cut us loose rather than queue responses unboundedly.
  constexpr int kRequests = 20000;
  int sent = 0;
  while (sent < kRequests &&
         client.Send(Opcode::kStats, static_cast<std::uint64_t>(sent), {})) {
    ++sent;
  }

  int responses = 0;
  Frame frame;
  while (client.Recv(frame)) ++responses;
  EXPECT_LT(responses, kRequests)
      << "daemon buffered every response for a reader that never drained";

  // The eviction is per-session: the daemon itself is still healthy.
  Client fresh(net::ConnectUnix(path));
  ASSERT_TRUE(fresh.connected());
  EXPECT_EQ(fresh.Submit(1, MakeSpec(50, {})).status, Status::kOk);
}

TEST(DaemonTest, FdChurnNeverCorruptsASurvivingSession) {
  const std::string path = TestSocketPath("fdchurn");
  RunningDaemon daemon(SmallCluster(1, 2, 8), UnixOptions(path));

  // A long-lived session that must stay coherent across the churn.
  Client survivor(net::ConnectUnix(path));
  ASSERT_TRUE(survivor.connected());
  EXPECT_EQ(survivor.Submit(1, MakeSpec(1, {})).status, Status::kOk);

  // Churn: short-lived connections whose fds the kernel recycles as fast
  // as we close them. Stale epoll events for a closed connection must
  // never reach the session that inherited its fd number.
  for (int i = 0; i < 60; ++i) {
    Client churn(net::ConnectUnix(path));
    ASSERT_TRUE(churn.connected());
    const std::uint64_t id = 100 + static_cast<std::uint64_t>(i);
    const SubmitResponse response =
        churn.Submit(id, MakeSpec(id, {}, /*cores=*/1, MinutesToTicks(600)));
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kQueued);
    // Half the connections die with a request in flight (no read), the
    // dirtiest close ordering for the event loop.
    if (i % 2 == 0) {
      std::vector<std::uint8_t> payload;
      WireWriter w(payload);
      w.U64(id);
      churn.Send(Opcode::kQueryJob, 7, payload);
    }
  }

  // The survivor still sees its own stream, uncorrupted. (The churn jobs
  // filled the cluster, so the fresh submit queues — what matters is that
  // both responses arrive intact on the surviving session.)
  const Client::JobOpResult query = survivor.JobOp(Opcode::kQueryJob, 2, 1);
  EXPECT_EQ(query.status, Status::kOk);
  const SubmitResponse last = survivor.Submit(3, MakeSpec(2, {}));
  EXPECT_TRUE(last.status == Status::kOk || last.status == Status::kQueued);
}

// --- sharded serving --------------------------------------------------------

TEST(DaemonTest, CrossShardSubmitsAnswerEveryRequestExactlyOnce) {
  const std::string path = TestSocketPath("crossshard");
  DaemonOptions options = UnixOptions(path);
  options.threads = 2;
  // 4 pools over 2 shards: pools 0,2 on shard 0 and 1,3 on shard 1. Every
  // session lands on one shard, so half these submits cross threads.
  RunningDaemon daemon(SmallCluster(4, 2, 4), options);
  ASSERT_EQ(daemon.daemon().shard_count(), 2u);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  constexpr std::uint64_t kJobs = 80;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    std::vector<std::uint8_t> payload;
    EncodeJobSpec(MakeSpec(i + 1, {PoolId(static_cast<std::uint32_t>(i % 4))}),
                  payload);
    ASSERT_TRUE(client.Send(Opcode::kSubmit, 1000 + i, payload));
  }

  // Responses may arrive out of request order (forwarded submits race the
  // local ones) — match by request_id.
  std::map<std::uint64_t, SubmitResponse> responses;
  std::uint64_t started = 0;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    Frame frame;
    ASSERT_TRUE(client.Recv(frame)) << "connection closed after " << i;
    ASSERT_GE(frame.header.request_id, 1000u);
    ASSERT_LT(frame.header.request_id, 1000u + kJobs);
    SubmitResponse response;
    ASSERT_TRUE(DecodeSubmitResponse(frame.payload, response));
    ASSERT_TRUE(responses.emplace(frame.header.request_id, response).second)
        << "request " << frame.header.request_id << " answered twice";
    const std::uint64_t job = frame.header.request_id - 1000 + 1;
    EXPECT_EQ(response.job_id, job);
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kQueued);
    // The response reports the job's pool as a GLOBAL id — exactly the
    // candidate the spec named, whichever shard it lives on.
    EXPECT_EQ(response.pool, (job - 1) % 4);
    if (response.status == Status::kOk) ++started;
  }
  ASSERT_EQ(responses.size(), kJobs);
  // 4 pools x 2 machines x 4 cores = 32 single-core jobs can run.
  EXPECT_EQ(started, 32u);

  // Job ops route to the owning shard by directory lookup and still report
  // global pool ids.
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    const Client::JobOpResult query =
        client.JobOp(Opcode::kQueryJob, 2000 + job, job);
    EXPECT_EQ(query.status, Status::kOk);
    EXPECT_EQ(query.pool, (job - 1) % 4);
  }

  // Duplicate ids are refused cluster-wide, whichever shard sees them.
  EXPECT_EQ(client.Submit(3001, MakeSpec(5, {PoolId(1)})).status,
            Status::kBadRequest);
  EXPECT_EQ(client.Submit(3002, MakeSpec(6, {PoolId(2)})).status,
            Status::kBadRequest);

  // The stats endpoint merges every shard's counters losslessly.
  const std::string stats = client.Stats(4000);
  EXPECT_NE(stats.find("jobs.started=32"), std::string::npos) << stats;
  EXPECT_NE(stats.find("jobs.submitted=" + std::to_string(kJobs)),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("placement_latency_ns{count=32,"), std::string::npos)
      << stats;

  // The snapshot gather stitches the pool views back into global id order.
  ASSERT_TRUE(client.Send(Opcode::kSnapshot, 5000, {}));
  Frame frame;
  ASSERT_TRUE(client.Recv(frame));
  WireReader r(frame.payload);
  r.I64();  // now
  EXPECT_EQ(r.U64(), 32u);           // started
  r.U64();                           // completed
  r.U64();                           // rejected
  r.U64();                           // preemptions
  r.U64();                           // reschedules
  ASSERT_EQ(r.U32(), 4u);            // pools
  std::int64_t busy = 0;
  std::uint64_t queued = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(r.U32(), p);  // sorted global pool ids
    r.I64();                // total cores
    busy += r.I64();
    queued += r.U64();
    r.U64();  // suspended
  }
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(busy, 32);
  EXPECT_EQ(queued, kJobs - 32);
}

TEST(DaemonTest, WatermarkGaugesMergeAsMaxAcrossShards) {
  const std::string path = TestSocketPath("gaugemerge");
  DaemonOptions options = UnixOptions(path);
  options.threads = 2;
  // 2 pools over 2 shards, one single-core machine each: every submission
  // past the first per pool queues and keeps its arrival entry alive.
  RunningDaemon daemon(SmallCluster(2, 1, 1), options);
  ASSERT_EQ(daemon.daemon().shard_count(), 2u);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  // Shard 0 (pool 0): one running (entry erased at start) + two queued.
  // Shard 1 (pool 1): one running + four queued.
  std::uint64_t id = 1;
  std::uint64_t req = 1;
  EXPECT_EQ(client.Submit(req++, MakeSpec(id++, {PoolId(0)})).status,
            Status::kOk);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(client.Submit(req++, MakeSpec(id++, {PoolId(0)})).status,
              Status::kQueued);
  }
  EXPECT_EQ(client.Submit(req++, MakeSpec(id++, {PoolId(1)})).status,
            Status::kOk);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.Submit(req++, MakeSpec(id++, {PoolId(1)})).status,
              Status::kQueued);
  }

  // daemon.latency_map_entries is a per-shard watermark, not additive: the
  // merged report is the busiest shard's 4. Summing the shards (the old
  // merge bug) would invent a 6 no single map ever held.
  const std::string stats = client.Stats(100);
  EXPECT_NE(stats.find("daemon.latency_map_entries=4 (max=4)"),
            std::string::npos)
      << stats;
  EXPECT_EQ(stats.find("daemon.latency_map_entries=6"), std::string::npos)
      << stats;
}

TEST(DaemonTest, ForwardedFramesCountExactlyOnceInMergedStats) {
  // The same workload against a 1-shard and a 2-shard daemon must merge to
  // identical lifecycle counters: a submit forwarded to its owning shard is
  // one submission, not one per hop.
  auto run = [](std::uint32_t threads, const std::string& tag) {
    const std::string path = TestSocketPath("fwdonce" + tag);
    DaemonOptions options = UnixOptions(path);
    options.threads = threads;
    RunningDaemon daemon(SmallCluster(4, 1, 2), options);
    Client client(net::ConnectUnix(path));
    EXPECT_TRUE(client.connected());
    std::uint64_t req = 1;
    // 4 pools x 1 machine x 2 cores: 8 of these 16 run, 8 queue. Half the
    // submits cross shards when threads = 2.
    for (std::uint64_t job = 1; job <= 16; ++job) {
      const Status status =
          client.Submit(req++, MakeSpec(job, {PoolId(static_cast<std::uint32_t>(
                                            (job - 1) % 4))}))
              .status;
      EXPECT_TRUE(status == Status::kOk || status == Status::kQueued);
    }
    // Forwarded job ops ride the same path: kill a queued job, complete a
    // running one (which backfills a queued neighbour).
    EXPECT_EQ(client.JobOp(Opcode::kKill, req++, 16).status, Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kComplete, req++, 1).status, Status::kOk);
    return client.Stats(req++);
  };
  const std::string one = run(1, "1");
  const std::string two = run(2, "2");

  auto value = [](const std::string& stats, const std::string& key) {
    const auto at = stats.find(key + "=");
    EXPECT_NE(at, std::string::npos) << key << " missing in:\n" << stats;
    if (at == std::string::npos) return std::int64_t{-1};
    return static_cast<std::int64_t>(
        std::strtoll(stats.c_str() + at + key.size() + 1, nullptr, 10));
  };
  for (const char* key :
       {"jobs.submitted", "jobs.enqueued", "jobs.started", "jobs.killed",
        "jobs.completed"}) {
    EXPECT_EQ(value(one, key), value(two, key)) << key;
  }
  EXPECT_EQ(value(two, "jobs.submitted"), 16);
  EXPECT_EQ(value(two, "jobs.killed"), 1);
}

TEST(DaemonTest, TcpTransportServesTheSameProtocol) {
  DaemonOptions options;
  options.tcp = true;
  options.tcp_port = 0;  // let the kernel pick
  options.time_scale = 1000;
  options.auto_complete = false;
  RunningDaemon daemon(SmallCluster(2, 1, 4), options);
  ASSERT_GT(daemon.daemon().tcp_port(), 0);

  Client client(net::ConnectTcp("127.0.0.1", daemon.daemon().tcp_port()));
  ASSERT_TRUE(client.connected());
  const SubmitResponse submitted = client.Submit(1, MakeSpec(1, {PoolId(1)}));
  EXPECT_EQ(submitted.status, Status::kOk);
  EXPECT_EQ(submitted.pool, 1u);
  EXPECT_EQ(client.JobOp(Opcode::kQueryJob, 2, 1).status, Status::kOk);
  EXPECT_EQ(client.JobOp(Opcode::kComplete, 3, 1).status, Status::kOk);
  EXPECT_NE(client.Stats(4).find("jobs.completed=1"), std::string::npos);
}

TEST(DaemonTest, MachineOutageDrillFailsAndRepairsLive) {
  const std::string path = TestSocketPath("drill");
  RunningDaemon daemon(SmallCluster(1, 1, 1), UnixOptions(path));
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  // Take the only machine down: new work can only queue.
  EXPECT_EQ(client.MachineOp(Opcode::kFailMachine, 1, 0, 0), Status::kOk);
  EXPECT_EQ(client.Submit(2, MakeSpec(1, {})).status, Status::kQueued);

  // Repair dispatches the queued job onto the recovered machine.
  EXPECT_EQ(client.MachineOp(Opcode::kRepairMachine, 3, 0, 0), Status::kOk);
  const Client::JobOpResult query = client.JobOp(Opcode::kQueryJob, 4, 1);
  EXPECT_EQ(query.status, Status::kOk);
  EXPECT_EQ(query.state,
            static_cast<std::uint32_t>(cluster::JobState::kRunning));

  // Out-of-range targets are malformed requests, not crashes.
  EXPECT_EQ(client.MachineOp(Opcode::kFailMachine, 5, 0, 7),
            Status::kBadRequest);
  EXPECT_EQ(client.MachineOp(Opcode::kFailMachine, 6, 9, 0),
            Status::kBadRequest);
}

TEST(DaemonTest, DrainRefusesNewWorkButKeepsServingSessions) {
  const std::string path = TestSocketPath("drain");
  RunningDaemon daemon(SmallCluster(1, 1, 4), UnixOptions(path));
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(client.Submit(1, MakeSpec(1, {})).status, Status::kOk);

  std::vector<std::uint8_t> empty;
  ASSERT_TRUE(client.Send(Opcode::kDrain, 2, empty));
  Frame frame;
  ASSERT_TRUE(client.Recv(frame));
  WireReader r(frame.payload);
  EXPECT_EQ(static_cast<Status>(r.U32()), Status::kOk);

  // New submissions bounce; in-flight work is still reachable.
  EXPECT_EQ(client.Submit(3, MakeSpec(2, {})).status, Status::kDraining);
  EXPECT_EQ(client.JobOp(Opcode::kQueryJob, 4, 1).status, Status::kOk);
  EXPECT_EQ(client.JobOp(Opcode::kComplete, 5, 1).status, Status::kOk);
}

}  // namespace
}  // namespace netbatch::service
