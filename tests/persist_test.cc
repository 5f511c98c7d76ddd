// Tests for the durability subsystem: CRC32C known answers, the framed
// write-ahead log (roundtrip, rotation, torn-tail and bit-flip corruption),
// atomic snapshots (corrupt files are never loaded), recovery planning —
// and DaemonPersistTest, which drills the real daemon over unix sockets:
// submit/suspend/complete/kill/fail against a --data-dir daemon, crash it
// (stop without checkpoint), restart over the same directory, and assert
// the recovered daemon answers exactly like the never-crashed one did on
// the acked prefix: same per-job states, same pool occupancy, exactly-once
// job ids.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "core/policies.h"
#include "net/socket.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "sched/round_robin.h"
#include "service/daemon.h"
#include "service/protocol.h"

namespace netbatch {
namespace {

// --- shared filesystem helpers ----------------------------------------------

// A per-test scratch directory under /tmp, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_("/tmp/nb_persist_test_" + std::to_string(::getpid()) + "_" +
              name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// Inverts one byte in place — guaranteed to break any CRC covering it.
void FlipByte(const std::string& path, std::size_t index) {
  std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  ASSERT_LT(index, bytes.size());
  bytes[index] ^= 0xff;
  WriteFileBytes(path, bytes);
}

// Simulates a torn write: the last `n` bytes never reached the disk.
void ChopTail(const std::string& path, std::size_t n) {
  std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  ASSERT_LE(n, bytes.size());
  bytes.resize(bytes.size() - n);
  WriteFileBytes(path, bytes);
}

void AppendGarbage(const std::string& path, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  for (std::size_t i = 0; i < n; ++i) out.put(static_cast<char>(0xAB));
  EXPECT_TRUE(out.good()) << path;
}

}  // namespace
}  // namespace netbatch

// --- persist unit tests -----------------------------------------------------

namespace netbatch::persist {
namespace {

TEST(PersistTest, Crc32cKnownAnswer) {
  // The standard Castagnoli check vector.
  const char* vector = "123456789";
  EXPECT_EQ(Crc32c(vector, 9), 0xE3069283u);
  // Empty input with the conventional conditioning.
  EXPECT_EQ(Crc32c(vector, 0), 0u);
}

TEST(PersistTest, Crc32cExtendComposes) {
  const std::string a = "hello, ";
  const std::string b = "write-ahead log";
  const std::string ab = a + b;
  EXPECT_EQ(ExtendCrc32c(Crc32c(a.data(), a.size()), b.data(), b.size()),
            Crc32c(ab.data(), ab.size()));
}

TEST(PersistTest, Crc32cHardwareMatchesSoftware) {
  // Whatever path ExtendCrc32c dispatches to must agree with the table
  // fallback byte for byte, across sizes that exercise the unaligned
  // head/aligned body/tail split of the hardware kernels.
  std::uint32_t state = 0x9e3779b9u;
  for (std::size_t size : {0u, 1u, 3u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    std::vector<std::uint8_t> data(size);
    for (auto& byte : data) {
      state = state * 1664525u + 1013904223u;
      byte = static_cast<std::uint8_t>(state >> 24);
    }
    EXPECT_EQ(ExtendCrc32c(0, data.data(), data.size()),
              ExtendCrc32cSoftware(0, data.data(), data.size()))
        << "size " << size;
    // And mid-stream extension agrees too.
    const std::size_t half = size / 2;
    EXPECT_EQ(ExtendCrc32c(ExtendCrc32c(0, data.data(), half),
                           data.data() + half, size - half),
              ExtendCrc32cSoftware(
                  ExtendCrc32cSoftware(0, data.data(), half),
                  data.data() + half, size - half))
        << "size " << size;
  }
}

// Writes `count` records with varied types and payload sizes; returns the
// payloads so scans can be checked against them.
std::vector<std::vector<std::uint8_t>> FillWal(WalWriter& wal, int count) {
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < count; ++i) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(i * 7) % 41);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(i * 31 + j);
    }
    EXPECT_EQ(wal.Append(static_cast<std::uint16_t>(1 + i % 5), payload),
              static_cast<std::uint64_t>(i + 1));
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

TEST(PersistTest, WalAppendScanRoundTrip) {
  TempDir dir("wal_roundtrip");
  std::string error;
  auto wal = WalWriter::Open(dir.path(), {}, &error);
  ASSERT_NE(wal, nullptr) << error;
  const auto payloads = FillWal(*wal, 20);
  wal->Sync();
  EXPECT_EQ(wal->last_lsn(), 20u);
  EXPECT_EQ(wal->records_appended(), 20u);
  EXPECT_GT(wal->bytes_appended(), 20 * kWalHeaderBytes);
  wal.reset();

  WalScanResult scan = ScanWal(dir.path(), 0);
  EXPECT_FALSE(scan.truncated) << scan.reason;
  EXPECT_EQ(scan.next_lsn, 21u);
  ASSERT_EQ(scan.records.size(), 20u);
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].lsn, i + 1);
    EXPECT_EQ(scan.records[i].type, static_cast<std::uint16_t>(1 + i % 5));
    EXPECT_EQ(scan.records[i].payload, payloads[i]);
  }

  // after_lsn filters but still validates the prefix.
  scan = ScanWal(dir.path(), 15);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.records.front().lsn, 16u);
}

TEST(PersistTest, WalReopenContinuesTheLsnChain) {
  TempDir dir("wal_reopen");
  std::string error;
  auto wal = WalWriter::Open(dir.path(), {}, &error);
  ASSERT_NE(wal, nullptr) << error;
  FillWal(*wal, 6);
  wal.reset();

  WalOptions options;
  options.next_lsn = 7;
  wal = WalWriter::Open(dir.path(), options, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(wal->Append(9, {0x42}), 7u);
  wal.reset();

  const WalScanResult scan = ScanWal(dir.path(), 0);
  EXPECT_FALSE(scan.truncated) << scan.reason;
  ASSERT_EQ(scan.records.size(), 7u);
  EXPECT_EQ(scan.records.back().lsn, 7u);
  EXPECT_EQ(scan.records.back().type, 9u);
}

TEST(PersistTest, WalRotationDropsCoveredSegments) {
  TempDir dir("wal_rotate");
  std::string error;
  auto wal = WalWriter::Open(dir.path(), {}, &error);
  ASSERT_NE(wal, nullptr) << error;
  FillWal(*wal, 10);
  wal->Sync();
  // As after a checkpoint at LSN 10: everything so far is covered.
  wal->StartSegmentAndTruncate(10);
  EXPECT_EQ(wal->Append(2, {1, 2, 3}), 11u);

  const auto segments = ListWalSegments(dir.path());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments.front().first, 11u);

  wal.reset();
  const WalScanResult scan = ScanWal(dir.path(), 10);
  EXPECT_FALSE(scan.truncated) << scan.reason;
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records.front().lsn, 11u);
}

TEST(PersistTest, WalScanStopsAtTornTail) {
  TempDir dir("wal_torn");
  std::string error;
  auto wal = WalWriter::Open(dir.path(), {}, &error);
  ASSERT_NE(wal, nullptr) << error;
  FillWal(*wal, 8);
  wal.reset();

  const auto segments = ListWalSegments(dir.path());
  ASSERT_EQ(segments.size(), 1u);
  ChopTail(segments.front().second, 3);

  const WalScanResult scan = ScanWal(dir.path(), 0);
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 7u);
  EXPECT_EQ(scan.next_lsn, 8u);

  // Recovery reopens at the scan's next_lsn; the torn bytes are physically
  // truncated and the chain continues without a seam.
  WalOptions options;
  options.next_lsn = scan.next_lsn;
  wal = WalWriter::Open(dir.path(), options, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(wal->Append(3, {7}), 8u);
  wal.reset();
  const WalScanResult rescan = ScanWal(dir.path(), 0);
  EXPECT_FALSE(rescan.truncated) << rescan.reason;
  EXPECT_EQ(rescan.records.size(), 8u);
}

TEST(PersistTest, WalScanStopsAtAnyFlippedByte) {
  TempDir dir("wal_fuzz");
  std::string error;
  auto wal = WalWriter::Open(dir.path(), {}, &error);
  ASSERT_NE(wal, nullptr) << error;
  FillWal(*wal, 20);
  wal.reset();

  const auto segments = ListWalSegments(dir.path());
  ASSERT_EQ(segments.size(), 1u);
  const std::string& segment = segments.front().second;
  const std::vector<WalRecord> clean = ScanWal(dir.path(), 0).records;
  ASSERT_EQ(clean.size(), 20u);
  const std::size_t file_size = ReadFileBytes(segment).size();

  // Flip every 5th byte of the log, one at a time. Whatever the byte hit —
  // magic, length, LSN, type, pad, CRC or payload — the scan must stop at
  // the damaged record and return an intact prefix, never garbage.
  for (std::size_t index = 0; index < file_size; index += 5) {
    FlipByte(segment, index);
    const WalScanResult scan = ScanWal(dir.path(), 0);
    EXPECT_TRUE(scan.truncated) << "flip at " << index;
    EXPECT_LT(scan.records.size(), clean.size()) << "flip at " << index;
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      ASSERT_EQ(scan.records[i].lsn, clean[i].lsn) << "flip at " << index;
      ASSERT_EQ(scan.records[i].type, clean[i].type) << "flip at " << index;
      ASSERT_EQ(scan.records[i].payload, clean[i].payload)
          << "flip at " << index;
    }
    EXPECT_EQ(scan.next_lsn, scan.records.size() + 1) << "flip at " << index;
    FlipByte(segment, index);  // restore for the next iteration
  }
}

std::string SnapshotFileName(std::uint64_t lsn) {
  char name[32];
  std::snprintf(name, sizeof(name), "snap-%016llx.nbs",
                static_cast<unsigned long long>(lsn));
  return name;
}

TEST(PersistTest, SnapshotRoundTrip) {
  TempDir dir("snap_roundtrip");
  SnapshotData snap;
  snap.lsn = 42;
  for (int i = 0; i < 300; ++i) {
    snap.payload.push_back(static_cast<std::uint8_t>(i));
  }
  std::string error;
  ASSERT_TRUE(WriteSnapshot(dir.path(), snap, &error)) << error;

  const auto loaded = LoadNewestSnapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 42u);
  EXPECT_EQ(loaded->payload, snap.payload);
}

TEST(PersistTest, CorruptSnapshotIsNeverLoaded) {
  TempDir dir("snap_corrupt");
  std::string error;
  SnapshotData old_snap;
  old_snap.lsn = 5;
  old_snap.payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(WriteSnapshot(dir.path(), old_snap, &error)) << error;
  SnapshotData new_snap;
  new_snap.lsn = 9;
  new_snap.payload = {9, 9, 9, 9, 9, 9};
  ASSERT_TRUE(WriteSnapshot(dir.path(), new_snap, &error)) << error;

  // A payload bit flip in the newest snapshot: fall back to the older one.
  const std::string newest = dir.path() + "/" + SnapshotFileName(9);
  FlipByte(newest, kSnapshotHeaderBytes + 2);
  auto loaded = LoadNewestSnapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 5u);
  EXPECT_EQ(loaded->payload, old_snap.payload);

  // A torn newest snapshot (half-written then crashed): same fallback.
  FlipByte(newest, kSnapshotHeaderBytes + 2);  // restore
  ChopTail(newest, 3);
  loaded = LoadNewestSnapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 5u);

  // Both corrupt: recovery gets "no snapshot", not a corrupt import.
  FlipByte(dir.path() + "/" + SnapshotFileName(5), kSnapshotHeaderBytes);
  EXPECT_FALSE(LoadNewestSnapshot(dir.path()).has_value());
}

TEST(PersistTest, CorruptSnapshotLengthFieldIsNeverTrusted) {
  // payload_len lives in the header outside the payload CRC. A corrupted
  // length must be detected against the file's real size and treated as
  // corruption (fall back to the next-newest snapshot) — not handed to
  // resize(), where a near-2^64 value kills recovery with bad_alloc.
  TempDir dir("snap_badlen");
  std::string error;
  SnapshotData old_snap;
  old_snap.lsn = 5;
  old_snap.payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(WriteSnapshot(dir.path(), old_snap, &error)) << error;
  SnapshotData new_snap;
  new_snap.lsn = 9;
  new_snap.payload = {9, 9, 9, 9, 9, 9};
  ASSERT_TRUE(WriteSnapshot(dir.path(), new_snap, &error)) << error;

  const std::string newest = dir.path() + "/" + SnapshotFileName(9);
  std::vector<std::uint8_t> bytes = ReadFileBytes(newest);
  ASSERT_GE(bytes.size(), kSnapshotHeaderBytes);
  // Length bytes (header offset 16..23) maxed out: a ~2^64 claim.
  for (std::size_t i = 16; i < 24; ++i) bytes[i] = 0xff;
  WriteFileBytes(newest, bytes);
  auto loaded = LoadNewestSnapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 5u);

  // A too-small claim (file longer than the header admits) is corruption
  // too, not a shorter-but-valid snapshot.
  bytes = ReadFileBytes(newest);
  for (std::size_t i = 16; i < 24; ++i) bytes[i] = 0;
  bytes[16] = static_cast<std::uint8_t>(new_snap.payload.size() - 1);
  WriteFileBytes(newest, bytes);
  loaded = LoadNewestSnapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 5u);
}

TEST(PersistTest, DeleteSnapshotsBelowKeepsTheNewest) {
  TempDir dir("snap_delete");
  std::string error;
  for (std::uint64_t lsn : {3u, 7u, 11u}) {
    SnapshotData snap;
    snap.lsn = lsn;
    snap.payload = {static_cast<std::uint8_t>(lsn)};
    ASSERT_TRUE(WriteSnapshot(dir.path(), snap, &error)) << error;
  }
  DeleteSnapshotsBelow(dir.path(), 11);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/" + SnapshotFileName(3)));
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/" + SnapshotFileName(7)));
  const auto loaded = LoadNewestSnapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 11u);
}

TEST(PersistTest, RecoveryPlanReplaysTheTailAboveTheSnapshot) {
  TempDir dir("plan_tail");
  std::string error;
  auto wal = WalWriter::Open(dir.path(), {}, &error);
  ASSERT_NE(wal, nullptr) << error;
  FillWal(*wal, 10);
  wal.reset();
  SnapshotData snap;
  snap.lsn = 6;
  snap.payload = {0xAA};
  ASSERT_TRUE(WriteSnapshot(dir.path(), snap, &error)) << error;

  const RecoveryPlan plan = BuildRecoveryPlan(dir.path());
  ASSERT_TRUE(plan.snapshot.has_value());
  EXPECT_EQ(plan.snapshot->lsn, 6u);
  ASSERT_EQ(plan.tail.size(), 4u);
  EXPECT_EQ(plan.tail.front().lsn, 7u);
  EXPECT_EQ(plan.tail.back().lsn, 10u);
  EXPECT_EQ(plan.next_lsn, 11u);
  EXPECT_FALSE(plan.truncated) << plan.reason;
}

TEST(PersistTest, RecoveryPlanColdStartIsEmpty) {
  TempDir dir("plan_cold");
  const RecoveryPlan plan = BuildRecoveryPlan(dir.path());
  EXPECT_FALSE(plan.snapshot.has_value());
  EXPECT_TRUE(plan.tail.empty());
  EXPECT_EQ(plan.next_lsn, 1u);
  EXPECT_FALSE(plan.truncated);
}

TEST(PersistTest, RecoveryPlanDropsAnUnreachableTail) {
  // The newest snapshot fell back to LSN 3 (say the LSN-8 one was corrupt)
  // but the WAL only starts at 6: records 6..8 cannot be replayed on top
  // of state-as-of-3 without the missing 4..5, so they must be dropped.
  TempDir dir("plan_gap");
  std::string error;
  WalOptions options;
  options.next_lsn = 6;
  auto wal = WalWriter::Open(dir.path(), options, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (int i = 0; i < 3; ++i) wal->Append(1, {static_cast<std::uint8_t>(i)});
  wal.reset();
  SnapshotData snap;
  snap.lsn = 3;
  snap.payload = {0xBB};
  ASSERT_TRUE(WriteSnapshot(dir.path(), snap, &error)) << error;

  const RecoveryPlan plan = BuildRecoveryPlan(dir.path());
  ASSERT_TRUE(plan.snapshot.has_value());
  EXPECT_EQ(plan.snapshot->lsn, 3u);
  EXPECT_TRUE(plan.tail.empty());
  EXPECT_TRUE(plan.truncated);
  EXPECT_EQ(plan.next_lsn, 4u);
}

}  // namespace
}  // namespace netbatch::persist

// --- daemon crash/restart drills --------------------------------------------

namespace netbatch::service {
namespace {

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

// A daemon running on its own thread for the duration of one scope. Its
// destructor stops the daemon WITHOUT checkpointing — exactly a crash as
// far as the durability layer is concerned: recovery sees whatever the WAL
// and the last (possibly absent) checkpoint hold, nothing more.
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
      "/tmp/nb_persist_test_" + std::to_string(::getpid()) + "_" + name +
      ".sock";
  ::unlink(path.c_str());
  return path;
}

DaemonOptions PersistOptions(const std::string& socket_path,
                             const std::string& data_dir) {
  DaemonOptions options;
  options.socket_path = socket_path;
  options.time_scale = 1000;
  options.auto_complete = false;  // tests drive completion explicitly
  options.data_dir = data_dir;
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

  SubmitResponse Submit(std::uint64_t request_id,
                        const workload::JobSpec& spec) {
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

  // Empty-payload admin op (kDrain, kCheckpoint) returning its status.
  Status AdminOp(Opcode opcode, std::uint64_t request_id) {
    EXPECT_TRUE(Send(opcode, request_id, {}));
    Frame frame;
    if (!Recv(frame)) {
      ADD_FAILURE() << "connection closed awaiting admin response";
      return Status::kBadRequest;
    }
    EXPECT_EQ(frame.header.request_id, request_id);
    WireReader r(frame.payload);
    return static_cast<Status>(r.U32());
  }

  // The merged kSnapshot payload minus its leading `now` ticks, which are
  // wall-clock dependent and legitimately differ across a restart. What
  // remains — started/completed/rejected/preemption/reschedule counters and
  // per-pool occupancy — must be bit-identical after recovery.
  std::vector<std::uint8_t> SnapshotBody(std::uint64_t request_id) {
    EXPECT_TRUE(Send(Opcode::kSnapshot, request_id, {}));
    Frame frame;
    if (!Recv(frame)) {
      ADD_FAILURE() << "connection closed awaiting snapshot response";
      return {};
    }
    EXPECT_EQ(frame.header.request_id, request_id);
    if (frame.payload.size() < 8) {
      ADD_FAILURE() << "short snapshot payload";
      return {};
    }
    return std::vector<std::uint8_t>(frame.payload.begin() + 8,
                                     frame.payload.end());
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

std::map<std::uint64_t, Client::JobOpResult> QueryAll(Client& client,
                                                      std::uint64_t max_id,
                                                      std::uint64_t& rid) {
  std::map<std::uint64_t, Client::JobOpResult> results;
  for (std::uint64_t id = 1; id <= max_id; ++id) {
    results[id] = client.JobOp(Opcode::kQueryJob, rid++, id);
  }
  return results;
}

void ExpectSameViews(
    const std::map<std::uint64_t, Client::JobOpResult>& before,
    const std::map<std::uint64_t, Client::JobOpResult>& after) {
  ASSERT_EQ(before.size(), after.size());
  for (const auto& [id, want] : before) {
    const Client::JobOpResult& got = after.at(id);
    EXPECT_EQ(static_cast<std::uint32_t>(got.status),
              static_cast<std::uint32_t>(want.status))
        << "job " << id;
    EXPECT_EQ(got.state, want.state) << "job " << id;
    EXPECT_EQ(got.pool, want.pool) << "job " << id;
    EXPECT_EQ(got.machine, want.machine) << "job " << id;
  }
}

// The central acceptance drill: run a workload with one of every mutation
// the WAL must reproduce (submits, a suspend, a complete, a kill, a machine
// failure), crash without a checkpoint, restart over the same data dir, and
// require the recovered daemon to be indistinguishable from the pre-crash
// one on everything it acked.
void RunCrashRestartDrill(std::uint32_t pools, std::uint32_t threads,
                          const std::string& name) {
  TempDir data(name + "_data");
  const std::string path = TestSocketPath(name);
  const cluster::ClusterConfig config = SmallCluster(pools, 2, 4);
  DaemonOptions options = PersistOptions(path, data.path());
  options.threads = threads;
  const std::uint64_t job_count = 4 * pools;

  std::map<std::uint64_t, Client::JobOpResult> before;
  std::vector<std::uint8_t> snapshot_before;
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1;
    for (std::uint64_t id = 1; id <= job_count; ++id) {
      const SubmitResponse response = client.Submit(
          rid++, MakeSpec(id, {PoolId(static_cast<std::uint32_t>(
                              (id - 1) % pools))}));
      EXPECT_TRUE(response.status == Status::kOk ||
                  response.status == Status::kQueued)
          << "job " << id;
    }
    EXPECT_EQ(client.JobOp(Opcode::kSuspend, rid++, 1).status, Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kComplete, rid++, 2).status, Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kKill, rid++, 3).status, Status::kOk);
    EXPECT_EQ(client.MachineOp(Opcode::kFailMachine, rid++, 0, 0),
              Status::kOk);
    before = QueryAll(client, job_count, rid);
    snapshot_before = client.SnapshotBody(rid++);
  }  // crash: no checkpoint was ever written — recovery is pure WAL replay

  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1000;
    const auto after = QueryAll(client, job_count, rid);
    ExpectSameViews(before, after);
    EXPECT_EQ(client.SnapshotBody(rid++), snapshot_before);

    // Exactly-once: job 1 was acked (and is live, suspended) — its id is
    // still claimed after recovery, so a replayed client cannot double-run.
    EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
              Status::kBadRequest);
    // And the recovered daemon accepts genuinely new work.
    const SubmitResponse fresh =
        client.Submit(rid++, MakeSpec(900, {PoolId(0)}));
    EXPECT_TRUE(fresh.status == Status::kOk ||
                fresh.status == Status::kQueued);
  }
}

TEST(DaemonPersistTest, CrashRestartRecoversAckedStateSingleShard) {
  RunCrashRestartDrill(2, 1, "crash1");
}

TEST(DaemonPersistTest, CrashRestartRecoversAckedStateFourShards) {
  RunCrashRestartDrill(4, 4, "crash4");
}

// A restarted multi-shard daemon must not serve any session until every
// shard has replayed its log. Shard 1 gets a long WAL, shard 0 an empty
// one; the first request after the restart lands on shard 0 (the acceptor
// deals sessions round-robin from shard 0) while shard 1 would still be
// replaying. Serving early answered kUnknownJob for shard 1's acked job and
// let shard 0 admit a second copy of another.
TEST(DaemonPersistTest, RestartServesOnlyAfterEveryShardRecovered) {
  TempDir data("barrier_data");
  const std::string path = TestSocketPath("barrier");
  const cluster::ClusterConfig config = SmallCluster(2, 2, 4);
  DaemonOptions options = PersistOptions(path, data.path());
  options.threads = 2;
  constexpr std::uint64_t kJobs = 20000;
  constexpr std::uint64_t kBatch = 256;

  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    // Pipelined batches, all into pool 1 (shard 1): one WAL record each.
    for (std::uint64_t base = 1; base <= kJobs; base += kBatch) {
      const std::uint64_t end = std::min(base + kBatch, kJobs + 1);
      for (std::uint64_t id = base; id < end; ++id) {
        std::vector<std::uint8_t> payload;
        EncodeJobSpec(MakeSpec(id, {PoolId(1)}), payload);
        ASSERT_TRUE(client.Send(Opcode::kSubmit, id, payload));
      }
      for (std::uint64_t id = base; id < end; ++id) {
        Frame frame;
        ASSERT_TRUE(client.Recv(frame));
        SubmitResponse response;
        ASSERT_TRUE(DecodeSubmitResponse(frame.payload, response));
        ASSERT_TRUE(response.status == Status::kOk ||
                    response.status == Status::kQueued);
      }
    }
  }  // crash: recovery replays all kJobs records on shard 1

  RunningDaemon daemon(config, options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  // Both requests leave at once, before any response can arrive.
  std::vector<std::uint8_t> query;
  WireWriter(query).U64(1);
  ASSERT_TRUE(client.Send(Opcode::kQueryJob, 1, query));
  std::vector<std::uint8_t> resubmit;
  EncodeJobSpec(MakeSpec(2, {PoolId(0)}), resubmit);
  ASSERT_TRUE(client.Send(Opcode::kSubmit, 2, resubmit));
  for (int i = 0; i < 2; ++i) {
    Frame frame;
    ASSERT_TRUE(client.Recv(frame));
    WireReader r(frame.payload);
    const auto status = static_cast<Status>(r.U32());
    if (frame.header.request_id == 1) {
      EXPECT_EQ(static_cast<std::uint32_t>(status),
                static_cast<std::uint32_t>(Status::kOk))
          << "acked job 1 unknown right after restart";
    } else {
      EXPECT_EQ(static_cast<std::uint32_t>(status),
                static_cast<std::uint32_t>(Status::kBadRequest))
          << "acked job 2 admitted a second time on another shard";
    }
  }
}

TEST(DaemonPersistTest, CheckpointTruncatesWalAndRestartReplaysOnlyTheTail) {
  TempDir data("ckpt_data");
  const std::string path = TestSocketPath("ckpt");
  const cluster::ClusterConfig config = SmallCluster(1, 2, 4);
  const DaemonOptions options = PersistOptions(path, data.path());
  const std::string shard0 = data.path() + "/shard-0";

  std::map<std::uint64_t, Client::JobOpResult> before;
  std::vector<std::uint8_t> snapshot_before;
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1;
    for (std::uint64_t id = 1; id <= 5; ++id) {
      EXPECT_EQ(client.Submit(rid++, MakeSpec(id, {PoolId(0)})).status,
                Status::kOk);
    }
    EXPECT_EQ(client.AdminOp(Opcode::kCheckpoint, rid++), Status::kOk);
    // The 5 submits are LSNs 1..5; the checkpoint covered them, so the WAL
    // rotated to a fresh segment starting at 6 and a snapshot exists.
    const auto segments = persist::ListWalSegments(shard0);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments.front().first, 6u);
    const auto snap = persist::LoadNewestSnapshot(shard0);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->lsn, 5u);
    // More work after the checkpoint lands in the WAL tail only.
    for (std::uint64_t id = 6; id <= 8; ++id) {
      EXPECT_EQ(client.Submit(rid++, MakeSpec(id, {PoolId(0)})).status,
                Status::kOk);
    }
    EXPECT_EQ(client.JobOp(Opcode::kSuspend, rid++, 6).status, Status::kOk);
    before = QueryAll(client, 8, rid);
    snapshot_before = client.SnapshotBody(rid++);
  }

  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1000;
    const auto after = QueryAll(client, 8, rid);
    ExpectSameViews(before, after);
    EXPECT_EQ(client.SnapshotBody(rid++), snapshot_before);
  }
}

TEST(DaemonPersistTest, CheckpointGatherCoversEveryShard) {
  TempDir data("ckpt4_data");
  const std::string path = TestSocketPath("ckpt4");
  const cluster::ClusterConfig config = SmallCluster(4, 2, 4);
  DaemonOptions options = PersistOptions(path, data.path());
  options.threads = 4;

  RunningDaemon daemon(config, options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  std::uint64_t rid = 1;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const SubmitResponse response = client.Submit(
        rid++,
        MakeSpec(id, {PoolId(static_cast<std::uint32_t>((id - 1) % 4))}));
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kQueued);
  }
  // kOk is only acked once every shard's snapshot is durably on disk.
  EXPECT_EQ(client.AdminOp(Opcode::kCheckpoint, rid++), Status::kOk);
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(persist::LoadNewestSnapshot(data.path() + "/shard-" +
                                            std::to_string(s))
                    .has_value())
        << "shard " << s;
  }
}

TEST(DaemonPersistTest, DrainFlushesWalAndWritesFinalCheckpoint) {
  TempDir data("drain_data");
  const std::string path = TestSocketPath("drain");
  const DaemonOptions options = PersistOptions(path, data.path());

  RunningDaemon daemon(SmallCluster(1, 2, 4), options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  std::uint64_t rid = 1;
  EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
            Status::kOk);
  EXPECT_EQ(client.Submit(rid++, MakeSpec(2, {PoolId(0)})).status,
            Status::kOk);

  EXPECT_EQ(client.AdminOp(Opcode::kDrain, rid++), Status::kOk);
  // Drain wrote a final checkpoint covering everything acked so far...
  const auto snap = persist::LoadNewestSnapshot(data.path() + "/shard-0");
  ASSERT_TRUE(snap.has_value());
  EXPECT_GE(snap->lsn, 2u);
  // ...and refuses new work from then on.
  EXPECT_EQ(client.Submit(rid++, MakeSpec(3, {PoolId(0)})).status,
            Status::kDraining);
}

TEST(DaemonPersistTest, CheckpointWithoutDataDirIsBadState) {
  const std::string path = TestSocketPath("nodir");
  DaemonOptions options;
  options.socket_path = path;
  options.time_scale = 1000;
  options.auto_complete = false;

  RunningDaemon daemon(SmallCluster(1, 1, 4), options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.AdminOp(Opcode::kCheckpoint, 1), Status::kBadState);
}

TEST(DaemonPersistTest, TornWalTailLosesOnlyTheTornRecord) {
  TempDir data("torn_data");
  const std::string path = TestSocketPath("torn");
  const cluster::ClusterConfig config = SmallCluster(1, 2, 4);
  const DaemonOptions options = PersistOptions(path, data.path());
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1;
    for (std::uint64_t id = 1; id <= 6; ++id) {
      EXPECT_EQ(client.Submit(rid++, MakeSpec(id, {PoolId(0)})).status,
                Status::kOk);
    }
  }
  // Tear the last record (job 6's submit): its final bytes never hit disk.
  const auto segments = persist::ListWalSegments(data.path() + "/shard-0");
  ASSERT_EQ(segments.size(), 1u);
  ChopTail(segments.front().second, 3);

  RunningDaemon daemon(config, options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  std::uint64_t rid = 100;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(client.JobOp(Opcode::kQueryJob, rid++, id).status, Status::kOk)
        << "job " << id;
  }
  // Recovery stopped at the last valid LSN: the torn job is simply gone.
  EXPECT_EQ(client.JobOp(Opcode::kQueryJob, rid++, 6).status,
            Status::kUnknownJob);
  // The torn bytes were truncated and the id freed — it can be resubmitted.
  EXPECT_EQ(client.Submit(rid++, MakeSpec(6, {PoolId(0)})).status,
            Status::kOk);
}

TEST(DaemonPersistTest, TrailingWalGarbageIsDiscardedOnRestart) {
  TempDir data("garbage_data");
  const std::string path = TestSocketPath("garbage");
  const cluster::ClusterConfig config = SmallCluster(1, 2, 4);
  const DaemonOptions options = PersistOptions(path, data.path());
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1;
    for (std::uint64_t id = 1; id <= 6; ++id) {
      EXPECT_EQ(client.Submit(rid++, MakeSpec(id, {PoolId(0)})).status,
                Status::kOk);
    }
  }
  // Junk after the last record — as left by a crash mid-append where the
  // header landed but meant nothing. Every acked record must survive it.
  const auto segments = persist::ListWalSegments(data.path() + "/shard-0");
  ASSERT_EQ(segments.size(), 1u);
  AppendGarbage(segments.front().second, 64);

  RunningDaemon daemon(config, options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  std::uint64_t rid = 100;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    EXPECT_EQ(client.JobOp(Opcode::kQueryJob, rid++, id).status, Status::kOk)
        << "job " << id;
  }
  // The reopened WAL keeps accepting appends past the trimmed garbage.
  EXPECT_EQ(client.Submit(rid++, MakeSpec(7, {PoolId(0)})).status,
            Status::kOk);
}

TEST(DaemonPersistTest, ResubmitOfReclaimedIdSurvivesCrash) {
  // Live, a killed job is reclaimed (its id freed) before the client's next
  // frame is handled, so a resubmit of the same id is acked as a fresh job.
  // Replay must reproduce that reclaim from the WAL's kReclaim record —
  // a replay without it sees the terminal predecessor still in the table
  // and drops the acked resubmit as a "duplicate submit".
  TempDir data("resubmit_data");
  const std::string path = TestSocketPath("resubmit");
  const cluster::ClusterConfig config = SmallCluster(1, 2, 4);
  const DaemonOptions options = PersistOptions(path, data.path());

  std::map<std::uint64_t, Client::JobOpResult> before;
  std::vector<std::uint8_t> snapshot_before;
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1;
    EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
              Status::kOk);
    EXPECT_EQ(client.Submit(rid++, MakeSpec(2, {PoolId(0)})).status,
              Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kKill, rid++, 1).status, Status::kOk);
    // The kill queued job 1 for reclamation; the round woken by this query
    // reclaims it before answering, so the id reads as gone...
    EXPECT_EQ(client.JobOp(Opcode::kQueryJob, rid++, 1).status,
              Status::kUnknownJob);
    // ...and is accepted again. This ack is the one a reclaim-blind replay
    // loses.
    EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
              Status::kOk);
    // Mutate the second incarnation so replay must act on it, not merely
    // re-admit it.
    EXPECT_EQ(client.JobOp(Opcode::kSuspend, rid++, 1).status, Status::kOk);
    before = QueryAll(client, 2, rid);
    snapshot_before = client.SnapshotBody(rid++);
  }  // crash: no checkpoint — recovery replays submit, kill, reclaim, submit

  RunningDaemon daemon(config, options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  std::uint64_t rid = 1000;
  const auto after = QueryAll(client, 2, rid);
  ExpectSameViews(before, after);
  EXPECT_EQ(client.SnapshotBody(rid++), snapshot_before);
  // The recovered second incarnation is live (suspended): its id is claimed.
  EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
            Status::kBadRequest);
}

TEST(DaemonPersistTest, CheckpointAfterReclaimRestoresFreeSlotFloors) {
  // A checkpoint taken after a reclaim compacts the dead slot away, but its
  // generation floor must ride the snapshot (core state v2's trailing
  // section): the post-checkpoint WAL re-admits the freed id into that very
  // slot, and every stamp it logs assumes the floor the live run observed.
  TempDir data("floors_data");
  const std::string path = TestSocketPath("floors");
  const cluster::ClusterConfig config = SmallCluster(1, 2, 4);
  const DaemonOptions options = PersistOptions(path, data.path());

  std::map<std::uint64_t, Client::JobOpResult> before;
  std::vector<std::uint8_t> snapshot_before;
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1;
    EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
              Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kKill, rid++, 1).status, Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kQueryJob, rid++, 1).status,
              Status::kUnknownJob);
    EXPECT_EQ(client.AdminOp(Opcode::kCheckpoint, rid++), Status::kOk);
    // Post-snapshot slot reuse: replay lands this in the restored free slot.
    EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
              Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kSuspend, rid++, 1).status, Status::kOk);
    before = QueryAll(client, 1, rid);
    snapshot_before = client.SnapshotBody(rid++);
  }  // crash: restore the snapshot, replay the reuse on top of it

  std::map<std::uint64_t, Client::JobOpResult> before2;
  std::vector<std::uint8_t> snapshot_before2;
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    std::uint64_t rid = 1000;
    const auto after = QueryAll(client, 1, rid);
    ExpectSameViews(before, after);
    EXPECT_EQ(client.SnapshotBody(rid++), snapshot_before);
    EXPECT_EQ(client.Submit(rid++, MakeSpec(1, {PoolId(0)})).status,
              Status::kBadRequest);

    // Round two: retire the recovered incarnation and checkpoint the
    // *restored* table — its export must carry the (now higher) floor —
    // then reuse the slot once more and crash again.
    EXPECT_EQ(client.JobOp(Opcode::kKill, rid++, 1).status, Status::kOk);
    EXPECT_EQ(client.JobOp(Opcode::kQueryJob, rid++, 1).status,
              Status::kUnknownJob);
    EXPECT_EQ(client.AdminOp(Opcode::kCheckpoint, rid++), Status::kOk);
    EXPECT_EQ(client.Submit(rid++, MakeSpec(2, {PoolId(0)})).status,
              Status::kOk);
    before2 = QueryAll(client, 2, rid);
    snapshot_before2 = client.SnapshotBody(rid++);
  }

  RunningDaemon daemon(config, options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  std::uint64_t rid = 2000;
  const auto after2 = QueryAll(client, 2, rid);
  ExpectSameViews(before2, after2);
  EXPECT_EQ(client.SnapshotBody(rid++), snapshot_before2);
}

TEST(DaemonPersistTest, TornShardMetaIsRewrittenOnRestart) {
  // shard.meta is written on every start; a crash mid-write leaves a torn
  // file. That must read as "rewrite it" — not as the fatal topology
  // mismatch, which would permanently brick an otherwise healthy data dir.
  TempDir data("meta_data");
  const std::string path = TestSocketPath("meta");
  const cluster::ClusterConfig config = SmallCluster(1, 2, 4);
  const DaemonOptions options = PersistOptions(path, data.path());
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.Submit(1, MakeSpec(1, {PoolId(0)})).status, Status::kOk);
  }
  // Tear the 20-byte meta mid-payload.
  ChopTail(data.path() + "/shard-0/shard.meta", 13);
  {
    RunningDaemon daemon(config, options);
    Client client(net::ConnectUnix(path));
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.JobOp(Opcode::kQueryJob, 100, 1).status, Status::kOk);
  }
  // The rewrite restored a whole file: a third start validates it cleanly
  // and still refuses nothing.
  RunningDaemon daemon(config, options);
  Client client(net::ConnectUnix(path));
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.JobOp(Opcode::kQueryJob, 200, 1).status, Status::kOk);
}

}  // namespace
}  // namespace netbatch::service
