#include "persist/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/log.h"

namespace netbatch::persist {

namespace {

void PutU16(std::uint16_t v, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint32_t v, std::uint8_t* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void PutU64(std::uint64_t v, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t GetU16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

std::string SegmentPath(const std::string& dir, std::uint64_t start_lsn) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return dir + "/" + name;
}

// Parses "wal-<016x>.log"; returns false for anything else in the dir.
bool ParseSegmentName(const std::string& name, std::uint64_t& start_lsn) {
  if (name.size() != 4 + 16 + 4) return false;
  if (name.compare(0, 4, "wal-") != 0) return false;
  if (name.compare(20, 4, ".log") != 0) return false;
  std::uint64_t lsn = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    lsn = (lsn << 4) | digit;
  }
  start_lsn = lsn;
  return true;
}

void WriteAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0 && errno == EINTR) continue;
    NETBATCH_CHECK(n > 0, "WAL write failed: " +
                              std::string(std::strerror(errno)));
    written += static_cast<std::size_t>(n);
  }
}

void FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// One record parsed from a segment. `valid_end` advances past each accepted
// record so callers know where the valid prefix of the file ends.
struct SegmentCursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t offset = 0;
};

enum class ParseStatus { kRecord, kEndOfFile, kCorrupt };

ParseStatus ParseRecord(SegmentCursor& cursor, WalRecord& out,
                        std::string& reason) {
  if (cursor.offset == cursor.size) return ParseStatus::kEndOfFile;
  if (cursor.size - cursor.offset < kWalHeaderBytes) {
    reason = "torn record header";
    return ParseStatus::kCorrupt;
  }
  const std::uint8_t* h = cursor.data + cursor.offset;
  if (GetU32(h) != kWalMagic) {
    reason = "bad record magic";
    return ParseStatus::kCorrupt;
  }
  const std::uint32_t payload_len = GetU32(h + 4);
  if (payload_len > kMaxWalPayloadBytes) {
    reason = "oversized record payload";
    return ParseStatus::kCorrupt;
  }
  if (cursor.size - cursor.offset - kWalHeaderBytes < payload_len) {
    reason = "torn record payload";
    return ParseStatus::kCorrupt;
  }
  const std::uint64_t lsn = GetU64(h + 8);
  const std::uint16_t type = GetU16(h + 16);
  const std::uint16_t pad = GetU16(h + 18);
  const std::uint32_t stored_crc = GetU32(h + 20);
  // CRC covers [lsn | type | pad | payload] — the 12 header bytes starting
  // at the LSN, then the payload.
  std::uint32_t crc = ExtendCrc32c(0, h + 8, 12);
  crc = ExtendCrc32c(crc, h + kWalHeaderBytes, payload_len);
  if (pad != 0 || crc != stored_crc) {
    reason = "record checksum mismatch";
    return ParseStatus::kCorrupt;
  }
  out.lsn = lsn;
  out.type = type;
  out.payload.assign(h + kWalHeaderBytes,
                     h + kWalHeaderBytes + payload_len);
  cursor.offset += kWalHeaderBytes + payload_len;
  return ParseStatus::kRecord;
}

bool ReadFile(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  // Size the buffer once from fstat (one spare byte, so the read that
  // sees EOF needs no room) and read straight into it. A file that grew
  // since the fstat doubles the buffer until EOF.
  struct stat st;
  std::size_t capacity = std::size_t{1} << 16;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    capacity = static_cast<std::size_t>(st.st_size) + 1;
  }
  out.resize(capacity);
  std::size_t size = 0;
  for (;;) {
    if (size == out.size()) out.resize(2 * out.size());
    const ssize_t n = ::read(fd, out.data() + size, out.size() - size);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      out.clear();
      return false;
    }
    if (n == 0) break;
    size += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(size);
  return true;
}

}  // namespace

std::vector<std::pair<std::uint64_t, std::string>> ListWalSegments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t start_lsn = 0;
    if (ParseSegmentName(entry.path().filename().string(), start_lsn)) {
      segments.emplace_back(start_lsn, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

WalWriter::WalWriter(std::string dir, int fd, const WalOptions& options)
    : dir_(std::move(dir)),
      fd_(fd),
      next_lsn_(options.next_lsn),
      fsync_every_(options.fsync_every),
      fsync_interval_ms_(options.fsync_interval_ms),
      last_sync_(std::chrono::steady_clock::now()) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (!buffer_.empty()) WriteAll(fd_, buffer_.data(), buffer_.size());
    if (unsynced_ > 0 || buffered_records_ > 0) ::fdatasync(fd_);
    ::close(fd_);
  }
}

std::unique_ptr<WalWriter> WalWriter::Open(const std::string& dir,
                                           const WalOptions& options,
                                           std::string* error) {
  NETBATCH_CHECK(options.next_lsn >= 1, "WAL LSNs start at 1");
  const auto segments = ListWalSegments(dir);

  // Segments that start at or past next_lsn hold only records recovery
  // rejected (torn tail, or past a corruption point) — remove them so a
  // later scan cannot resurrect them.
  std::string newest_keep;
  for (const auto& [start_lsn, path] : segments) {
    if (start_lsn >= options.next_lsn) {
      ::unlink(path.c_str());
    } else {
      newest_keep = path;  // segments are sorted: last assignment wins
    }
  }

  // Physically truncate a torn tail in the newest surviving segment: parse
  // its valid prefix up to next_lsn - 1 and cut everything after it.
  if (!newest_keep.empty()) {
    std::vector<std::uint8_t> bytes;
    if (!ReadFile(newest_keep, bytes)) {
      if (error) *error = "cannot read WAL segment " + newest_keep;
      return nullptr;
    }
    SegmentCursor cursor{bytes.data(), bytes.size()};
    std::size_t valid_end = 0;
    WalRecord record;
    std::string reason;
    while (ParseRecord(cursor, record, reason) == ParseStatus::kRecord &&
           record.lsn < options.next_lsn) {
      valid_end = cursor.offset;
    }
    if (valid_end < bytes.size()) {
      if (::truncate(newest_keep.c_str(), static_cast<off_t>(valid_end)) !=
          0) {
        if (error) *error = "cannot truncate WAL segment " + newest_keep;
        return nullptr;
      }
      // The truncation itself must be durable before any new segment takes
      // acked records: if power is lost with the shrunken length still only
      // in memory, the torn bytes resurrect, the next scan stops at them,
      // and every durably-synced record in newer segments is discarded.
      const int tfd = ::open(newest_keep.c_str(), O_WRONLY);
      const bool trunc_synced = tfd >= 0 && ::fsync(tfd) == 0;
      if (tfd >= 0) ::close(tfd);
      if (!trunc_synced) {
        if (error) {
          *error = "cannot fsync truncated WAL segment " + newest_keep;
        }
        return nullptr;
      }
    }
  }

  const std::string path = SegmentPath(dir, options.next_lsn);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error) {
      *error = "cannot create WAL segment " + path + ": " +
               std::strerror(errno);
    }
    return nullptr;
  }
  FsyncDir(dir);
  return std::unique_ptr<WalWriter>(new WalWriter(dir, fd, options));
}

std::uint64_t WalWriter::Append(std::uint16_t type,
                                const std::vector<std::uint8_t>& payload) {
  NETBATCH_CHECK(payload.size() <= kMaxWalPayloadBytes,
                 "WAL payload exceeds the record size cap");
  const std::uint64_t lsn = next_lsn_++;
  const std::size_t base = buffer_.size();
  buffer_.resize(base + kWalHeaderBytes + payload.size());
  std::uint8_t* h = buffer_.data() + base;
  PutU32(kWalMagic, h);
  PutU32(static_cast<std::uint32_t>(payload.size()), h + 4);
  PutU64(lsn, h + 8);
  PutU16(type, h + 16);
  PutU16(0, h + 18);
  if (!payload.empty()) {
    std::memcpy(h + kWalHeaderBytes, payload.data(), payload.size());
  }
  std::uint32_t crc = ExtendCrc32c(0, h + 8, 12);
  crc = ExtendCrc32c(crc, payload.data(), payload.size());
  PutU32(crc, h + 20);
  bytes_appended_ += kWalHeaderBytes + payload.size();
  ++records_appended_;
  ++buffered_records_;
  return lsn;
}

void WalWriter::Flush() {
  if (!buffer_.empty()) {
    WriteAll(fd_, buffer_.data(), buffer_.size());
    buffer_.clear();
    unsynced_ += static_cast<std::uint32_t>(buffered_records_);
    buffered_records_ = 0;
  }
  if (unsynced_ == 0) return;
  if (fsync_every_ != 0 && unsynced_ >= fsync_every_) {
    DoSync();
    return;
  }
  if (fsync_interval_ms_ != 0 &&
      std::chrono::steady_clock::now() - last_sync_ >=
          std::chrono::milliseconds(fsync_interval_ms_)) {
    DoSync();
  }
}

void WalWriter::Sync() {
  if (!buffer_.empty()) {
    WriteAll(fd_, buffer_.data(), buffer_.size());
    buffer_.clear();
    unsynced_ += static_cast<std::uint32_t>(buffered_records_);
    buffered_records_ = 0;
  }
  if (unsynced_ == 0) return;
  DoSync();
}

void WalWriter::DoSync() {
  NETBATCH_CHECK(::fdatasync(fd_) == 0,
                 "WAL fdatasync failed: " + std::string(std::strerror(errno)));
  unsynced_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
}

void WalWriter::StartSegmentAndTruncate(std::uint64_t snapshot_lsn) {
  NETBATCH_CHECK(snapshot_lsn == last_lsn(),
                 "snapshot must cover the whole WAL before truncation");
  Sync();
  ::close(fd_);
  fd_ = -1;
  OpenSegment();
  // Every older segment only holds records <= snapshot_lsn — covered.
  for (const auto& [start_lsn, path] : ListWalSegments(dir_)) {
    if (start_lsn < next_lsn_) ::unlink(path.c_str());
  }
  FsyncDir(dir_);
}

void WalWriter::OpenSegment() {
  const std::string path = SegmentPath(dir_, next_lsn_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  NETBATCH_CHECK(fd_ >= 0, "cannot create WAL segment " + path + ": " +
                               std::strerror(errno));
  unsynced_ = 0;
}

WalScanResult ScanWal(const std::string& dir, std::uint64_t after_lsn) {
  WalScanResult result;
  result.next_lsn = after_lsn + 1;
  std::uint64_t expected = 0;  // 0 = first record defines the chain start

  for (const auto& [start_lsn, path] : ListWalSegments(dir)) {
    std::vector<std::uint8_t> bytes;
    if (!ReadFile(path, bytes)) {
      result.truncated = true;
      result.reason = "unreadable segment " + path;
      return result;
    }
    if (bytes.empty()) continue;  // fresh segment, nothing appended yet
    SegmentCursor cursor{bytes.data(), bytes.size()};
    WalRecord record;
    std::string reason;
    bool first_in_segment = true;
    for (;;) {
      const ParseStatus status = ParseRecord(cursor, record, reason);
      if (status == ParseStatus::kEndOfFile) break;
      if (status == ParseStatus::kCorrupt) {
        result.truncated = true;
        result.reason = reason + " in " + path;
        return result;
      }
      if (first_in_segment && record.lsn != start_lsn) {
        result.truncated = true;
        result.reason = "segment name / first LSN mismatch in " + path;
        return result;
      }
      first_in_segment = false;
      if (expected != 0 && record.lsn != expected) {
        result.truncated = true;
        result.reason = "LSN discontinuity in " + path;
        return result;
      }
      expected = record.lsn + 1;
      if (record.lsn > after_lsn) {
        result.records.push_back(std::move(record));
        record = WalRecord{};
      }
      result.next_lsn = expected;
    }
  }
  if (result.next_lsn < after_lsn + 1) result.next_lsn = after_lsn + 1;
  return result;
}

}  // namespace netbatch::persist
