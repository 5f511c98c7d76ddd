// The netbatchd wire protocol: length-prefixed binary frames over a
// stream socket (unix-domain or TCP; the framing is transport-agnostic).
//
// Every frame is a fixed 20-byte little-endian header followed by an
// opcode-specific payload:
//
//   offset  size  field
//        0     4  magic        0x3150424e ("NBP1")
//        4     2  version      kProtocolVersion
//        6     2  opcode       Opcode; responses set kResponseBit
//        8     8  request_id   echoed verbatim in the response
//       16     4  payload_len  bytes following the header (<= kMaxPayload)
//
// Integers are little-endian, fixed width; job/pool/machine ids travel as
// the widths of their in-memory types (common/ids.h) except JobId, which
// widens to u64 on the wire so the protocol outlives a future id widening.
// Submit payloads mirror workload::JobSpec field for field.
//
// The protocol is strictly request/response per frame, but clients may
// pipeline: every request gets exactly one response echoing its
// request_id, so a client can keep hundreds of requests in flight (the
// load generator does exactly that). Responses are NOT guaranteed to
// arrive in request order — on a sharded daemon a request whose target
// pool or job lives on another event-loop shard is forwarded over a
// mailbox and its response overtakes or trails shard-local ones — so
// clients must match responses to requests by request_id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/job_spec.h"

namespace netbatch::service {

inline constexpr std::uint32_t kMagic = 0x3150424e;  // "NBP1" little-endian
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 20;
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
inline constexpr std::uint16_t kResponseBit = 0x8000;

enum class Opcode : std::uint16_t {
  kSubmit = 1,    // JobSpec -> SubmitResponse
  kComplete = 2,  // job id -> StatusResponse (report a running job done)
  kSuspend = 3,   // job id -> StatusResponse
  kResume = 4,    // job id -> StatusResponse
  kQueryJob = 5,  // job id -> QueryJobResponse
  kSnapshot = 6,  // (empty) -> SnapshotResponse (merged across shards)
  kStats = 7,     // (empty) -> counter/latency text (merged across shards)
  // Admin opcodes: live outage drills and maintenance against the service,
  // mirroring the simulator's failure-injection hooks.
  kFailMachine = 8,    // u32 pool, u32 machine -> StatusResponse
  kRepairMachine = 9,  // u32 pool, u32 machine -> StatusResponse
  kDrain = 10,         // (empty) -> StatusResponse; stop accepting new work
  kKill = 11,          // job id -> StatusResponse (terminate wherever parked)
  kCheckpoint = 12,    // (empty) -> StatusResponse; force a durable snapshot
};

enum class Status : std::uint32_t {
  kOk = 0,          // the operation took effect (submit: job started)
  kQueued = 1,      // submit only: job admitted, waiting in a pool queue
  kRejected = 2,    // submit only: no pool can ever run the job
  kUnknownJob = 3,  // the job id names nothing on this daemon
  kBadState = 4,    // op legal but the job is not in the required state
  kBadRequest = 5,  // malformed payload
  kDraining = 6,    // submit refused: the daemon is draining (kDrain)
};

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t opcode = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// --- little-endian scalar packing -------------------------------------------

// Appends fixed-width little-endian scalars to a byte buffer: one resize
// per value, then explicit byte stores, so the encoding is identical on any
// host (and compiles to a single store on a little-endian one).
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void U16(std::uint16_t v) { Put(v); }
  void U32(std::uint32_t v) { Put(v); }
  void U64(std::uint64_t v) { Put(v); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }

 private:
  template <typename T>
  void Put(T v) {
    const std::size_t at = out_->size();
    out_->resize(at + sizeof(T));
    std::uint8_t* p = out_->data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t>* out_;
};

// Reads fixed-width little-endian scalars from a payload. Never aborts:
// reading past the end sets ok() false and returns zeros, so a malformed
// client payload becomes a kBadRequest response, not a daemon crash.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  // Copies `len` raw bytes into `out` (replacing its contents); sets ok()
  // false and leaves `out` empty on truncation.
  void Bytes(std::size_t len, std::vector<std::uint8_t>& out);

  bool ok() const { return ok_; }
  // True when every payload byte was consumed (trailing garbage is a
  // malformed request).
  bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- frame and payload codecs -----------------------------------------------

void EncodeHeader(const FrameHeader& header, std::vector<std::uint8_t>& out);

// Appends a complete frame (header + payload) to `out`. The opcode is used
// verbatim — callers set kResponseBit for responses.
void EncodeFrame(std::uint16_t opcode, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload,
                 std::vector<std::uint8_t>& out);

// In-place frame encoding, for a payload built straight into `out`:
// BeginFrame appends a header with payload_len 0 and returns the frame's
// offset in `out`; the caller appends the payload; EndFrame patches
// payload_len to the bytes appended since. The result is byte-identical to
// EncodeFrame over the same payload, without the payload temporary.
std::size_t BeginFrame(std::uint16_t opcode, std::uint64_t request_id,
                       std::vector<std::uint8_t>& out);
void EndFrame(std::size_t frame_start, std::vector<std::uint8_t>& out);

void EncodeJobSpec(const workload::JobSpec& spec,
                   std::vector<std::uint8_t>& out);

// Decodes a Submit payload into `spec`; false on truncation, trailing
// bytes, or an oversized pool list. The pointer form decodes `size` bytes
// in place (a spec embedded in a larger record).
bool DecodeJobSpec(const std::vector<std::uint8_t>& payload,
                   workload::JobSpec& spec);
bool DecodeJobSpec(const std::uint8_t* data, std::size_t size,
                   workload::JobSpec& spec);

struct SubmitResponse {
  Status status = Status::kBadRequest;
  std::uint64_t job_id = 0;
  std::uint32_t pool = 0;     // valid when status is kOk / kQueued
  std::uint32_t machine = 0;  // valid when status is kOk
};
void EncodeSubmitResponse(const SubmitResponse& r,
                          std::vector<std::uint8_t>& out);
bool DecodeSubmitResponse(const std::vector<std::uint8_t>& payload,
                          SubmitResponse& r);

// kFailMachine / kRepairMachine payload: the target machine's global pool
// id and its machine id within that pool.
void EncodeMachineOpPayload(std::uint32_t pool, std::uint32_t machine,
                            std::vector<std::uint8_t>& out);
bool DecodeMachineOpPayload(const std::vector<std::uint8_t>& payload,
                            std::uint32_t& pool, std::uint32_t& machine);

// --- incremental frame reassembly -------------------------------------------

// Reassembles frames from an arbitrary byte stream: feed whatever read()
// returned, get back every complete frame. Handles headers split across
// reads, payloads split across reads, and multiple frames per read. A
// protocol violation (bad magic/version, payload over the cap) poisons the
// decoder — the session should be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  // Appends `size` bytes and moves every now-complete frame into `frames`.
  // Returns false (permanently) after a protocol violation.
  bool Feed(const std::uint8_t* data, std::size_t size,
            std::vector<Frame>& frames);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  // Bytes of a partial frame awaiting more input. A nonzero value at EOF
  // means the peer truncated a frame mid-send.
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  bool Fail(const std::string& why);

  std::uint32_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace netbatch::service
