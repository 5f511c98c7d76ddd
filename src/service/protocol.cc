#include "service/protocol.h"

#include <cstring>

namespace netbatch::service {

std::uint16_t WireReader::U16() {
  if (pos_ + 2 > size_) {
    ok_ = false;
    return 0;
  }
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::U32() {
  if (pos_ + 4 > size_) {
    ok_ = false;
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::U64() {
  if (pos_ + 8 > size_) {
    ok_ = false;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

void WireReader::Bytes(std::size_t len, std::vector<std::uint8_t>& out) {
  out.clear();
  if (len > size_ - pos_) {
    ok_ = false;
    return;
  }
  out.assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
}

void EncodeHeader(const FrameHeader& header, std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.U32(header.magic);
  w.U16(header.version);
  w.U16(header.opcode);
  w.U64(header.request_id);
  w.U32(header.payload_len);
}

void EncodeFrame(std::uint16_t opcode, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload,
                 std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = BeginFrame(opcode, request_id, out);
  out.insert(out.end(), payload.begin(), payload.end());
  EndFrame(frame_start, out);
}

std::size_t BeginFrame(std::uint16_t opcode, std::uint64_t request_id,
                       std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  FrameHeader header;
  header.opcode = opcode;
  header.request_id = request_id;
  EncodeHeader(header, out);
  return frame_start;
}

void EndFrame(std::size_t frame_start, std::vector<std::uint8_t>& out) {
  // payload_len is the header's last field.
  constexpr std::size_t kLenOffset = kFrameHeaderSize - 4;
  const auto len =
      static_cast<std::uint32_t>(out.size() - frame_start - kFrameHeaderSize);
  std::uint8_t* p = out.data() + frame_start + kLenOffset;
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(len >> (8 * i));
}

void EncodeJobSpec(const workload::JobSpec& spec,
                   std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.U64(spec.id.value());
  w.U64(spec.task.value());
  w.I64(spec.submit_time);
  w.I32(spec.priority);
  w.I32(spec.cores);
  w.I64(spec.memory_mb);
  w.I64(spec.runtime);
  w.I32(spec.owner);
  w.U32(static_cast<std::uint32_t>(spec.candidate_pools.size()));
  for (PoolId pool : spec.candidate_pools) w.U32(pool.value());
}

bool DecodeJobSpec(const std::vector<std::uint8_t>& payload,
                   workload::JobSpec& spec) {
  return DecodeJobSpec(payload.data(), payload.size(), spec);
}

bool DecodeJobSpec(const std::uint8_t* data, std::size_t size,
                   workload::JobSpec& spec) {
  WireReader r(data, size);
  spec.id = JobId(static_cast<JobId::ValueType>(r.U64()));
  spec.task = TaskId(static_cast<TaskId::ValueType>(r.U64()));
  spec.submit_time = r.I64();
  spec.priority = r.I32();
  spec.cores = r.I32();
  spec.memory_mb = r.I64();
  spec.runtime = r.I64();
  spec.owner = r.I32();
  const std::uint32_t pool_count = r.U32();
  if (!r.ok()) return false;
  // A pool list longer than the payload could even encode is a lie; cap
  // before allocating.
  if (pool_count > size / 4) return false;
  spec.candidate_pools.clear();
  spec.candidate_pools.reserve(pool_count);
  for (std::uint32_t i = 0; i < pool_count; ++i) {
    spec.candidate_pools.push_back(PoolId(r.U32()));
  }
  return r.exhausted();
}

void EncodeSubmitResponse(const SubmitResponse& r,
                          std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.U32(static_cast<std::uint32_t>(r.status));
  w.U64(r.job_id);
  w.U32(r.pool);
  w.U32(r.machine);
}

bool DecodeSubmitResponse(const std::vector<std::uint8_t>& payload,
                          SubmitResponse& r) {
  WireReader reader(payload);
  r.status = static_cast<Status>(reader.U32());
  r.job_id = reader.U64();
  r.pool = reader.U32();
  r.machine = reader.U32();
  return reader.exhausted();
}

void EncodeMachineOpPayload(std::uint32_t pool, std::uint32_t machine,
                            std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.U32(pool);
  w.U32(machine);
}

bool DecodeMachineOpPayload(const std::vector<std::uint8_t>& payload,
                            std::uint32_t& pool, std::uint32_t& machine) {
  WireReader r(payload);
  pool = r.U32();
  machine = r.U32();
  return r.exhausted();
}

bool FrameDecoder::Fail(const std::string& why) {
  failed_ = true;
  error_ = why;
  buffer_.clear();
  return false;
}

bool FrameDecoder::Feed(const std::uint8_t* data, std::size_t size,
                        std::vector<Frame>& frames) {
  if (failed_) return false;
  buffer_.insert(buffer_.end(), data, data + size);
  std::size_t pos = 0;
  while (buffer_.size() - pos >= kFrameHeaderSize) {
    WireReader r(buffer_.data() + pos, kFrameHeaderSize);
    FrameHeader header;
    header.magic = r.U32();
    header.version = r.U16();
    header.opcode = r.U16();
    header.request_id = r.U64();
    header.payload_len = r.U32();
    if (header.magic != kMagic) return Fail("bad frame magic");
    if (header.version != kProtocolVersion) {
      return Fail("unsupported protocol version");
    }
    if (header.payload_len > max_payload_) return Fail("payload too large");
    if (buffer_.size() - pos - kFrameHeaderSize < header.payload_len) {
      break;  // payload still in flight
    }
    Frame frame;
    frame.header = header;
    const auto* payload_begin = buffer_.data() + pos + kFrameHeaderSize;
    frame.payload.assign(payload_begin, payload_begin + header.payload_len);
    frames.push_back(std::move(frame));
    pos += kFrameHeaderSize + header.payload_len;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

}  // namespace netbatch::service
