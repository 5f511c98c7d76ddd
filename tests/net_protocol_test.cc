// Tests for the netbatchd wire protocol (service/protocol.h) and the
// log-bucketed latency histogram behind its latency reporting
// (common/histogram.h).
//
// The FrameDecoder tests exercise exactly the stream pathologies a
// unix-socket server sees: headers split across read() calls, payloads
// split across read() calls, several frames arriving in one read,
// oversized payloads, garbage magic, and a peer that truncates a frame at
// EOF. Interleaving two sessions through two decoders must keep their
// streams independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "service/protocol.h"
#include "workload/job_spec.h"

namespace netbatch::service {
namespace {

workload::JobSpec MakeSpec(std::uint32_t id) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.task = TaskId(id * 7);
  spec.submit_time = 1234;
  spec.priority = workload::kHighPriority;
  spec.cores = 4;
  spec.memory_mb = 2048;
  spec.runtime = MinutesToTicks(90);
  spec.owner = 3;
  spec.candidate_pools = {PoolId(1), PoolId(4), PoolId(17)};
  return spec;
}

std::vector<std::uint8_t> MakeSubmitFrame(std::uint32_t id,
                                          std::uint64_t request_id) {
  std::vector<std::uint8_t> payload;
  EncodeJobSpec(MakeSpec(id), payload);
  std::vector<std::uint8_t> out;
  EncodeFrame(static_cast<std::uint16_t>(Opcode::kSubmit), request_id,
              payload, out);
  return out;
}

TEST(ProtocolTest, JobSpecRoundTripsThroughWire) {
  const workload::JobSpec spec = MakeSpec(42);
  std::vector<std::uint8_t> payload;
  EncodeJobSpec(spec, payload);

  workload::JobSpec decoded;
  ASSERT_TRUE(DecodeJobSpec(payload, decoded));
  EXPECT_EQ(decoded.id, spec.id);
  EXPECT_EQ(decoded.task, spec.task);
  EXPECT_EQ(decoded.submit_time, spec.submit_time);
  EXPECT_EQ(decoded.priority, spec.priority);
  EXPECT_EQ(decoded.cores, spec.cores);
  EXPECT_EQ(decoded.memory_mb, spec.memory_mb);
  EXPECT_EQ(decoded.runtime, spec.runtime);
  EXPECT_EQ(decoded.owner, spec.owner);
  EXPECT_EQ(decoded.candidate_pools, spec.candidate_pools);
}

TEST(ProtocolTest, DecodeJobSpecRejectsTruncationAndTrailingBytes) {
  std::vector<std::uint8_t> payload;
  EncodeJobSpec(MakeSpec(1), payload);

  workload::JobSpec decoded;
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeJobSpec(truncated, decoded));

  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeJobSpec(trailing, decoded));

  // A pool count that promises more entries than the payload could hold.
  std::vector<std::uint8_t> lying(payload.begin(), payload.end() - 12);
  lying[payload.size() - 16] = 0xff;  // pool_count low byte
  EXPECT_FALSE(DecodeJobSpec(lying, decoded));
}

TEST(ProtocolTest, SubmitResponseRoundTrips) {
  SubmitResponse response;
  response.status = Status::kOk;
  response.job_id = 0x1234567890ull;
  response.pool = 7;
  response.machine = 1234;
  std::vector<std::uint8_t> payload;
  EncodeSubmitResponse(response, payload);

  SubmitResponse decoded;
  ASSERT_TRUE(DecodeSubmitResponse(payload, decoded));
  EXPECT_EQ(decoded.status, Status::kOk);
  EXPECT_EQ(decoded.job_id, response.job_id);
  EXPECT_EQ(decoded.pool, response.pool);
  EXPECT_EQ(decoded.machine, response.machine);
}

TEST(ProtocolTest, MachineOpPayloadRoundTrips) {
  std::vector<std::uint8_t> payload;
  EncodeMachineOpPayload(7, 1234, payload);

  std::uint32_t pool = 0;
  std::uint32_t machine = 0;
  ASSERT_TRUE(DecodeMachineOpPayload(payload, pool, machine));
  EXPECT_EQ(pool, 7u);
  EXPECT_EQ(machine, 1234u);

  // Truncation and trailing garbage are both malformed.
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeMachineOpPayload(truncated, pool, machine));
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeMachineOpPayload(trailing, pool, machine));
}

TEST(ProtocolTest, WireReaderIsBoundsChecked) {
  const std::vector<std::uint8_t> two_bytes = {0xab, 0xcd};
  WireReader reader(two_bytes);
  EXPECT_EQ(reader.U16(), 0xcdab);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(reader.U32(), 0u);  // past the end: zeros, ok() drops
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.exhausted());
}

// --- wire-format golden bytes ------------------------------------------------
// Hard-coded little-endian bytes: the in-place encoders must reproduce the
// format byte for byte, not merely round-trip through their own decoder.

using Bytes = std::vector<std::uint8_t>;

TEST(WireGoldenTest, WireWriterEmitsLittleEndianBytes) {
  Bytes out = {0xaa};  // appends after existing content
  WireWriter w(out);
  w.U16(0xbeef);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I32(-2);
  w.I64(-2);
  const Bytes golden = {0xaa,                                            //
                        0xef, 0xbe,                                      //
                        0xef, 0xbe, 0xad, 0xde,                          //
                        0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  //
                        0xfe, 0xff, 0xff, 0xff,                          //
                        0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(out, golden);
}

// The 20-byte response header: magic "NBP1", version 1, opcode with the
// response bit, request id, payload_len.
Bytes GoldenHeader(std::uint8_t opcode, std::uint8_t request_id,
                   std::uint8_t payload_len) {
  return {0x4e, 0x42, 0x50, 0x31, 0x01, 0x00, opcode, 0x80,
          request_id, 0, 0, 0, 0, 0, 0, 0,
          payload_len, 0, 0, 0};
}

Bytes Concat(Bytes a, const Bytes& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Encodes one response in place after `prefix` (a frame already batched
// for the session, as the daemon's round buffer holds), checks it against
// the golden bytes and against EncodeFrame over a separate payload.
template <typename EncodePayload>
void ExpectInPlaceFrame(Opcode opcode, std::uint64_t request_id,
                        EncodePayload encode_payload, const Bytes& golden) {
  const Bytes prefix = MakeSubmitFrame(9, 99);
  Bytes out = prefix;
  const std::size_t start = BeginFrame(
      static_cast<std::uint16_t>(opcode) | kResponseBit, request_id, out);
  EXPECT_EQ(start, prefix.size());
  encode_payload(out);
  EndFrame(start, out);
  EXPECT_EQ(out, Concat(prefix, golden));

  Bytes payload;
  encode_payload(payload);
  Bytes framed;
  EncodeFrame(static_cast<std::uint16_t>(opcode) | kResponseBit, request_id,
              payload, framed);
  EXPECT_EQ(framed, golden);
}

TEST(WireGoldenTest, SubmitResponseFrameInPlace) {
  SubmitResponse response;
  response.status = Status::kQueued;
  response.job_id = 0x1122334455667788ull;
  response.pool = 7;
  response.machine = 0xa0b0c0d0u;
  const Bytes golden = Concat(
      GoldenHeader(0x01, 5, 20),
      {0x01, 0x00, 0x00, 0x00,                          // status kQueued
       0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // job id
       0x07, 0x00, 0x00, 0x00,                          // pool
       0xd0, 0xc0, 0xb0, 0xa0});                        // machine
  ExpectInPlaceFrame(
      Opcode::kSubmit, 5,
      [&](Bytes& payload) { EncodeSubmitResponse(response, payload); },
      golden);
}

TEST(WireGoldenTest, StatusResponseFrameInPlace) {
  const Bytes golden =
      Concat(GoldenHeader(0x08, 42, 4), {0x04, 0x00, 0x00, 0x00});
  ExpectInPlaceFrame(
      Opcode::kFailMachine, 42,
      [](Bytes& payload) {
        WireWriter(payload).U32(static_cast<std::uint32_t>(Status::kBadState));
      },
      golden);
}

TEST(WireGoldenTest, JobOpResponseFrameInPlace) {
  // kQueryJob answers status, state, pool, machine.
  const Bytes golden = Concat(GoldenHeader(0x05, 7, 16),
                              {0x00, 0x00, 0x00, 0x00,    // status kOk
                               0x02, 0x00, 0x00, 0x00,    // state
                               0x03, 0x00, 0x00, 0x00,    // pool
                               0x00, 0x01, 0x00, 0x00});  // machine
  ExpectInPlaceFrame(
      Opcode::kQueryJob, 7,
      [](Bytes& payload) {
        WireWriter w(payload);
        w.U32(static_cast<std::uint32_t>(Status::kOk));
        w.U32(2);
        w.U32(3);
        w.U32(0x100);
      },
      golden);
}

TEST(FrameDecoderTest, ReassemblesOneByteAtATime) {
  const std::vector<std::uint8_t> wire = MakeSubmitFrame(9, 77);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(&wire[i], 1, frames));
    if (i + 1 < wire.size()) {
      EXPECT_TRUE(frames.empty()) << "frame surfaced early at byte " << i;
    }
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.opcode,
            static_cast<std::uint16_t>(Opcode::kSubmit));
  EXPECT_EQ(frames[0].header.request_id, 77u);
  workload::JobSpec decoded;
  EXPECT_TRUE(DecodeJobSpec(frames[0].payload, decoded));
  EXPECT_EQ(decoded.id, JobId(9));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, SplitsHeaderAndPayloadAcrossReads) {
  const std::vector<std::uint8_t> wire = MakeSubmitFrame(3, 5);
  ASSERT_GT(wire.size(), kFrameHeaderSize + 4);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  // Half a header, the rest of the header plus some payload, the remainder.
  ASSERT_TRUE(decoder.Feed(wire.data(), kFrameHeaderSize / 2, frames));
  EXPECT_TRUE(frames.empty());
  ASSERT_TRUE(decoder.Feed(wire.data() + kFrameHeaderSize / 2,
                           kFrameHeaderSize, frames));
  EXPECT_TRUE(frames.empty());
  ASSERT_TRUE(decoder.Feed(wire.data() + kFrameHeaderSize +
                               kFrameHeaderSize / 2,
                           wire.size() - kFrameHeaderSize -
                               kFrameHeaderSize / 2,
                           frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.request_id, 5u);
}

TEST(FrameDecoderTest, DrainsMultipleFramesFromOneRead) {
  std::vector<std::uint8_t> wire = MakeSubmitFrame(1, 10);
  const std::vector<std::uint8_t> second = MakeSubmitFrame(2, 20);
  wire.insert(wire.end(), second.begin(), second.end());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size(), frames));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.request_id, 10u);
  EXPECT_EQ(frames[1].header.request_id, 20u);
}

TEST(FrameDecoderTest, RejectsOversizedPayloadPermanently) {
  FrameHeader header;
  header.opcode = static_cast<std::uint16_t>(Opcode::kSubmit);
  header.payload_len = kMaxPayloadBytes + 1;
  std::vector<std::uint8_t> wire;
  EncodeHeader(header, wire);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(wire.data(), wire.size(), frames));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("payload too large"), std::string::npos);

  // Poisoned: even a well-formed frame is refused afterwards.
  const std::vector<std::uint8_t> good = MakeSubmitFrame(1, 1);
  EXPECT_FALSE(decoder.Feed(good.data(), good.size(), frames));
  EXPECT_TRUE(frames.empty());
}

TEST(FrameDecoderTest, RejectsBadMagicAndBadVersion) {
  std::vector<std::uint8_t> wire = MakeSubmitFrame(1, 1);
  wire[0] ^= 0xff;
  FrameDecoder bad_magic;
  std::vector<Frame> frames;
  EXPECT_FALSE(bad_magic.Feed(wire.data(), wire.size(), frames));
  EXPECT_NE(bad_magic.error().find("magic"), std::string::npos);

  wire = MakeSubmitFrame(1, 1);
  wire[4] = 0x7f;  // version low byte
  FrameDecoder bad_version;
  EXPECT_FALSE(bad_version.Feed(wire.data(), wire.size(), frames));
  EXPECT_NE(bad_version.error().find("version"), std::string::npos);
}

TEST(FrameDecoderTest, TruncatedFrameAtEofLeavesBufferedBytes) {
  const std::vector<std::uint8_t> wire = MakeSubmitFrame(1, 1);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size() - 3, frames));
  EXPECT_TRUE(frames.empty());
  // The caller sees EOF here; nonzero buffered_bytes() is the tell that
  // the peer died mid-frame.
  EXPECT_EQ(decoder.buffered_bytes(), wire.size() - 3);
}

TEST(FrameDecoderTest, InterleavedSessionsStayIndependent) {
  // Two sessions' streams, three frames each, delivered as alternating
  // odd-sized chunks — the scheduler interleaving an epoll loop produces.
  std::vector<std::uint8_t> stream_a;
  std::vector<std::uint8_t> stream_b;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto frame_a = MakeSubmitFrame(100 + i, 1000 + i);
    const auto frame_b = MakeSubmitFrame(200 + i, 2000 + i);
    stream_a.insert(stream_a.end(), frame_a.begin(), frame_a.end());
    stream_b.insert(stream_b.end(), frame_b.begin(), frame_b.end());
  }

  FrameDecoder decoder_a;
  FrameDecoder decoder_b;
  std::vector<Frame> frames_a;
  std::vector<Frame> frames_b;
  std::size_t pos_a = 0;
  std::size_t pos_b = 0;
  const std::size_t kChunk = 13;
  while (pos_a < stream_a.size() || pos_b < stream_b.size()) {
    if (pos_a < stream_a.size()) {
      const std::size_t n = std::min(kChunk, stream_a.size() - pos_a);
      ASSERT_TRUE(decoder_a.Feed(stream_a.data() + pos_a, n, frames_a));
      pos_a += n;
    }
    if (pos_b < stream_b.size()) {
      const std::size_t n = std::min(kChunk, stream_b.size() - pos_b);
      ASSERT_TRUE(decoder_b.Feed(stream_b.data() + pos_b, n, frames_b));
      pos_b += n;
    }
  }
  ASSERT_EQ(frames_a.size(), 3u);
  ASSERT_EQ(frames_b.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frames_a[i].header.request_id, 1000u + i);
    EXPECT_EQ(frames_b[i].header.request_id, 2000u + i);
    workload::JobSpec spec;
    ASSERT_TRUE(DecodeJobSpec(frames_a[i].payload, spec));
    EXPECT_EQ(spec.id, JobId(100 + i));
    ASSERT_TRUE(DecodeJobSpec(frames_b[i].payload, spec));
    EXPECT_EQ(spec.id, JobId(200 + i));
  }
}

}  // namespace
}  // namespace netbatch::service

namespace netbatch {
namespace {

// Exact-rank quantile of a sorted sample: the reference the histogram's
// bucketed answer is compared against.
std::uint64_t ExactQuantile(const std::vector<std::uint64_t>& sorted,
                            double q) {
  const auto rank = static_cast<std::size_t>(std::max(
      1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

TEST(LatencyHistogramTest, EmptyIsAllZeros) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0u);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // Below 64 every value has its own bucket: quantiles are exact.
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.Quantile(0.5), 31u);    // rank 32 -> value 31
  EXPECT_EQ(h.Quantile(1.0), 63u);
  EXPECT_DOUBLE_EQ(h.Mean(), 31.5);
}

TEST(LatencyHistogramTest, QuantileErrorIsWithinOneSixtyFourth) {
  // 200k lognormal-ish latencies spanning ~ns to ~minutes: for every
  // quantile the bucketed answer must sit in [exact, exact * (1 + 1/64)].
  Rng rng(0xfeedface);
  LatencyHistogram h;
  std::vector<std::uint64_t> values;
  values.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    const double log_ns = 4.0 + 16.0 * rng.NextDouble();  // e^4 .. e^20 ns
    const auto v = static_cast<std::uint64_t>(std::exp(log_ns));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());

  for (const double q : {0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const std::uint64_t exact = ExactQuantile(values, q);
    const std::uint64_t approx = h.Quantile(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx - exact, exact / 64) << "q=" << q;
  }
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
  EXPECT_EQ(h.Quantile(1.0), values.back());  // p100 is exact, not a bound
}

TEST(LatencyHistogramTest, MergeIsLossless) {
  // Merging shards must equal recording the union directly, bucket for
  // bucket — every quantile, not just the aggregates.
  Rng rng(7);
  LatencyHistogram shard_a;
  LatencyHistogram shard_b;
  LatencyHistogram all;
  for (int i = 0; i < 50000; ++i) {
    const auto v = static_cast<std::uint64_t>(
        std::exp(2.0 + 20.0 * rng.NextDouble()));
    (i % 2 == 0 ? shard_a : shard_b).Record(v);
    all.Record(v);
  }

  LatencyHistogram merged;
  merged.Merge(shard_a);
  merged.Merge(shard_b);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_DOUBLE_EQ(merged.Mean(), all.Mean());
  for (double q = 0.01; q <= 1.0; q += 0.007) {
    EXPECT_EQ(merged.Quantile(q), all.Quantile(q)) << "q=" << q;
  }

  // Merging an empty histogram is a no-op in both directions.
  LatencyHistogram empty;
  merged.Merge(empty);
  EXPECT_EQ(merged.count(), all.count());
  empty.Merge(shard_a);
  EXPECT_EQ(empty.count(), shard_a.count());
  EXPECT_EQ(empty.max(), shard_a.max());
}

}  // namespace
}  // namespace netbatch
