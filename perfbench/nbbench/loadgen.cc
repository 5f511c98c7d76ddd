#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <thread>

#include "bench_common.h"
#include "process.h"
#include "service/protocol.h"

namespace nbbench {
namespace {

namespace service = netbatch::service;
using netbatch::workload::JobSpec;

constexpr std::uint16_t kSubmitResponse =
    static_cast<std::uint16_t>(service::Opcode::kSubmit) | service::kResponseBit;
// Latency windows per closed-loop replay (see LoadOutcome::latency_window).
constexpr std::size_t kClosedLoopWindows = 32;
// A daemon that stops answering fails the run instead of hanging it.
constexpr int kRecvTimeoutSeconds = 30;

class Session {
 public:
  Session(int fd, std::size_t index, std::size_t sessions,
          const netbatch::workload::Trace& trace, const LoadSpec& spec,
          std::uint64_t origin_ns)
      : fd_(fd), index_(index), sessions_(sessions), spec_(spec),
        origin_ns_(origin_ns),
        shard_((spec.first_shard + index) % spec.shard_count) {
    first_submit_ = trace.empty() ? 0 : trace[0].submit_time;
    trace_size_ = trace.size();
    for (std::size_t i = index; i < trace.size(); i += sessions) {
      jobs_.push_back(&trace[i]);
      due_ns_.push_back(static_cast<std::uint64_t>(
          static_cast<double>(trace[i].submit_time - first_submit_) * 1e9 /
          spec.speed));
    }
    send_ns_.assign(jobs_.size(), 0);
    answered_.assign(jobs_.size(), 0);
    out_.attempted = jobs_.size();
    out_.latency_us.reserve(jobs_.size());
    out_.latency_window.reserve(jobs_.size());
    out_.latency_late_us.reserve(jobs_.size());
    out_.response_ns.reserve(jobs_.size());
  }

  // Owns the fd and is referenced by its thread.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void Run() {
    const std::uint64_t start = NowNs();
    if (spec_.open_loop) {
      RunOpenLoop();
    } else {
      RunClosedLoop();
    }
    out_.session_ns = NowNs() - start;
    out_.missing = jobs_.size() - received_;
    ::close(fd_);
  }

  LoadOutcome& outcome() { return out_; }

 private:
  std::uint64_t RequestId(std::size_t local) const {
    return local * sessions_ + index_;
  }

  std::uint32_t Window(std::size_t local) const {
    if (spec_.open_loop) {
      return static_cast<std::uint32_t>(
          (jobs_[local]->submit_time - first_submit_) / netbatch::kTicksPerHour);
    }
    return static_cast<std::uint32_t>(RequestId(local) * kClosedLoopWindows /
                                      trace_size_);
  }

  // Encodes submit `local` onto the batch buffer.
  void Encode(std::size_t local) {
    const std::uint64_t start = spec_.timed ? NowNs() : 0;
    payload_.clear();
    service::EncodeJobSpec(*jobs_[local], payload_);
    service::EncodeFrame(static_cast<std::uint16_t>(service::Opcode::kSubmit),
                         RequestId(local), payload_, batch_);
    if (spec_.timed) out_.encode.Add(NowNs() - start);
  }

  // Sends the batch; every frame in it is stamped with one send time.
  bool Flush(std::size_t begin, std::size_t end) {
    if (batch_.empty()) return true;
    const std::uint64_t now = NowNs();
    if (out_.first_send_ns == 0) out_.first_send_ns = now;
    for (std::size_t i = begin; i < end; ++i) {
      send_ns_[i] = now;
      if (spec_.open_loop) {
        out_.late_us.push_back(
            static_cast<double>(now - (origin_ns_ + due_ns_[i])) / 1e3);
      }
    }
    const bool sent = SendAll(fd_, batch_);
    batch_.clear();
    return sent;
  }

  // Feeds `n` received bytes and accounts every complete response.
  bool Receive(const std::uint8_t* data, std::size_t n) {
    const std::uint64_t now = NowNs();
    ++out_.recv_calls;
    frames_.clear();
    if (!decoder_.Feed(data, n, frames_)) return false;
    const std::uint64_t fed = spec_.timed ? NowNs() : 0;
    out_.frames += frames_.size();
    std::uint64_t decode_ns = spec_.timed ? fed - now : 0;
    for (const service::Frame& frame : frames_) {
      const std::uint64_t rid = frame.header.request_id;
      const std::size_t local = rid / sessions_;
      if (frame.header.opcode != kSubmitResponse ||
          rid % sessions_ != index_ || local >= jobs_.size()) {
        ++out_.unmatched;
        continue;
      }
      if (answered_[local] != 0) {
        ++out_.duplicate;
        continue;
      }
      answered_[local] = 1;
      ++received_;
      service::SubmitResponse response;
      const std::uint64_t decode_start = spec_.timed ? NowNs() : 0;
      const bool decoded = service::DecodeSubmitResponse(frame.payload, response);
      if (spec_.timed) decode_ns += NowNs() - decode_start;
      const JobSpec& job = *jobs_[local];
      if (!decoded || response.job_id != job.id.value()) {
        ++out_.bad_status;
        continue;
      }
      switch (response.status) {
        case service::Status::kOk:
          ++out_.ok;
          out_.acked_ids.push_back(job.id.value());
          break;
        case service::Status::kQueued:
          ++out_.queued;
          out_.acked_ids.push_back(job.id.value());
          break;
        case service::Status::kRejected:
          ++out_.rejected;
          break;
        default:
          ++out_.bad_status;
          continue;
      }
      const std::uint64_t begin =
          spec_.open_loop ? origin_ns_ + due_ns_[local] : send_ns_[local];
      out_.latency_us.push_back(static_cast<double>(now - begin) / 1e3);
      out_.latency_window.push_back(Window(local));
      out_.latency_late_us.push_back(
          spec_.open_loop ? static_cast<float>(send_ns_[local] - begin) / 1e3f
                          : 0.0f);
      out_.response_ns.push_back(now);
      out_.last_response_ns = now;
      if (spec_.timed) {
        const double rtt_us = static_cast<double>(now - send_ns_[local]) / 1e3;
        if (Forwarded(job)) {
          ++out_.forwarded;
          out_.rtt_forwarded_us.push_back(rtt_us);
        } else {
          out_.rtt_local_us.push_back(rtt_us);
        }
      }
    }
    if (spec_.timed) {
      out_.decode.calls += frames_.size();
      out_.decode.ns += decode_ns;
    }
    return true;
  }

  // The daemon forwards a submit when none of its candidate pools lives on
  // the session's shard (global pool g is on shard g % shard_count); an
  // empty candidate list means "any pool" and stays local.
  bool Forwarded(const JobSpec& job) const {
    if (job.candidate_pools.empty()) return false;
    for (const netbatch::PoolId pool : job.candidate_pools) {
      if (pool.value() % spec_.shard_count == shard_) return false;
    }
    return true;
  }

  void RunClosedLoop() {
    std::size_t next = 0;
    while (received_ < jobs_.size()) {
      const std::size_t begin = next;
      while (next < jobs_.size() && next - received_ < spec_.window) {
        Encode(next++);
      }
      if (!Flush(begin, next)) break;
      const std::uint64_t wait_start = spec_.timed ? NowNs() : 0;
      const ssize_t n = ::recv(fd_, buf_, sizeof(buf_), 0);
      if (spec_.timed) out_.blocked_ns += NowNs() - wait_start;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0 || !Receive(buf_, static_cast<std::size_t>(n))) break;
    }
  }

  void RunOpenLoop() {
    // Sleep to the microsecond: the default 50us timer slack would make
    // every wake-up late by design.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const std::uint64_t give_up =
        origin_ns_ + (due_ns_.empty() ? 0 : due_ns_.back()) +
        static_cast<std::uint64_t>(kRecvTimeoutSeconds) * 1000000000ULL;
    std::size_t next = 0;
    while (received_ < jobs_.size()) {
      std::uint64_t now = NowNs();
      if (now > give_up) break;
      const std::size_t begin = next;
      while (next < jobs_.size() && origin_ns_ + due_ns_[next] <= now) {
        Encode(next++);
      }
      if (!Flush(begin, next)) break;
      now = NowNs();
      std::uint64_t wait_ns = 100'000'000;  // all sent: wait for responses
      if (next < jobs_.size()) {
        const std::uint64_t due = origin_ns_ + due_ns_[next];
        wait_ns = due > now ? due - now : 0;
      }
      timespec timeout{static_cast<time_t>(wait_ns / 1000000000ULL),
                       static_cast<long>(wait_ns % 1000000000ULL)};
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      if (spec_.timed) out_.blocked_ns += NowNs() - now;
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) break;
      if (ready == 0) continue;
      const ssize_t n = ::recv(fd_, buf_, sizeof(buf_), MSG_DONTWAIT);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0 || !Receive(buf_, static_cast<std::size_t>(n))) break;
    }
  }

  int fd_;
  std::size_t index_;
  std::size_t sessions_;
  LoadSpec spec_;
  std::uint64_t origin_ns_;
  std::uint32_t shard_;
  netbatch::Ticks first_submit_ = 0;
  std::size_t trace_size_ = 0;
  std::vector<const JobSpec*> jobs_;
  std::vector<std::uint64_t> due_ns_;
  std::vector<std::uint64_t> send_ns_;
  std::vector<std::uint8_t> answered_;
  std::size_t received_ = 0;
  LoadOutcome out_;

  service::FrameDecoder decoder_;
  std::vector<service::Frame> frames_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> batch_;
  std::uint8_t buf_[1 << 16];
};

void Append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

LoadOutcome RunLoad(const std::vector<int>& fds,
                    const netbatch::workload::Trace& trace,
                    const LoadSpec& spec) {
  for (const int fd : fds) {
    timeval timeout{kRecvTimeoutSeconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  // Open-loop sessions share one origin, a little ahead so every thread is
  // running before the first submit is due.
  const std::uint64_t origin_ns = NowNs() + 5'000'000;
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t s = 0; s < fds.size(); ++s) {
    sessions.push_back(std::make_unique<Session>(fds[s], s, fds.size(), trace,
                                                 spec, origin_ns));
  }
  std::vector<std::thread> threads;
  for (auto& session : sessions) {
    threads.emplace_back([&session] { session->Run(); });
  }
  for (std::thread& thread : threads) thread.join();

  LoadOutcome merged;
  merged.first_send_ns = std::numeric_limits<std::uint64_t>::max();
  for (auto& session : sessions) {
    LoadOutcome& o = session->outcome();
    merged.attempted += o.attempted;
    merged.ok += o.ok;
    merged.queued += o.queued;
    merged.rejected += o.rejected;
    merged.bad_status += o.bad_status;
    merged.duplicate += o.duplicate;
    merged.unmatched += o.unmatched;
    merged.missing += o.missing;
    Append(merged.latency_us, o.latency_us);
    Append(merged.late_us, o.late_us);
    merged.latency_window.insert(merged.latency_window.end(),
                               o.latency_window.begin(), o.latency_window.end());
    merged.latency_late_us.insert(merged.latency_late_us.end(),
                                  o.latency_late_us.begin(),
                                  o.latency_late_us.end());
    if (o.first_send_ns != 0) {
      merged.first_send_ns = std::min(merged.first_send_ns, o.first_send_ns);
    }
    merged.last_response_ns = std::max(merged.last_response_ns, o.last_response_ns);
    merged.response_ns.insert(merged.response_ns.end(), o.response_ns.begin(),
                              o.response_ns.end());
    merged.acked_ids.insert(merged.acked_ids.end(), o.acked_ids.begin(),
                            o.acked_ids.end());
    merged.encode += o.encode;
    merged.decode += o.decode;
    merged.recv_calls += o.recv_calls;
    merged.frames += o.frames;
    merged.blocked_ns += o.blocked_ns;
    merged.session_ns += o.session_ns;
    merged.forwarded += o.forwarded;
    Append(merged.rtt_local_us, o.rtt_local_us);
    Append(merged.rtt_forwarded_us, o.rtt_forwarded_us);
  }
  if (merged.first_send_ns == std::numeric_limits<std::uint64_t>::max()) {
    merged.first_send_ns = 0;
  }
  std::sort(merged.response_ns.begin(), merged.response_ns.end());
  return merged;
}

std::uint64_t CountUnknownJobs(int fd, const std::vector<std::uint64_t>& ids) {
  constexpr std::size_t kWindow = 256;
  constexpr std::uint16_t kQueryResponse =
      static_cast<std::uint16_t>(service::Opcode::kQueryJob) |
      service::kResponseBit;
  timeval timeout{kRecvTimeoutSeconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::vector<std::uint8_t> answered(ids.size(), 0);
  std::uint64_t known = 0;
  std::size_t next = 0;
  std::size_t received = 0;
  service::FrameDecoder decoder;
  std::vector<service::Frame> frames;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> batch;
  std::uint8_t buf[1 << 16];
  while (received < ids.size()) {
    while (next < ids.size() && next - received < kWindow) {
      payload.clear();
      service::WireWriter(payload).U64(ids[next]);
      service::EncodeFrame(static_cast<std::uint16_t>(service::Opcode::kQueryJob),
                           next, payload, batch);
      ++next;
    }
    if (!SendAll(fd, batch)) break;
    batch.clear();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    frames.clear();
    if (!decoder.Feed(buf, static_cast<std::size_t>(n), frames)) break;
    for (const service::Frame& frame : frames) {
      const std::uint64_t index = frame.header.request_id;
      if (frame.header.opcode != kQueryResponse || index >= ids.size() ||
          answered[index] != 0) {
        continue;
      }
      answered[index] = 1;
      ++received;
      service::WireReader reader(frame.payload);
      if (static_cast<service::Status>(reader.U32()) == service::Status::kOk &&
          reader.ok()) {
        ++known;
      }
    }
  }
  ::close(fd);
  return ids.size() - known;
}

}  // namespace nbbench
