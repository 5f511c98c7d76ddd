// The benchmark's load generator ("loadgen" layer): one thread per session,
// each on its own pre-connected unix socket, submitting its share of a trace
// (job i goes to session i % sessions).
//
// Closed loop (firehose): each session keeps up to `window` submits in
// flight and sends the next only when a response frees a slot; latency is
// send -> response.
// Open loop (paced): each submit is due at (submit_time - first submit) /
// speed after a shared origin and is sent then regardless of outstanding
// responses; latency is due time -> response, so a stall anywhere (daemon
// or generator) shows up in every request it delays. How late the
// generator sent is recorded separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layer_timers.h"
#include "workload/trace.h"

namespace nbbench {

struct LoadSpec {
  bool open_loop = false;
  double speed = 100000;       // open loop: trace seconds per wall second
  std::size_t window = 64;     // closed loop: in-flight submits per session
  // Traced runs: time the codec calls, recv() calls and blocking.
  bool timed = false;
  // Session s is served by daemon shard (first_shard + s) % shard_count:
  // the acceptor deals connections round-robin in accept order.
  std::uint32_t shard_count = 1;
  std::uint32_t first_shard = 0;
};

struct LoadOutcome {
  // Failure accounting, over `attempted` submits.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bad_status = 0;    // any other status
  std::uint64_t duplicate = 0;     // second response to one request
  std::uint64_t unmatched = 0;     // response for no request of the session
  // Never answered; a protocol error or a dropped connection ends its
  // session, so every submit still unanswered lands here.
  std::uint64_t missing = 0;
  std::uint64_t Failed() const {
    return bad_status + duplicate + unmatched + missing;
  }

  std::vector<double> latency_us;  // one per response
  std::vector<double> late_us;     // open loop: send time - due time
  // Parallel to latency_us: the window each answered request belongs to
  // (open loop: the hour of trace time, from the first submit, it was due
  // in; closed loop: which 1/32 of the trace it is), and how late it was
  // sent (open loop; 0 in the closed loop).
  std::vector<std::uint32_t> latency_window;
  std::vector<float> latency_late_us;
  std::uint64_t first_send_ns = 0;
  std::uint64_t last_response_ns = 0;
  // Response arrival times, sorted (for the first/last-quarter rates).
  std::vector<std::uint64_t> response_ns;
  // Job ids the daemon acknowledged as placed or queued.
  std::vector<std::uint64_t> acked_ids;

  // Traced runs only.
  CallStats encode;  // EncodeJobSpec + EncodeFrame, per frame
  CallStats decode;  // FrameDecoder::Feed + DecodeSubmitResponse, per frame
  std::uint64_t recv_calls = 0;
  std::uint64_t frames = 0;
  std::uint64_t blocked_ns = 0;  // waiting in recv()/ppoll()
  std::uint64_t session_ns = 0;  // summed session wall time
  std::uint64_t forwarded = 0;
  std::vector<double> rtt_local_us;      // send -> response
  std::vector<double> rtt_forwarded_us;
};

// Submits every job of `trace` over `fds` (one session per fd) and waits for
// every response or a broken connection. `fds` are closed on return.
LoadOutcome RunLoad(const std::vector<int>& fds,
                    const netbatch::workload::Trace& trace,
                    const LoadSpec& spec);

// Queries every id over one connection (pipelined) and returns how many
// were not answered with kOk exactly once.
std::uint64_t CountUnknownJobs(int fd, const std::vector<std::uint64_t>& ids);

}  // namespace nbbench
