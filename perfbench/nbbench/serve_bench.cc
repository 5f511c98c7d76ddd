// nbbench serve — the daemon workloads (serve-firehose, serve-paced).
//
// Untraced, each repetition drives the shipped netbatchd binary:
//   1. exec a fresh daemon and take the daemon's CPU time from exec to its
//      first kStats reply (setup_s; the wall time is recorded too);
//   2. replay the trace from kSessions pre-connected sessions, closed loop
//      (firehose) or open loop (paced) — see loadgen.h;
//   3. scrape kStats, read the daemon's VmHWM (peak_rss_mb) and the CPU time
//      it spent on the replay (ops_per_cpu_s), SIGKILL it;
//   4. exec a daemon on the same data directory and take its CPU time to
//      the first kStats reply, which comes only once every shard has
//      recovered (recovery_s); with a data directory, every acked id must be
//      known to it.
// Repetitions run until --seconds have passed; until there are 21 setup
// samples (and, in memory, 21 recovery samples), bare start/kill/restart
// cycles top them up.
//
// Traced (--trace=1), each round adds a repetition against a service::Daemon
// hosted in this process, its shard stacks wrapped in the timing decorators
// of layer_timers.h and the generator timing its codec and socket calls.
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "core/policies.h"
#include "layer_timers.h"
#include "loadgen.h"
#include "persist/recovery.h"
#include "process.h"
#include "runner/parse.h"
#include "runner/scenarios.h"
#include "sched/round_robin.h"
#include "service/daemon.h"
#include "workload/generator.h"

namespace nbbench {
namespace {

namespace fs = std::filesystem;
namespace service = netbatch::service;

constexpr const char* kSocket = "nb.sock";
constexpr const char* kTracedSocket = "nb-traced.sock";
constexpr const char* kDataDir = "data";
constexpr const char* kDataCopy = "data-crashed";
constexpr const char* kTracedDataDir = "data-traced";
constexpr const char* kDaemonLog = "netbatchd.log";
// netbatchd's defaults, which the benchmark does not override: the cluster
// is the `normal` preset at the daemon's own seed, the stack rr/ResSusUtil.
constexpr std::uint64_t kDaemonSeed = 42;
constexpr int kWaitThresholdMinutes = 30;
// The load: 2 daemon shards and 2 generator sessions use the host's 4
// cores; the closed loop keeps 64 submits in flight per session.
constexpr std::uint32_t kThreads = 2;
constexpr std::size_t kSessions = 2;
constexpr std::size_t kWindow = 64;
// The open loop replays trace time this many times faster than real time,
// as the daemon's --time-scale does.
constexpr double kSpeed = 100000;
// The open-loop generator's own bound: a request sent later than this
// after its due time is left out of the latency (see LatencyWindows).
constexpr double kLateBoundUs = 50;
// On-time requests a latency window needs (~1.1k per trace hour; 100 give
// the p99 one sample beyond it).
constexpr std::size_t kMinWindowRequests = 100;
constexpr std::size_t kMinLifecycleSamples = 21;
// Slices per closed-loop replay for its wall-clock rate (e2e.ops_per_s).
constexpr std::size_t kClosedLoopSlices = 32;

struct ServeConfig {
  bool firehose = true;
  std::string netbatchd;
  double scale = 1.0;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;

  std::vector<std::string> DaemonArgv() const {
    std::vector<std::string> argv = {
        netbatchd, std::string("--socket=") + kSocket,
        "--threads=" + std::to_string(kThreads), "--scenario=normal",
        "--scale=" + std::to_string(scale)};
    if (firehose) {
      argv.push_back(std::string("--data-dir=") + kDataDir);
      argv.push_back("--auto-complete=false");
    } else {
      argv.push_back("--time-scale=" + std::to_string(static_cast<long long>(kSpeed)));
    }
    return argv;
  }
  LoadSpec Load(std::uint32_t first_shard, bool timed) const {
    LoadSpec spec;
    spec.open_loop = !firehose;
    spec.speed = kSpeed;
    spec.window = kWindow;
    spec.timed = timed;
    spec.shard_count = kThreads;
    spec.first_shard = first_shard % kThreads;
    return spec;
  }
};

std::string Join(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& arg : argv) out += (out.empty() ? "" : " ") + arg;
  return out;
}

void ResetDir(const char* dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// Exec of a daemon to its first kStats reply, as wall time and as the CPU
// time the daemon's threads spent getting there, with the stats it replied.
// kStats gathers from every shard, so the reply waits for the slowest
// shard's recovery. The times are 0 when no reply came.
struct StartTiming {
  double wall_s = 0;
  double cpu_s = 0;
  DaemonStats stats;
  bool replied() const { return wall_s > 0; }
};

StartTiming StartAndProbe(const ServeConfig& config,
                          std::unique_ptr<DaemonProcess>& daemon) {
  daemon = std::make_unique<DaemonProcess>(config.DaemonArgv(), kDaemonLog);
  std::uint64_t replied = 0;
  const auto stats =
      FetchStats(kSocket, NowNs() + 60'000'000'000ULL, &replied);
  if (!stats.has_value()) return {};
  return {NsToSeconds(replied - daemon->spawn_ns()),
          ProcessCpuSeconds(daemon->pid()), *stats};
}

// A fresh or in-memory daemon starts empty.
bool StartedEmpty(const StartTiming& timing) {
  return timing.replied() && timing.stats.Get("jobs.submitted") == 0;
}

// Gated: the daemon's CPU seconds, which steal on a shared host does not
// inflate. The wall time is kept as `<metric>_wall` for the record.
void RecordStart(const std::string& metric, const StartTiming& timing,
                 Result& result) {
  result.Sample(metric, timing.cpu_s);
  result.Sample(metric + "_wall", timing.wall_s);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// Latency percentiles per window (LoadOutcome::latency_window). The run
// reports the median window, so a stall (a busy neighbour on a shared host)
// moves the windows it hits, not the run's figure. In the open loop a
// request the generator itself sent late (over the bound) timed the host's
// scheduler, not the daemon, and is left out; the daemon's stalls still
// count in full, because they delay responses, not sends. A window needs
// kMinWindowRequests on-time requests to count. When no window does, the
// run's latency is invalid: it is then taken over every request, so the
// lateness shows as slowness, never as speed, and the run is flagged
// (`latency_valid` false).
struct LatencyWindows {
  struct Window {
    double p50_us = 0;
    double p99_us = 0;
    bool valid = true;
  };
  std::vector<Window> windows;

  void Add(const LoadOutcome& load) {
    std::vector<std::vector<double>> all;
    std::vector<std::vector<double>> on_time;
    for (std::size_t i = 0; i < load.latency_us.size(); ++i) {
      const std::size_t w = load.latency_window[i];
      if (w >= all.size()) {
        all.resize(w + 1);
        on_time.resize(w + 1);
      }
      all[w].push_back(load.latency_us[i]);
      if (load.latency_late_us[i] <= kLateBoundUs) {
        on_time[w].push_back(load.latency_us[i]);
      }
    }
    for (std::size_t w = 0; w < all.size(); ++w) {
      if (all[w].empty()) continue;
      const bool valid = on_time[w].size() >= kMinWindowRequests;
      std::vector<double>& used = valid ? on_time[w] : all[w];
      windows.push_back(
          {Percentile(used, 0.50), Percentile(used, 0.99), valid});
    }
  }
  std::size_t Invalid() const {
    std::size_t invalid = 0;
    for (const Window& w : windows) invalid += w.valid ? 0 : 1;
    return invalid;
  }
  bool Valid() const { return Invalid() < windows.size(); }
  // Median over the valid windows (all of them when none is valid).
  double Median(double Window::*field) const {
    std::vector<double> values;
    const bool valid = Valid();
    for (const Window& w : windows) {
      if (w.valid || !valid) values.push_back(w.*field);
    }
    return Percentile(values, 0.5);
  }
};

// The end-to-end samples and kStats of one untraced repetition.
struct Rep {
  double ops_per_s = 0;       // whole replay
  double wall_ops_per_s = 0;  // as reported (e2e.ops_per_s)
  double q1_per_s = 0;
  double q4_per_s = 0;
  LoadOutcome load;
  DaemonStats stats;
  DaemonStats restarted_stats;
  double plan_s = 0;
  double plan_records = 0;
};

// Decisions per second over `parts` equal slices of the responses, in
// arrival order; the first slice starts at the first send.
std::vector<double> SliceRates(const LoadOutcome& load, std::size_t parts) {
  const std::vector<std::uint64_t>& t = load.response_ns;
  const std::size_t per = t.size() / parts;
  std::vector<double> rates;
  for (std::size_t i = 0; per > 0 && i < parts; ++i) {
    const std::uint64_t start = i == 0 ? load.first_send_ns : t[i * per - 1];
    rates.push_back(static_cast<double>(per) /
                    NsToSeconds(t[(i + 1) * per - 1] - start));
  }
  return rates;
}

// BuildRecoveryPlan over a copy of the crashed data directory: the pure
// inspection half of recovery, per shard, timed together.
void MeasurePlan(Rep& rep) {
  fs::remove_all(kDataCopy);
  fs::copy(kDataDir, kDataCopy, fs::copy_options::recursive);
  const std::uint64_t start = NowNs();
  std::size_t records = 0;
  for (std::uint32_t s = 0; s < kThreads; ++s) {
    const netbatch::persist::RecoveryPlan plan = netbatch::persist::BuildRecoveryPlan(
        std::string(kDataCopy) + "/shard-" + std::to_string(s));
    records += plan.tail.size();
  }
  rep.plan_s = NsToSeconds(NowNs() - start);
  rep.plan_records = static_cast<double>(records);
  fs::remove_all(kDataCopy);
}

void AccountLoad(const LoadOutcome& load, const std::string& label,
                 Result& result) {
  result.Attempt(load.attempted, load.Failed());
  result.Check(label + "/answered-exactly-once",
               load.missing == 0 && load.duplicate == 0 && load.unmatched == 0,
               std::to_string(load.missing) + " missing, " +
                   std::to_string(load.duplicate) + " duplicate, " +
                   std::to_string(load.unmatched) + " unmatched responses");
  result.Check(label + "/statuses", load.bad_status == 0,
               std::to_string(load.bad_status) +
                   " responses other than Ok/Queued/Rejected");
}

Rep RunUntracedRep(const ServeConfig& config,
                   const netbatch::workload::Trace& trace, bool measure_plan,
                   Result& result) {
  Rep rep;
  if (config.firehose) ResetDir(kDataDir);
  std::unique_ptr<DaemonProcess> daemon;
  const StartTiming setup = StartAndProbe(config, daemon);
  result.Check("fresh-daemon-replies", StartedEmpty(setup),
               "no kStats reply with jobs.submitted=0 from a fresh daemon");
  RecordStart("setup_s", setup, result);

  // Connection 0 was the probe; sessions connect next, in order.
  std::vector<int> fds;
  for (std::size_t s = 0; s < kSessions; ++s) {
    fds.push_back(ConnectUntil(kSocket, NowNs()));
    NETBATCH_CHECK(fds.back() >= 0, "cannot connect a load session");
  }
  const double cpu_before = ProcessCpuSeconds(daemon->pid());
  rep.load = RunLoad(fds, trace, config.Load(1, false));
  const double daemon_cpu_s = ProcessCpuSeconds(daemon->pid()) - cpu_before;
  const LoadOutcome& load = rep.load;
  AccountLoad(load, "load", result);

  const auto stats = FetchStats(kSocket);
  result.Check("stats-reply", stats.has_value(), "no kStats reply");
  if (stats.has_value()) rep.stats = *stats;
  const std::uint64_t answered = load.ok + load.queued + load.rejected;
  result.Check("submitted-accounting",
               answered == load.attempted &&
                   static_cast<std::uint64_t>(rep.stats.Get("jobs.submitted")) ==
                       load.attempted,
               "started " + std::to_string(load.ok) + " + queued " +
                   std::to_string(load.queued) + " + rejected " +
                   std::to_string(load.rejected) + ", submitted " +
                   std::to_string(load.attempted) + ", jobs.submitted " +
                   std::to_string(rep.stats.Get("jobs.submitted")));
  result.Sample("peak_rss_mb", PeakRssMb(daemon->pid()));
  // Gated: decisions per CPU-second the daemon spent serving them. Time the
  // hypervisor steals from a vCPU stalls the whole closed loop but costs
  // the daemon no CPU, so this holds still where the wall-clock rate swings.
  result.Sample("ops_per_cpu_s", static_cast<double>(answered) / daemon_cpu_s);
  // Wall-clock rate: the closed loop's is the median 1/32 slice of the
  // replay (a stall moves one slice); the open loop's is set by the
  // schedule and taken whole.
  const double span_s = NsToSeconds(load.last_response_ns - load.first_send_ns);
  rep.ops_per_s = span_s > 0 ? static_cast<double>(answered) / span_s : 0;
  rep.wall_ops_per_s = config.firehose
                           ? Median(SliceRates(load, kClosedLoopSlices))
                           : rep.ops_per_s;
  const std::vector<double> quarters = SliceRates(load, 4);
  if (quarters.size() == 4) {
    rep.q1_per_s = quarters.front();
    rep.q4_per_s = quarters.back();
  }
  result.Check("daemon-killed", daemon->Stop(SIGKILL), "SIGKILL failed");
  if (measure_plan && config.firehose) MeasurePlan(rep);

  // Restart on the same data directory.
  const StartTiming recovery = StartAndProbe(config, daemon);
  result.Check("restarted-daemon-replies",
               config.firehose ? recovery.replied() : StartedEmpty(recovery),
               "no kStats reply from the restarted daemon");
  RecordStart("recovery_s", recovery, result);
  if (config.firehose) {
    rep.restarted_stats = recovery.stats;
    const std::uint64_t unknown =
        CountUnknownJobs(ConnectUntil(kSocket, NowNs()), load.acked_ids);
    // Each acked job once: all known (kQueryJob answers Ok), and no more
    // jobs than were acked.
    const std::int64_t held = rep.restarted_stats.Get("jobs.submitted") -
                              rep.restarted_stats.Get("jobs.rejected");
    const bool exact = unknown == 0 &&
                       held == static_cast<std::int64_t>(load.acked_ids.size());
    result.Attempt(load.acked_ids.size(), unknown);
    result.Check("acked-ids-recovered-once", exact,
                 std::to_string(unknown) + " of " +
                     std::to_string(load.acked_ids.size()) +
                     " acked ids unknown after restart; restarted daemon holds " +
                     std::to_string(held) + " jobs");
  }
  result.Check("daemon-drained", daemon->Stop(SIGTERM),
               "restarted daemon did not exit cleanly on SIGTERM");
  return rep;
}

// Tops up setup/recovery samples with bare lifecycles: start, probe,
// SIGKILL, restart, probe, SIGTERM. Firehose cycles restart on an empty
// data directory, so they add setup samples only.
void RunLifecycle(const ServeConfig& config, bool want_recovery,
                  Result& result) {
  if (config.firehose) ResetDir(kDataDir);
  std::unique_ptr<DaemonProcess> daemon;
  const StartTiming setup = StartAndProbe(config, daemon);
  result.Check("fresh-daemon-replies", StartedEmpty(setup), "no empty kStats reply");
  RecordStart("setup_s", setup, result);
  if (want_recovery) {
    result.Check("daemon-killed", daemon->Stop(SIGKILL), "SIGKILL failed");
    const StartTiming recovery = StartAndProbe(config, daemon);
    result.Check("restarted-daemon-replies", StartedEmpty(recovery),
                 "no empty kStats reply");
    RecordStart("recovery_s", recovery, result);
  }
  result.Check("daemon-drained", daemon->Stop(SIGTERM),
               "daemon did not exit cleanly on SIGTERM");
}

// What the in-process daemon's decorators and the timed generator saw.
struct TracedRep {
  LoadOutcome load;
  CallStats pool_order;
  CallStats policy;
  std::uint64_t policy_moves = 0;
  double ops_per_s = 0;
};

TracedRep RunTracedRep(const ServeConfig& config,
                       const netbatch::workload::Trace& trace, Result& result) {
  service::DaemonOptions options;
  options.socket_path = kTracedSocket;
  options.threads = kThreads;
  if (config.firehose) {
    ResetDir(kTracedDataDir);
    options.data_dir = kTracedDataDir;
    options.auto_complete = false;
  } else {
    options.time_scale = static_cast<std::int64_t>(kSpeed);
  }
  const netbatch::runner::Scenario scenario =
      netbatch::runner::ResolveScenario("normal", config.scale, kDaemonSeed);
  // The same per-shard stacks as netbatchd's ShardStackFactory, decorated.
  std::vector<TimedScheduler*> schedulers(kThreads, nullptr);
  std::vector<TimedPolicy*> policies(kThreads, nullptr);
  const service::ShardStackFactory factory = [&](std::uint32_t shard) {
    netbatch::core::PolicyOptions policy_options;
    policy_options.wait_threshold =
        netbatch::MinutesToTicks(kWaitThresholdMinutes);
    policy_options.seed =
        shard == 0 ? kDaemonSeed
                   : kDaemonSeed ^ (0x9e3779b97f4a7c15ull * (shard + 1));
    auto scheduler = std::make_unique<TimedScheduler>(
        std::make_unique<netbatch::sched::RoundRobinScheduler>());
    auto policy = std::make_unique<TimedPolicy>(netbatch::core::MakePolicy(
        netbatch::core::PolicyKind::kResSusUtil, policy_options));
    schedulers[shard] = scheduler.get();
    policies[shard] = policy.get();
    service::ShardStack stack;
    stack.scheduler = std::move(scheduler);
    stack.policy = std::move(policy);
    return stack;
  };

  TracedRep rep;
  {
    service::Daemon daemon(scenario.cluster, factory, options);
    std::atomic<bool> stop{false};
    std::thread serving([&] { daemon.Run(stop); });
    std::vector<int> fds;
    for (std::size_t s = 0; s < kSessions; ++s) {
      fds.push_back(ConnectUntil(kTracedSocket, NowNs() + 5'000'000'000ULL));
      NETBATCH_CHECK(fds.back() >= 0, "cannot connect to the traced daemon");
    }
    rep.load = RunLoad(fds, trace, config.Load(0, true));
    stop.store(true);
    serving.join();
    // The decorators belong to the daemon's stacks: read them before the
    // daemon goes out of scope, once its shard threads have stopped.
    for (std::uint32_t s = 0; s < kThreads; ++s) {
      if (schedulers[s] == nullptr) continue;
      rep.pool_order += schedulers[s]->pool_order();
      rep.policy += policies[s]->decisions();
      rep.policy_moves += policies[s]->moves();
    }
  }
  AccountLoad(rep.load, "traced-load", result);
  const double span_s =
      NsToSeconds(rep.load.last_response_ns - rep.load.first_send_ns);
  rep.ops_per_s =
      span_s > 0 ? static_cast<double>(rep.load.response_ns.size()) / span_s : 0;
  if (config.firehose) fs::remove_all(kTracedDataDir);
  return rep;
}


void RecordLayers(const ServeConfig& config, const Rep& plain,
                  const TracedRep& traced, double generate_s, Result& result) {
  const double clock_ns = ClockOverheadNs();
  const LoadOutcome& load = traced.load;
  const auto responses = static_cast<double>(load.response_ns.size());
  result.Layer("workload.generate_s", generate_s);
  result.Layer("sched.pool_order.calls", static_cast<double>(traced.pool_order.calls));
  result.Layer("sched.pool_order.ns_per_call", traced.pool_order.NetNsPerCall(clock_ns));
  result.Layer("core.policy.calls", static_cast<double>(traced.policy.calls));
  result.Layer("core.policy.ns_per_call", traced.policy.NetNsPerCall(clock_ns));
  result.Layer("core.policy.move_ratio",
               traced.policy.calls == 0
                   ? 0
                   : static_cast<double>(traced.policy_moves) /
                         static_cast<double>(traced.policy.calls));
  result.Layer("service.codec.encode_ns", load.encode.NetNsPerCall(clock_ns));
  // Decoding times one Feed per recv() plus one decode per frame.
  CallStats decode_sections = load.decode;
  decode_sections.calls += load.recv_calls;
  result.Layer("service.codec.decode_ns",
               load.decode.calls == 0 ? 0
                                      : decode_sections.NetNs(clock_ns) /
                                            static_cast<double>(load.decode.calls));
  result.Layer("net.frames_per_recv",
               load.recv_calls == 0 ? 0
                                    : static_cast<double>(load.frames) /
                                          static_cast<double>(load.recv_calls));
  result.Layer("net.recv_block_share",
               load.session_ns == 0 ? 0
                                    : static_cast<double>(load.blocked_ns) /
                                          static_cast<double>(load.session_ns));
  result.Layer("service.forwarded_share",
               responses == 0 ? 0 : static_cast<double>(load.forwarded) / responses);
  result.Layer("service.rtt_local_p50_us", Median(load.rtt_local_us));
  result.Layer("service.rtt_forwarded_p50_us", Median(load.rtt_forwarded_us));
  // From the untraced repetition: the shipped binary's own accounting.
  const DaemonStats& stats = plain.stats;
  result.Layer("service.decisions_per_s_q1", plain.q1_per_s);
  result.Layer("service.decisions_per_s_q4", plain.q4_per_s);
  result.Layer("service.admit_to_place_p50_us",
               static_cast<double>(stats.placement_latency_ns.count("p50")
                                       ? stats.placement_latency_ns.at("p50")
                                       : 0) / 1e3);
  result.Layer("cluster.preempted", static_cast<double>(stats.Get("jobs.preempted")));
  result.Layer("cluster.enqueued", static_cast<double>(stats.Get("jobs.enqueued")));
  result.Layer("cluster.rescheduled",
               static_cast<double>(stats.Get("jobs.rescheduled")));
  result.Layer("cluster.completed", static_cast<double>(stats.Get("jobs.completed")));
  result.Layer("cluster.waiting_max",
               static_cast<double>(stats.Max("cluster.waiting_jobs")));
  const auto answered = static_cast<double>(plain.load.response_ns.size());
  result.Layer("persist.wal_bytes_per_decision",
               answered == 0 ? 0
                             : static_cast<double>(stats.Get("daemon.wal_bytes")) /
                                   answered);
  result.Layer("persist.recovery_ms",
               static_cast<double>(plain.restarted_stats.Get("daemon.recovery_ms")));
  result.Layer("persist.plan_s", plain.plan_s);
  result.Layer("persist.plan_records", plain.plan_records);
  std::vector<double> late = plain.load.late_us;
  result.Layer("loadgen.late_p99_us", Percentile(late, 0.99));
  result.Layer("e2e.ops_per_s", plain.wall_ops_per_s);
  if (config.firehose) {
    result.Layer("trace_overhead", plain.ops_per_s / traced.ops_per_s - 1.0);
  } else {
    result.Layer("trace_overhead",
                 Median(traced.load.latency_us) / Median(plain.load.latency_us) - 1.0);
  }
}

}  // namespace

void RunServeBench(const netbatch::Flags& flags, Result& result) {
  ServeConfig config;
  const std::string mode = flags.GetString("mode", "firehose");
  NETBATCH_CHECK(mode == "firehose" || mode == "paced",
                 "--mode must be firehose or paced");
  config.firehose = mode == "firehose";
  config.netbatchd = flags.GetString("netbatchd", "");
  NETBATCH_CHECK(!config.netbatchd.empty(), "--netbatchd is required");
  config.scale = flags.GetDouble("scale", 1.0);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 10);
  config.traced = flags.GetBool("trace", false);
  RejectUnusedFlags(flags);

  result.Param("daemon_command", Join(config.DaemonArgv()));
  result.Param("load", config.firehose
                           ? "closed loop, " + std::to_string(kSessions) +
                                 " sessions x " + std::to_string(kWindow) +
                                 " in flight"
                           : "open loop, " + std::to_string(kSessions) +
                                 " sessions, " +
                                 std::to_string(static_cast<long long>(kSpeed)) +
                                 "x trace time");
  result.Param("workload", "normal preset, scale " + std::to_string(config.scale) +
                               ", seed " + std::to_string(config.seed));
  if (!config.firehose) {
    result.Param("late_bound_us", std::to_string(kLateBoundUs));
  }

  const std::uint64_t generate_start = NowNs();
  const netbatch::workload::Trace trace = netbatch::workload::GenerateTrace(
      netbatch::runner::ResolveScenario("normal", config.scale, config.seed)
          .workload);
  const double generate_s = NsToSeconds(NowNs() - generate_start);
  result.Param("submits_per_repetition", std::to_string(trace.size()));

  std::size_t reps = 0;
  std::size_t setups = 0;
  LatencyWindows windows;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(config.seconds * 1e9);
  do {
    const Rep plain = RunUntracedRep(config, trace, config.traced, result);
    ++reps;
    ++setups;
    windows.Add(plain.load);
    if (config.traced) {
      const TracedRep traced = RunTracedRep(config, trace, result);
      RecordLayers(config, plain, traced, generate_s, result);
    }
  } while (NowNs() < deadline);
  std::size_t recoveries = reps;
  while (setups < kMinLifecycleSamples) {
    const bool want_recovery = !config.firehose && recoveries < kMinLifecycleSamples;
    RunLifecycle(config, want_recovery, result);
    ++setups;
    recoveries += want_recovery ? 1 : 0;
  }
  if (config.firehose) fs::remove_all(kDataDir);

  if (!windows.Valid()) {
    std::fprintf(stderr,
                 "nbbench: latency invalid: no window had enough requests "
                 "sent within %.0fus of their due time\n", kLateBoundUs);
  }
  result.Param("latency_valid", windows.Valid() ? "true" : "false");
  // The p99 is too noisy on a shared host to gate; the traced run reports
  // the untraced repetitions' figure.
  if (config.traced) {
    result.Layer("e2e.latency_p99_us",
                 windows.Median(&LatencyWindows::Window::p99_us));
  } else {
    result.Sample("latency_p50_us",
                  windows.Median(&LatencyWindows::Window::p50_us));
  }
  result.Param("latency_windows", std::to_string(windows.windows.size()));
  result.Param("latency_windows_invalid", std::to_string(windows.Invalid()));
  result.Param("repetitions", std::to_string(reps));
}

}  // namespace nbbench
