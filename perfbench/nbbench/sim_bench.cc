// nbbench sim — the simulator workloads (sim-paper, sim-bigpool).
//
// Each round runs every preset once on the classic engine
// (cluster::NetBatchSimulation, one thread): generate the trace, build the
// engine, Run() it, build the report. Rounds repeat until --seconds have
// passed. Untraced rounds report:
//   ops_per_cpu_s   fired events / CPU seconds inside Run(), over the round
//   latency_p50_us  median CPU time per simulated minute of the
//                   submission window, over every round
//   setup_s         trace generation + engine construction, over the round
//   recovery_s      reloading the saved trace file + engine construction,
//                   over the round
// (both in this thread's CPU seconds; the wall times go to *_wall)
//   peak_rss_mb     this process's VmHWM after the first round
// With --trace=1 each round runs every preset twice, untraced and with the
// timing decorators of layer_timers.h, and reports per-layer samples plus
// the untraced runs' wall-clock events/s (e2e.ops_per_s) and p99
// per-minute CPU time (e2e.latency_p99_us).
//
// Checks: every job completes or is rejected; a preset repeated at the same
// seed reproduces its counters and report exactly; the traced run of a
// preset reproduces the untraced run's jobs.*/cluster.* counters and
// report; the reloaded trace equals the generated one.
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/simulation.h"
#include "common/check.h"
#include "common/counters.h"
#include "core/policies.h"
#include "layer_timers.h"
#include "metrics/collector.h"
#include "metrics/report_json.h"
#include "runner/parse.h"
#include "runner/scenarios.h"
#include "sched/round_robin.h"
#include "workload/generator.h"
#include "workload/trace_io.h"

namespace nbbench {
namespace {

using netbatch::Ticks;
namespace cluster = netbatch::cluster;
namespace workload = netbatch::workload;

struct SimConfig {
  std::vector<std::string> presets;
  netbatch::core::PolicyKind policy = netbatch::core::PolicyKind::kNoRes;
  double scale = 1.0;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

// Records this thread's CPU time between consecutive sample ticks: the cost
// of simulating one minute of cluster time. CPU time, like ops_per_cpu_s,
// because time the hypervisor steals from the vCPU is not the engine's
// cost. Only minutes up to the trace's
// last submission count; the drain that follows (long jobs finishing on an
// idle cluster) would otherwise swamp the distribution with empty minutes.
class MinuteClock final : public cluster::SimulationObserver {
 public:
  MinuteClock(std::vector<double>& out_us, Ticks horizon)
      : out_us_(out_us), horizon_(horizon) {}
  void Start() { last_ns_ = ThreadCpuNs(); }
  void OnSample(Ticks now_ticks, const cluster::ClusterView&) override {
    if (now_ticks > horizon_) return;
    const std::uint64_t now = ThreadCpuNs();
    out_us_.push_back(static_cast<double>(now - last_ns_) / 1e3);
    last_ns_ = now;
  }

 private:
  std::vector<double>& out_us_;
  Ticks horizon_;
  std::uint64_t last_ns_ = 0;
};

// Everything one simulation run owns. The engine holds references into the
// scheduler and policy, so they live (and die) together.
struct SimInstance {
  std::unique_ptr<cluster::InitialScheduler> scheduler;
  std::unique_ptr<cluster::ReschedulingPolicy> policy;
  std::unique_ptr<cluster::NetBatchSimulation> simulation;
  TimedScheduler* timed_scheduler = nullptr;  // set when traced
  TimedPolicy* timed_policy = nullptr;
};

SimInstance BuildSimulation(const SimConfig& config,
                            const netbatch::runner::Scenario& scenario,
                            const workload::Trace& trace, bool traced) {
  SimInstance instance;
  netbatch::core::PolicyOptions policy_options;
  policy_options.seed = config.seed;
  instance.scheduler = std::make_unique<netbatch::sched::RoundRobinScheduler>();
  instance.policy = netbatch::core::MakePolicy(config.policy, policy_options);
  if (traced) {
    auto scheduler = std::make_unique<TimedScheduler>(std::move(instance.scheduler));
    auto policy = std::make_unique<TimedPolicy>(std::move(instance.policy));
    instance.timed_scheduler = scheduler.get();
    instance.timed_policy = policy.get();
    instance.scheduler = std::move(scheduler);
    instance.policy = std::move(policy);
  }
  instance.simulation = std::make_unique<cluster::NetBatchSimulation>(
      scenario.cluster, trace, *instance.scheduler, *instance.policy);
  return instance;
}

// The decision fingerprint of a finished run: every jobs.* counter, every
// cluster.* gauge (value and max), the fired-event count, and the report.
std::string Fingerprint(const cluster::NetBatchSimulation& simulation,
                        const netbatch::metrics::MetricsReport& report) {
  const netbatch::CounterSnapshot snap = simulation.counters().TakeSnapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("jobs.", 0) == 0) out << name << '=' << value << '\n';
  }
  for (const auto& [name, value, max] : snap.gauges) {
    if (name.rfind("cluster.", 0) == 0) {
      out << name << '=' << value << '/' << max << '\n';
    }
  }
  out << "events=" << simulation.simulator().FiredEvents() << '\n'
      << netbatch::metrics::ReportToJson(report);
  return out.str();
}

std::uint64_t CounterValue(const cluster::NetBatchSimulation& simulation,
                           const char* name) {
  const netbatch::Counter* counter = simulation.counters().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

struct RunOutcome {
  double setup_s = 0;       // this thread's CPU time
  double setup_wall_s = 0;
  double generate_s = 0;
  double run_s = 0;
  double run_cpu_s = 0;  // this thread's CPU time inside Run()
  std::uint64_t events = 0;
  std::string fingerprint;
  bool complete = false;
  // Traced runs only.
  CallStats pool_order;
  CallStats policy;
  std::uint64_t policy_moves = 0;
  CallStats observer;
  CallStats on_sample;
  std::uint64_t preempted = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t rescheduled = 0;
  std::uint64_t completed = 0;
  std::int64_t waiting_max = 0;
};

// One preset, end to end. `minute_us` collects per-minute CPU times
// (untraced runs only); `trace_out` receives the generated trace.
RunOutcome RunPreset(const SimConfig& config, const std::string& preset,
                     bool traced, std::vector<double>* minute_us,
                     workload::Trace* trace_out) {
  RunOutcome outcome;
  const std::uint64_t setup_start = NowNs();
  const std::uint64_t setup_cpu_start = ThreadCpuNs();
  const netbatch::runner::Scenario scenario =
      netbatch::runner::ResolveScenario(preset, config.scale, config.seed);
  const std::uint64_t generate_start = NowNs();
  workload::Trace trace = workload::GenerateTrace(scenario.workload);
  outcome.generate_s = NsToSeconds(NowNs() - generate_start);
  SimInstance instance = BuildSimulation(config, scenario, trace, traced);
  netbatch::metrics::MetricsCollector collector;
  TimedObserver timed_collector(collector);
  std::vector<double> unused_minutes;
  MinuteClock minute_clock(minute_us != nullptr ? *minute_us : unused_minutes,
                           trace.empty() ? 0 : trace[trace.size() - 1].submit_time);
  if (traced) {
    instance.simulation->AddObserver(&timed_collector);
  } else {
    instance.simulation->AddObserver(&collector);
    if (minute_us != nullptr) instance.simulation->AddObserver(&minute_clock);
  }
  outcome.setup_s = NsToSeconds(ThreadCpuNs() - setup_cpu_start);
  outcome.setup_wall_s = NsToSeconds(NowNs() - setup_start);

  minute_clock.Start();
  const std::uint64_t run_start = NowNs();
  const std::uint64_t cpu_start = ThreadCpuNs();
  instance.simulation->Run();
  outcome.run_cpu_s = NsToSeconds(ThreadCpuNs() - cpu_start);
  outcome.run_s = NsToSeconds(NowNs() - run_start);

  cluster::NetBatchSimulation& simulation = *instance.simulation;
  outcome.events = simulation.simulator().FiredEvents();
  const netbatch::metrics::MetricsReport report =
      collector.BuildReport(simulation, preset);
  outcome.fingerprint = Fingerprint(simulation, report);
  outcome.complete =
      simulation.completed_count() + simulation.rejected_count() ==
          trace.size() &&
      CounterValue(simulation, "jobs.submitted") == trace.size();
  simulation.CheckInvariants();  // aborts on any violated invariant

  if (traced) {
    outcome.pool_order = instance.timed_scheduler->pool_order();
    outcome.policy = instance.timed_policy->decisions();
    outcome.policy_moves = instance.timed_policy->moves();
    outcome.observer = timed_collector.all_hooks();
    outcome.on_sample = timed_collector.on_sample();
  }
  outcome.preempted = CounterValue(simulation, "jobs.preempted");
  outcome.enqueued = CounterValue(simulation, "jobs.enqueued");
  outcome.rescheduled = CounterValue(simulation, "jobs.rescheduled");
  outcome.completed = CounterValue(simulation, "jobs.completed");
  if (const netbatch::Gauge* waiting =
          simulation.counters().FindGauge("cluster.waiting_jobs")) {
    outcome.waiting_max = waiting->max();
  }
  if (trace_out != nullptr) *trace_out = std::move(trace);
  return outcome;
}

// CPU and wall seconds of one timed stage.
struct StageTime {
  double cpu_s = 0;
  double wall_s = 0;
  StageTime& operator+=(const StageTime& other) {
    cpu_s += other.cpu_s;
    wall_s += other.wall_s;
    return *this;
  }
};

// The restart path of a simulation study: rebuild the engine from the trace
// file a previous run saved (netbatch_cli --trace-in). Returns the time from
// opening the file to a constructed engine, and checks the round trip.
StageTime MeasureReload(const SimConfig& config, const std::string& preset,
                        const workload::Trace& trace, Result& result) {
  const std::string path = preset + ".trace.csv";  // in the run's directory
  workload::WriteTraceFile(trace, path);
  const std::uint64_t start = NowNs();
  const std::uint64_t cpu_start = ThreadCpuNs();
  const workload::Trace reloaded = workload::ReadTraceFile(path);
  const netbatch::runner::Scenario scenario =
      netbatch::runner::ResolveScenario(preset, config.scale, config.seed);
  SimInstance instance = BuildSimulation(config, scenario, reloaded, false);
  const StageTime reload{NsToSeconds(ThreadCpuNs() - cpu_start),
                         NsToSeconds(NowNs() - start)};
  std::remove(path.c_str());
  bool same = reloaded.size() == trace.size();
  for (std::size_t i = 0; same && i < trace.size(); ++i) {
    same = reloaded[i] == trace[i];
  }
  result.Check("trace-reload-identical/" + preset, same,
               same ? "" : "reloaded trace differs from the generated one");
  result.Attempt(1, same ? 0 : 1);
  return reload;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

void RunSimBench(const netbatch::Flags& flags, Result& result) {
  SimConfig config;
  config.presets = SplitCommas(flags.GetString("presets", "normal"));
  const std::string policy_name = flags.GetString("policy", "ResSusWaitUtil");
  const auto policy = netbatch::core::ParsePolicyKind(policy_name);
  NETBATCH_CHECK(policy.has_value(), "unknown --policy " + policy_name);
  config.policy = *policy;
  config.scale = flags.GetDouble("scale", 1.0);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 10);
  config.traced = flags.GetBool("trace", false);
  NETBATCH_CHECK(!config.presets.empty(), "--presets is empty");
  RejectUnusedFlags(flags);

  result.Param("engine", "cluster::NetBatchSimulation (classic, shards=0)");
  result.Param("presets", flags.GetString("presets", "normal"));
  result.Param("policy", policy_name);
  result.Param("scheduler", "rr");
  result.Param("scale", std::to_string(config.scale));
  result.Param("seed", std::to_string(config.seed));

  std::map<std::string, std::string> first_fingerprint;
  std::vector<double> minute_us;
  std::size_t rounds = 0;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(config.seconds * 1e9);
  do {
    double round_run_s = 0;
    double round_cpu_s = 0;
    double round_traced_run_s = 0;
    std::uint64_t round_events = 0;
    StageTime round_setup;
    StageTime round_reload;
    RunOutcome sum;  // per-layer totals over this round's presets
    for (const std::string& preset : config.presets) {
      workload::Trace trace;
      const RunOutcome plain = RunPreset(
          config, preset, false, &minute_us, &trace);
      result.Attempt(1, plain.complete ? 0 : 1);
      result.Check("all-jobs-finished/" + preset, plain.complete,
                   "completed + rejected != submitted");
      const auto [it, inserted] =
          first_fingerprint.emplace(preset, plain.fingerprint);
      if (!inserted) {
        result.Check("repeat-identical/" + preset,
                     it->second == plain.fingerprint,
                     "a repeated run at the same seed changed its decisions");
      }
      round_run_s += plain.run_s;
      round_cpu_s += plain.run_cpu_s;
      round_events += plain.events;
      if (!config.traced) {
        round_setup += StageTime{plain.setup_s, plain.setup_wall_s};
        round_reload += MeasureReload(config, preset, trace, result);
        continue;
      }
      const RunOutcome traced = RunPreset(config, preset, true, nullptr, nullptr);
      result.Attempt(1, traced.complete ? 0 : 1);
      result.Check("traced-equals-untraced/" + preset,
                   traced.fingerprint == plain.fingerprint,
                   "the timing decorators changed a decision");
      round_traced_run_s += traced.run_s;
      sum.generate_s += traced.generate_s;
      sum.events += traced.events;
      sum.pool_order += traced.pool_order;
      sum.policy += traced.policy;
      sum.policy_moves += traced.policy_moves;
      sum.observer += traced.observer;
      sum.on_sample += traced.on_sample;
      sum.preempted += traced.preempted;
      sum.enqueued += traced.enqueued;
      sum.rescheduled += traced.rescheduled;
      sum.completed += traced.completed;
      sum.waiting_max = std::max(sum.waiting_max, traced.waiting_max);
    }
    ++rounds;
    if (!config.traced) {
      result.Sample("ops_per_cpu_s", static_cast<double>(round_events) / round_cpu_s);
      // Per round, not per preset: the presets differ in cost, and the
      // median of such a mix jumps between them.
      result.Sample("setup_s", round_setup.cpu_s);
      result.Sample("setup_s_wall", round_setup.wall_s);
      result.Sample("recovery_s", round_reload.cpu_s);
      result.Sample("recovery_s_wall", round_reload.wall_s);
      // One pass over the presets sets the peak; later rounds would only
      // add allocator noise.
      if (rounds == 1) result.Sample("peak_rss_mb", PeakRssMb(0));
      continue;
    }
    // Layer times exclude the timer's own cost; the engine's self time is
    // what remains of the untraced Run() once the layers' time is removed.
    const double clock_ns = ClockOverheadNs();
    const auto events = static_cast<double>(sum.events);
    result.Layer("workload.generate_s", sum.generate_s);
    result.Layer("sim.events", events);
    result.Layer("sched.pool_order.calls", static_cast<double>(sum.pool_order.calls));
    result.Layer("sched.pool_order.ns_per_call", sum.pool_order.NetNsPerCall(clock_ns));
    result.Layer("core.policy.calls", static_cast<double>(sum.policy.calls));
    result.Layer("core.policy.ns_per_call", sum.policy.NetNsPerCall(clock_ns));
    result.Layer("core.policy.move_ratio",
                 sum.policy.calls == 0
                     ? 0
                     : static_cast<double>(sum.policy_moves) /
                           static_cast<double>(sum.policy.calls));
    result.Layer("metrics.observer.ns_per_event", sum.observer.NetNs(clock_ns) / events);
    result.Layer("metrics.on_sample.ns_per_call", sum.on_sample.NetNsPerCall(clock_ns));
    const double layers_ns = sum.pool_order.NetNs(clock_ns) +
                             sum.policy.NetNs(clock_ns) +
                             sum.observer.NetNs(clock_ns);
    result.Layer("sim.engine_self_ns_per_event",
                 (round_run_s * 1e9 - layers_ns) / events);
    result.Layer("cluster.preempted", static_cast<double>(sum.preempted));
    result.Layer("cluster.enqueued", static_cast<double>(sum.enqueued));
    result.Layer("cluster.rescheduled", static_cast<double>(sum.rescheduled));
    result.Layer("cluster.completed", static_cast<double>(sum.completed));
    result.Layer("cluster.waiting_max", static_cast<double>(sum.waiting_max));
    result.Layer("trace_overhead", round_traced_run_s / round_run_s - 1.0);
    result.Layer("e2e.ops_per_s", static_cast<double>(round_events) / round_run_s);
  } while (NowNs() < deadline);

  // Pooled over every round: a contention spike on a shared host moves
  // the few minutes it covers, where a per-round percentile would jump.
  // The p99 is too noisy there to gate; the traced run reports it.
  result.Param("latency_samples", std::to_string(minute_us.size()));
  if (config.traced) {
    result.Layer("e2e.latency_p99_us", Percentile(minute_us, 0.99));
  } else {
    result.Sample("latency_p50_us", Percentile(minute_us, 0.50));
  }
  result.Param("rounds", std::to_string(rounds));
}

}  // namespace nbbench
