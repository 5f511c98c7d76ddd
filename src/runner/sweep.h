// The experiment API: specs and the parallel, deterministic sweep engine.
//
// A paper artifact is never one simulation — it is a *set* of runs
// (scenario x scheduler x policy x seed) whose results are compared or
// averaged. This header makes that set the unit of work:
//
//   * ExperimentSpec — one fully described run, with a fluent SpecBuilder
//     and a stable string label ("high/rr/ResSusUtil/s42");
//   * RunSweep — executes a set of specs on a fixed-size worker pool,
//     generating each distinct (scenario, seed) trace exactly once and
//     sharing it immutably across runs;
//   * SummarizeSweep — aggregates per-spec replications (same spec,
//     different seeds) into mean / stddev / 95%-CI summary rows, with
//     text-table, CSV and JSON export.
//
// Determinism is a hard requirement: every run draws its policy and outage
// randomness from splitmix-derived substreams keyed by its spec's label and
// seed, and results land in spec order regardless of which worker finishes
// first — a sweep at `jobs = 8` is bit-identical to the same sweep at
// `jobs = 1`.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/config.h"
#include "cluster/simulation.h"
#include "common/counters.h"
#include "common/stats.h"
#include "core/policies.h"
#include "metrics/collector.h"
#include "metrics/report.h"
#include "runner/parse.h"
#include "runner/scenarios.h"
#include "workload/trace.h"

namespace netbatch::runner {

// Everything measured from one run.
struct ExperimentResult {
  metrics::MetricsReport report;
  std::vector<metrics::Sample> samples;
  EmpiricalCdf suspension_cdf;  // per-job suspension minutes (Fig. 2)
  workload::TraceStats trace_stats;
  std::uint64_t fired_events = 0;
  // Profiling: this run's wall-clock execution time (simulation only, not
  // trace generation) and the end-of-run snapshot of the simulation's
  // counter registry (jobs.*, vpm.*, outages.*, audit.*, cluster.*).
  double wall_seconds = 0;
  CounterSnapshot counters;

  // Simulator throughput; 0 when the run was too fast to time.
  double EventsPerSecond() const {
    return wall_seconds > 0
               ? static_cast<double>(fired_events) / wall_seconds
               : 0.0;
  }
};

// A caller-built policy plus any observers it depends on (e.g. the
// PoolLoadPredictor a PredictorSelector reads). The sweep engine attaches
// the observers to the simulation and keeps everything alive for the run.
// `policy` is declared first so observers a policy points into outlive it
// during destruction.
struct PolicyInstance {
  std::unique_ptr<cluster::ReschedulingPolicy> policy;
  std::vector<std::unique_ptr<cluster::SimulationObserver>> observers;
};

// Builds one run's policy. Invoked once per run on the worker executing it
// (policies are stateful — RandomSelector owns an Rng — so instances are
// never shared across runs). `run_seed` is the run's splitmix-derived
// substream seed; factories needing randomness must seed from it, nothing
// else, or jobs=8 and jobs=1 sweeps diverge.
using PolicyFactory = std::function<PolicyInstance(std::uint64_t run_seed)>;

// One fully described run. Build with SpecBuilder; aggregate-initialize
// only in tests that need a pathological spec.
struct ExperimentSpec {
  std::string scenario_name = "custom";  // label + trace-dedup key
  Scenario scenario;
  // Replication seed: overrides scenario.workload.seed for trace
  // generation, and roots the run's policy/outage substreams. Two specs
  // with equal (scenario_name, seed) share one generated trace.
  std::uint64_t seed = 42;
  InitialSchedulerKind scheduler = InitialSchedulerKind::kRoundRobin;
  Ticks scheduler_staleness = 0;
  core::PolicyKind policy = core::PolicyKind::kNoRes;
  core::PolicyOptions policy_options;  // seed is superseded by RunSeed()
  std::string policy_label;   // names a custom policy; empty => ToString
  PolicyFactory policy_factory;  // overrides `policy` when set
  cluster::SimulationOptions sim_options;
  // Report-row label override (e.g. plain "ResSusUtil" in a paper table);
  // empty => Label().
  std::string display_label;

  std::string PolicyName() const;  // policy_label or ToString(policy)
  // Stable label without the seed — the replication-grouping key:
  //   "<scenario>/<rr|util>/<policy>"
  std::string GroupLabel() const;
  std::string Label() const;  // GroupLabel() + "/s<seed>"
  std::string DisplayLabel() const;
  // The run's substream root, splitmix-derived from (seed, GroupLabel()):
  // independent across specs, identical across executions.
  std::uint64_t RunSeed() const;
};

// Fluent spec construction:
//   SpecBuilder()
//       .Scenario("high", HighLoadScenario(scale))
//       .Scheduler(InitialSchedulerKind::kUtilization)
//       .Policy(core::PolicyKind::kResSusWaitUtil)
//       .Seed(7)
//       .Build()
class SpecBuilder {
 public:
  SpecBuilder& Scenario(std::string name, runner::Scenario scenario);
  SpecBuilder& Seed(std::uint64_t seed);
  SpecBuilder& Scheduler(InitialSchedulerKind kind, Ticks staleness = 0);
  SpecBuilder& Policy(core::PolicyKind kind);
  // A policy the factory cannot name; `label` becomes the spec's policy
  // name for labels and grouping.
  SpecBuilder& CustomPolicy(std::string label, PolicyFactory factory);
  // The §5 DupSusUtil extension (duplicate instead of restart).
  SpecBuilder& Duplication();
  SpecBuilder& WaitThreshold(Ticks threshold);
  SpecBuilder& SimOptions(cluster::SimulationOptions options);
  SpecBuilder& DisplayLabel(std::string label);
  ExperimentSpec Build() const { return spec_; }

 private:
  ExperimentSpec spec_;
};

// ---- single-run primitives ------------------------------------------------

// Generates the spec's trace: the scenario's workload with the spec's seed.
workload::Trace GenerateSpecTrace(const ExperimentSpec& spec);

// Executes one spec on a caller-provided (shared, immutable) trace.
ExperimentResult RunSpec(const ExperimentSpec& spec,
                         const workload::Trace& trace);

// Generates the spec's trace and runs it (the one-off convenience path).
ExperimentResult RunSingle(const ExperimentSpec& spec);

// Lowest-level primitive: run the spec's scenario / scheduler / sim options
// with a caller-owned policy instance. Prefer Policy/CustomPolicy specs —
// this exists for callers that must observe or reuse the policy object.
ExperimentResult RunSpecWithPolicy(
    const ExperimentSpec& spec, const workload::Trace& trace,
    cluster::ReschedulingPolicy& policy, std::string label,
    const std::vector<cluster::SimulationObserver*>& extra_observers = {});

// ---- the sweep runner -----------------------------------------------------

struct SweepOptions {
  // Worker threads; 0 = hardware concurrency. Any value yields the same
  // results, bit for bit.
  unsigned jobs = 0;
};

struct SweepResult {
  std::vector<ExperimentSpec> specs;       // as submitted
  std::vector<ExperimentResult> results;   // 1:1 with specs, in spec order
  std::size_t generated_trace_count = 0;   // distinct (scenario, seed) pairs
  double wall_seconds = 0;
};

// Runs every spec: deduplicates traces by (scenario_name, seed) — each
// generated once, shared read-only — and executes runs on a `jobs`-wide
// worker pool. scenario_name must identify the scenario's configuration
// within one sweep: two specs may share a name only if their scenarios are
// identical.
SweepResult RunSweep(std::vector<ExperimentSpec> specs,
                     const SweepOptions& options = {});

// As RunSweep, but every spec replays the caller's trace (no generation) —
// e.g. ablation grids over sim options on one fixed workload.
SweepResult RunSweepOnTrace(std::vector<ExperimentSpec> specs,
                            const workload::Trace& trace,
                            const SweepOptions& options = {});

// ---- replication aggregation ---------------------------------------------

// One spec group (same GroupLabel, different seeds) summarized over its
// replications: mean / sample stddev / normal-approximation 95% CI.
struct SweepSummaryRow {
  std::string label;  // the group label
  std::size_t replications = 0;
  SampleSummary suspend_rate;
  SampleSummary avg_ct_all;
  SampleSummary avg_ct_suspended;
  SampleSummary avg_st;
  SampleSummary avg_wct;
  SampleSummary reschedules;
};

// Groups results by spec GroupLabel() in first-appearance order.
std::vector<SweepSummaryRow> SummarizeSweep(const SweepResult& sweep);

// "mean ± ci95" text table, one row per spec group.
std::string RenderSweepSummary(const std::vector<SweepSummaryRow>& rows);

// CSV: one row per group, mean/stddev/ci95 columns per metric.
void WriteSweepSummaryCsv(std::ostream& out,
                          const std::vector<SweepSummaryRow>& rows);

// JSON document with both per-run reports (spec order) and summary rows.
std::string SweepToJson(const SweepResult& sweep,
                        const std::vector<SweepSummaryRow>& rows);

}  // namespace netbatch::runner
