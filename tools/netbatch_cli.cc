// netbatch_cli — run arbitrary NetBatchSim experiments from the shell.
//
// Examples:
//   # Table-2-style run, full paper scale, custom seed:
//   netbatch_cli --scenario=high --policy=ResSusUtil --scale=1 --seed=7
//
//   # Compare all five paper policies on one generated trace:
//   netbatch_cli --scenario=normal --compare
//
//   # A parallel factorial sweep with replications and a JSON summary:
//   netbatch_cli sweep --scenario=high --policies=NoRes,ResSusUtil
//       --schedulers=rr,util --seeds=42,43,44,45 --jobs=8
//       --json-out=sweep.json
//
//   # Persist the generated workload, then replay it later:
//   netbatch_cli --scenario=normal --workload-out=/tmp/trace.csv
//   netbatch_cli --trace-in=/tmp/trace.csv --policy=ResSusWaitRand
//
//   # Export the per-minute utilization/suspension series as CSV:
//   netbatch_cli --scenario=year --samples-out=/tmp/series.csv
//
//   # Export a Chrome-trace / Perfetto timeline of the run:
//   netbatch_cli --scenario=normal --trace-out=/tmp/run.json
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "netbatch.h"
#include "subcommand.h"

using namespace netbatch;

namespace {

constexpr const char* kUsage = R"(netbatch_cli — NetBatchSim experiment driver

Single-run flags:
  --config=<file.ini>                    load experiment settings from an
                                         INI file (flags below override it)
  --scenario=<name|preset.ini>           scenario preset: normal | high |
                                         highsusp | year | bigpool, or the
                                         path of a workload preset file
                                         written by `calibrate --emit-preset`
                                         (default normal)
  --scale=<0..1>                         cluster/workload scale (default 0.25)
  --seed=<n>                             workload seed (default 42)
  --policy=<name>                        NoRes | ResSusUtil | ResSusRand |
                                         ResSusWaitUtil | ResSusWaitRand |
                                         DupSusUtil        (default NoRes)
  --compare                              run all five paper policies instead
  --scheduler=rr|util                    initial scheduler (default rr)
  --staleness=<min>                      utilization snapshot staleness
  --threshold=<min>                      wait-reschedule threshold (default 30)
  --overhead=<min>                       restart transfer overhead (default 0)
  --checkpoint=<min>                     checkpoint interval in work minutes
  --mtbf=<min> --mttr=<min>              machine failure injection
  --trace-in=<path>                      replay a CSV trace instead of
                                         generating one
  --workload-out=<path>                  write the generated workload as CSV
  --trace-out=<path>                     write the run as Chrome-trace JSON
                                         (open in ui.perfetto.dev)
  --samples-out=<path>                   write the per-minute samples as CSV
  --events-out=<path>                    write the per-job event log as CSV
  --json-out=<path>                      write the report(s) as JSON
  --profile                              print wall-clock time and events/sec
  --counters                             print the simulation counter registry
  --audit-every=<min>                    run the invariant auditor every that
                                         many simulated minutes (0 = off;
                                         any violation aborts the run)
  --cdf                                  print the suspension-time CDF
  --help                                 this text

Sweep subcommand — a parallel factorial scenario x scheduler x policy x
seed sweep with per-spec mean/stddev/95%-CI aggregation. Deterministic:
any --jobs value produces bit-identical reports.

  netbatch_cli sweep [flags]
  --scenario=<preset>                    as above (one scenario per sweep)
  --scale=<0..1>
  --policies=<a,b,...>                   default: all five paper policies
  --schedulers=rr,util                   default: rr
  --seeds=<s1,s2,...>                    explicit replication seeds, or
  --seed=<n> --replications=<k>          seeds n, n+1, ..., n+k-1
  --jobs=<n>                             worker threads (default: all cores)
  --staleness/--threshold/--overhead/--checkpoint/--mtbf/--mttr/--audit-every
  --profile                              per-run wall-clock / events/sec table
  --csv-out=<path>                       summary rows as CSV
  --json-out=<path>                      per-run reports + summary as JSON

Calibrate subcommand — fit the workload generator to an observed trace
(calib/fit.h) and optionally save the result as a scenario preset usable
anywhere --scenario is accepted:

  netbatch_cli calibrate --in=<trace.csv> [flags]
  --emit-preset=<path>                   write the fitted GeneratorConfig as
                                         a workload preset INI
  --report                               regenerate a trace from the fit and
                                         print the goodness-of-fit report
                                         (KS statistics, quantile tables)
)";

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

void WriteSamplesCsv(const std::string& path,
                     const std::vector<metrics::Sample>& samples) {
  std::ofstream out(path);
  NETBATCH_CHECK(static_cast<bool>(out), "cannot open --samples-out path");
  out << "minute,utilization,suspended_jobs,waiting_jobs\n";
  for (const metrics::Sample& sample : samples) {
    out << TicksToMinutes(sample.time) << ',' << sample.utilization << ','
        << sample.suspended_jobs << ',' << sample.waiting_jobs << '\n';
  }
}

void PrintResult(const runner::ExperimentResult& result, bool print_cdf) {
  std::printf("%s\n", metrics::RenderPaperTable({result.report}).c_str());
  std::printf("%s\n", metrics::RenderWasteComponents({result.report}).c_str());
  std::printf("preemptions=%llu reschedules=%llu rejected=%zu events=%llu\n",
              static_cast<unsigned long long>(result.report.preemption_count),
              static_cast<unsigned long long>(result.report.reschedule_count),
              result.report.rejected_count,
              static_cast<unsigned long long>(result.fired_events));
  if (print_cdf && result.suspension_cdf.count() > 0) {
    std::printf("\n%s\n",
                analysis::RenderSuspensionCdf(result.suspension_cdf).c_str());
  }
}

// Applies the sweep-relevant sim/policy flags onto a builder-produced spec.
struct SharedKnobs {
  Ticks staleness = 0;
  Ticks threshold = MinutesToTicks(30);
  cluster::SimulationOptions sim_options;
};

SharedKnobs ReadSharedKnobs(const Flags& flags) {
  SharedKnobs knobs;
  knobs.staleness = MinutesToTicks(flags.GetInt("staleness", 0));
  knobs.threshold = MinutesToTicks(flags.GetInt("threshold", 30));
  knobs.sim_options.restart_overhead =
      MinutesToTicks(flags.GetInt("overhead", 0));
  knobs.sim_options.checkpoint_interval =
      MinutesToTicks(flags.GetInt("checkpoint", 0));
  knobs.sim_options.outages.mtbf_minutes =
      static_cast<double>(flags.GetInt("mtbf", 0));
  knobs.sim_options.outages.mttr_minutes =
      static_cast<double>(flags.GetInt("mttr", 240));
  knobs.sim_options.audit_period =
      MinutesToTicks(flags.GetInt("audit-every", 0));
  return knobs;
}

void PrintProfileTable(const runner::SweepResult& sweep) {
  std::printf("\n%-44s %10s %14s %14s\n", "run", "wall s", "events",
              "events/s");
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const runner::ExperimentResult& result = sweep.results[i];
    total_events += result.fired_events;
    std::printf("%-44s %10.3f %14llu %14.0f\n",
                sweep.specs[i].Label().c_str(), result.wall_seconds,
                static_cast<unsigned long long>(result.fired_events),
                result.EventsPerSecond());
  }
  std::printf("%-44s %10.3f %14llu %14.0f\n", "total (wall = sweep)",
              sweep.wall_seconds,
              static_cast<unsigned long long>(total_events),
              sweep.wall_seconds > 0
                  ? static_cast<double>(total_events) / sweep.wall_seconds
                  : 0.0);
}

void PrintCounters(const CounterSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    std::printf("%s=%llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value, max] : snapshot.gauges) {
    std::printf("%s=%lld (max=%lld)\n", name.c_str(),
                static_cast<long long>(value), static_cast<long long>(max));
  }
}

int RunCalibrateCommand(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  NETBATCH_CHECK(!in.empty(), "calibrate requires --in=<trace.csv>");
  const std::string emit_preset = flags.GetString("emit-preset", "");
  const bool report = flags.GetBool("report", false);
  const auto unused = flags.UnusedFlags();
  NETBATCH_CHECK(unused.empty(),
                 "unknown flag --" + (unused.empty() ? "" : unused.front()) +
                     " (see --help)");

  const workload::Trace trace = workload::ReadTraceFile(in);
  NETBATCH_CHECK(trace.size() > 0, "cannot calibrate an empty trace");
  const calib::FittedWorkloadModel fitted = calib::FitWorkloadModel(trace);
  std::printf("%s\n", calib::RenderFitSummary(fitted).c_str());

  if (!emit_preset.empty()) {
    runner::WriteWorkloadPresetFile(emit_preset, fitted.config);
    std::printf("wrote workload preset: %s (run it with --scenario=%s)\n",
                emit_preset.c_str(), emit_preset.c_str());
  }
  if (report) {
    const workload::Trace regenerated = workload::GenerateTrace(fitted.config);
    const calib::GoodnessReport goodness =
        calib::EvaluateFit(trace, regenerated);
    std::printf("\n%s\n", calib::RenderGoodnessReport(goodness).c_str());
  }
  return 0;
}

int RunSweepCommand(const Flags& flags) {
  const std::string scenario_name = flags.GetString("scenario", "normal");
  const double scale = flags.GetDouble("scale", 0.25);
  const auto base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  std::vector<std::uint64_t> seeds;
  if (flags.Has("seeds")) {
    for (const std::string& s : SplitList(flags.GetString("seeds", ""))) {
      std::uint64_t value = 0;
      std::size_t parsed = 0;
      try {
        value = std::stoull(s, &parsed);
      } catch (const std::exception&) {
        parsed = 0;
      }
      NETBATCH_CHECK(parsed == s.size() && !s.empty(),
                     "--seeds expects a comma-separated integer list, got '" +
                         s + "'");
      seeds.push_back(value);
    }
  } else {
    const std::int64_t replications = flags.GetInt("replications", 1);
    NETBATCH_CHECK(replications >= 1, "--replications must be >= 1");
    for (std::int64_t r = 0; r < replications; ++r) {
      seeds.push_back(base_seed + static_cast<std::uint64_t>(r));
    }
  }
  NETBATCH_CHECK(!seeds.empty(), "--seeds list is empty");

  std::vector<std::string> scheduler_names =
      SplitList(flags.GetString("schedulers", "rr"));
  std::vector<runner::InitialSchedulerKind> schedulers;
  for (const std::string& name : scheduler_names) {
    const auto kind = runner::ParseInitialSchedulerKind(name);
    NETBATCH_CHECK(kind.has_value(), "unknown scheduler '" + name + "'");
    schedulers.push_back(*kind);
  }

  std::string default_policies;
  for (const core::PolicyKind kind : core::kAllPolicyKinds) {
    if (!default_policies.empty()) default_policies += ',';
    default_policies += core::ToString(kind);
  }
  const std::vector<std::string> policy_names =
      SplitList(flags.GetString("policies", default_policies));
  NETBATCH_CHECK(!policy_names.empty(), "--policies list is empty");

  const SharedKnobs knobs = ReadSharedKnobs(flags);
  const auto jobs = static_cast<unsigned>(flags.GetInt("jobs", 0));
  const bool profile = flags.GetBool("profile", false);
  const std::string csv_out = flags.GetString("csv-out", "");
  const std::string json_out = flags.GetString("json-out", "");

  const auto unused = flags.UnusedFlags();
  NETBATCH_CHECK(unused.empty(),
                 "unknown flag --" + (unused.empty() ? "" : unused.front()) +
                     " (see --help)");

  const runner::Scenario scenario =
      runner::ResolveScenario(scenario_name, scale, base_seed);

  std::vector<runner::ExperimentSpec> specs;
  for (const runner::InitialSchedulerKind scheduler : schedulers) {
    for (const std::string& policy_name : policy_names) {
      for (const std::uint64_t seed : seeds) {
        runner::SpecBuilder builder;
        builder.Scenario(scenario_name, scenario)
            .Scheduler(scheduler, knobs.staleness)
            .WaitThreshold(knobs.threshold)
            .SimOptions(knobs.sim_options)
            .Seed(seed);
        if (policy_name == "DupSusUtil") {
          builder.Duplication();
        } else {
          const auto kind = core::ParsePolicyKind(policy_name);
          NETBATCH_CHECK(kind.has_value(),
                         "unknown policy '" + policy_name + "' (see --help)");
          builder.Policy(*kind);
        }
        specs.push_back(builder.Build());
      }
    }
  }

  std::printf("sweep: %zu specs (%zu policies x %zu schedulers x %zu seeds)\n",
              specs.size(), policy_names.size(), schedulers.size(),
              seeds.size());

  const runner::SweepResult sweep =
      runner::RunSweep(std::move(specs), {.jobs = jobs});

  std::vector<metrics::MetricsReport> reports;
  reports.reserve(sweep.results.size());
  for (const runner::ExperimentResult& result : sweep.results) {
    reports.push_back(result.report);
  }
  std::printf("\n%s\n", metrics::RenderPaperTable(reports).c_str());

  const std::vector<runner::SweepSummaryRow> summary =
      runner::SummarizeSweep(sweep);
  std::printf("%s\n", runner::RenderSweepSummary(summary).c_str());
  std::printf(
      "%zu runs, %zu generated traces, wall %.2fs (jobs=%u)\n",
      sweep.results.size(), sweep.generated_trace_count, sweep.wall_seconds,
      jobs == 0 ? ThreadPool::DefaultThreadCount() : jobs);
  if (profile) PrintProfileTable(sweep);

  if (!csv_out.empty()) {
    std::ofstream out(csv_out);
    NETBATCH_CHECK(static_cast<bool>(out), "cannot open --csv-out path");
    runner::WriteSweepSummaryCsv(out, summary);
    std::printf("wrote summary CSV: %s\n", csv_out.c_str());
  }
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    NETBATCH_CHECK(static_cast<bool>(out), "cannot open --json-out path");
    out << runner::SweepToJson(sweep, summary) << '\n';
    std::printf("wrote sweep JSON: %s\n", json_out.c_str());
  }
  return 0;
}

// Default mode: one experiment driven entirely by flags.
int RunSingleCommand(const Flags& flags) {
  // Base configuration: an INI file when given, defaults otherwise;
  // individual flags override either.
  runner::ExperimentConfig config;
  std::string config_policy = "NoRes";
  const bool from_file = flags.Has("config");
  if (from_file) {
    runner::LoadedExperiment loaded =
        runner::LoadExperimentFile(flags.GetString("config", ""));
    config = std::move(loaded.config);
    config_policy = loaded.policy_name;
  }
  const double scale = flags.GetDouble("scale", 0.25);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  std::string scenario_name = flags.GetString("scenario", "normal");
  if (!from_file || flags.Has("scenario") || flags.Has("scale") ||
      flags.Has("seed")) {
    config.scenario = runner::ResolveScenario(scenario_name, scale, seed);
  }

  if (!from_file || flags.Has("scheduler")) {
    const std::string scheduler = flags.GetString("scheduler", "rr");
    const auto kind = runner::ParseInitialSchedulerKind(scheduler);
    NETBATCH_CHECK(kind.has_value(), "--scheduler must be rr or util");
    config.scheduler = *kind;
  }
  if (!from_file || flags.Has("staleness")) {
    config.scheduler_staleness = MinutesToTicks(flags.GetInt("staleness", 0));
  }
  if (!from_file || flags.Has("threshold")) {
    config.policy_options.wait_threshold =
        MinutesToTicks(flags.GetInt("threshold", 30));
  }
  if (!from_file || flags.Has("overhead")) {
    config.sim_options.restart_overhead =
        MinutesToTicks(flags.GetInt("overhead", 0));
  }
  if (!from_file || flags.Has("checkpoint")) {
    config.sim_options.checkpoint_interval =
        MinutesToTicks(flags.GetInt("checkpoint", 0));
  }
  if (!from_file || flags.Has("mtbf")) {
    config.sim_options.outages.mtbf_minutes =
        static_cast<double>(flags.GetInt("mtbf", 0));
  }
  if (!from_file || flags.Has("mttr")) {
    config.sim_options.outages.mttr_minutes =
        static_cast<double>(flags.GetInt("mttr", 240));
  }
  if (!from_file || flags.Has("audit-every")) {
    config.sim_options.audit_period =
        MinutesToTicks(flags.GetInt("audit-every", 0));
  }

  // Trace: replay or generate (optionally persisting).
  const runner::ExperimentSpec base_spec =
      runner::SpecFromConfig(config, scenario_name);
  workload::Trace trace;
  if (flags.Has("trace-in")) {
    trace = workload::ReadTraceFile(flags.GetString("trace-in", ""));
  } else {
    trace = runner::GenerateSpecTrace(base_spec);
  }
  if (flags.Has("workload-out")) {
    workload::WriteTraceFile(trace, flags.GetString("workload-out", ""));
    std::printf("wrote %zu jobs to %s\n", trace.size(),
                flags.GetString("workload-out", "").c_str());
  }

  const std::string policy_name = flags.GetString("policy", config_policy);
  const bool compare = flags.GetBool("compare", false);
  const bool print_cdf = flags.GetBool("cdf", false);
  const bool profile = flags.GetBool("profile", false);
  const bool print_counters = flags.GetBool("counters", false);
  const std::string samples_out = flags.GetString("samples-out", "");
  const std::string events_out = flags.GetString("events-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string json_out = flags.GetString("json-out", "");

  // Reject typos before spending simulation time.
  const auto unused = flags.UnusedFlags();
  NETBATCH_CHECK(unused.empty(),
                 "unknown flag --" + (unused.empty() ? "" : unused.front()) +
                     " (see --help)");

  const workload::TraceStats stats = trace.Stats();
  std::printf("jobs=%zu (%.1f%% high priority), span=%.0f min\n\n",
              stats.job_count,
              stats.job_count == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(stats.high_priority_count) /
                        static_cast<double>(stats.job_count),
              TicksToMinutes(stats.last_submit - stats.first_submit));

  if (compare) {
    std::vector<runner::ExperimentSpec> specs;
    for (const core::PolicyKind kind : core::kAllPolicyKinds) {
      runner::ExperimentSpec spec = base_spec;
      spec.policy = kind;
      spec.display_label = core::ToString(kind);
      specs.push_back(std::move(spec));
    }
    const runner::SweepResult sweep =
        runner::RunSweepOnTrace(std::move(specs), trace);
    std::vector<metrics::MetricsReport> reports;
    for (const auto& result : sweep.results) reports.push_back(result.report);
    std::printf("%s\n", metrics::RenderPaperTable(reports).c_str());
    std::printf("%s\n", metrics::RenderWasteComponents(reports).c_str());
    if (profile) PrintProfileTable(sweep);
    if (!json_out.empty()) {
      std::ofstream out(json_out);
      NETBATCH_CHECK(static_cast<bool>(out), "cannot open --json-out path");
      out << metrics::ReportsToJson(reports) << '\n';
    }
    return 0;
  }

  // Build the run's policy: one of the named kinds or the DupSusUtil
  // extension.
  runner::ExperimentSpec spec = base_spec;
  if (policy_name == "DupSusUtil") {
    runner::SpecBuilder builder;
    builder.Scenario(scenario_name, config.scenario)
        .Seed(base_spec.seed)
        .Scheduler(config.scheduler, config.scheduler_staleness)
        .WaitThreshold(config.policy_options.wait_threshold)
        .SimOptions(config.sim_options)
        .Duplication();
    spec = builder.Build();
  } else {
    const auto kind = core::ParsePolicyKind(policy_name);
    NETBATCH_CHECK(kind.has_value(), "unknown --policy (see --help)");
    spec.policy = *kind;
  }
  spec.display_label = policy_name;

  runner::ExperimentResult result;
  if (!events_out.empty() || !trace_out.empty()) {
    // Attach the export observers alongside the metrics collector.
    NETBATCH_CHECK(spec.policy_factory == nullptr || policy_name == "DupSusUtil",
                   "--events-out/--trace-out support named policies");
    metrics::EventLog log;
    metrics::ChromeTraceExporter tracer;
    runner::PolicyInstance instance;
    if (spec.policy_factory != nullptr) {
      instance = spec.policy_factory(spec.RunSeed());
    } else {
      core::PolicyOptions options = spec.policy_options;
      options.seed = DeriveSeed(spec.RunSeed(), "policy");
      instance.policy = core::MakePolicy(spec.policy, options);
    }
    std::vector<cluster::SimulationObserver*> observers;
    for (const auto& observer : instance.observers) {
      observers.push_back(observer.get());
    }
    if (!events_out.empty()) observers.push_back(&log);
    if (!trace_out.empty()) observers.push_back(&tracer);
    result = runner::RunSpecWithPolicy(spec, trace, *instance.policy,
                                       policy_name, observers);
    if (!events_out.empty()) {
      std::ofstream out(events_out);
      NETBATCH_CHECK(static_cast<bool>(out), "cannot open --events-out path");
      log.WriteCsv(out);
      std::printf("wrote %zu events to %s\n", log.events().size(),
                  events_out.c_str());
    }
    if (!trace_out.empty()) {
      tracer.Finish();
      NETBATCH_CHECK(tracer.WriteFile(trace_out),
                     "cannot open --trace-out path");
      std::printf("wrote %zu trace events to %s\n", tracer.event_count(),
                  trace_out.c_str());
    }
  } else {
    result = runner::RunSpec(spec, trace);
  }

  PrintResult(result, print_cdf);
  if (profile) {
    std::printf("profile: wall %.3fs, %llu events, %.0f events/s\n",
                result.wall_seconds,
                static_cast<unsigned long long>(result.fired_events),
                result.EventsPerSecond());
  }
  if (print_counters) {
    std::printf("\n");
    PrintCounters(result.counters);
  }
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    NETBATCH_CHECK(static_cast<bool>(out), "cannot open --json-out path");
    out << metrics::ReportToJson(result.report) << '\n';
  }
  if (!samples_out.empty()) {
    WriteSamplesCsv(samples_out, result.samples);
    std::printf("wrote %zu samples to %s\n", result.samples.size(),
                samples_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  return tools::DispatchSubcommand(flags,
                                   {
                                       {"sweep", RunSweepCommand},
                                       {"calibrate", RunCalibrateCommand},
                                   },
                                   kUsage, RunSingleCommand);
}
