#include "runner/sweep.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/csv.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "metrics/report_json.h"
#include "sched/round_robin.h"
#include "sched/utilization.h"
#include "workload/generator.h"

namespace netbatch::runner {

// ---- ExperimentSpec -------------------------------------------------------

std::string ExperimentSpec::PolicyName() const {
  return policy_label.empty() ? core::ToString(policy) : policy_label;
}

std::string ExperimentSpec::GroupLabel() const {
  std::string label = scenario_name;
  label += '/';
  label += ToShortString(scheduler);
  label += '/';
  label += PolicyName();
  return label;
}

std::string ExperimentSpec::Label() const {
  return GroupLabel() + "/s" + std::to_string(seed);
}

std::string ExperimentSpec::DisplayLabel() const {
  return display_label.empty() ? Label() : display_label;
}

std::uint64_t ExperimentSpec::RunSeed() const {
  return DeriveSeed(seed, GroupLabel());
}

// ---- SpecBuilder ----------------------------------------------------------

SpecBuilder& SpecBuilder::Scenario(std::string name,
                                   runner::Scenario scenario) {
  spec_.scenario_name = std::move(name);
  spec_.scenario = std::move(scenario);
  // The preset's workload seed is the natural default replication seed.
  spec_.seed = spec_.scenario.workload.seed;
  return *this;
}

SpecBuilder& SpecBuilder::Seed(std::uint64_t seed) {
  spec_.seed = seed;
  return *this;
}

SpecBuilder& SpecBuilder::Scheduler(InitialSchedulerKind kind,
                                    Ticks staleness) {
  spec_.scheduler = kind;
  spec_.scheduler_staleness = staleness;
  return *this;
}

SpecBuilder& SpecBuilder::Policy(core::PolicyKind kind) {
  spec_.policy = kind;
  spec_.policy_label.clear();
  spec_.policy_factory = nullptr;
  return *this;
}

SpecBuilder& SpecBuilder::CustomPolicy(std::string label,
                                       PolicyFactory factory) {
  NETBATCH_CHECK(factory != nullptr, "CustomPolicy requires a factory");
  spec_.policy_label = std::move(label);
  spec_.policy_factory = std::move(factory);
  return *this;
}

SpecBuilder& SpecBuilder::Duplication() {
  const core::PolicyOptions options = spec_.policy_options;
  return CustomPolicy("DupSusUtil", [options](std::uint64_t run_seed) {
    core::PolicyOptions seeded = options;
    seeded.seed = run_seed;
    return PolicyInstance{core::MakeDuplicationPolicy(seeded), {}};
  });
}

SpecBuilder& SpecBuilder::WaitThreshold(Ticks threshold) {
  spec_.policy_options.wait_threshold = threshold;
  return *this;
}

SpecBuilder& SpecBuilder::SimOptions(cluster::SimulationOptions options) {
  spec_.sim_options = std::move(options);
  return *this;
}

SpecBuilder& SpecBuilder::DisplayLabel(std::string label) {
  spec_.display_label = std::move(label);
  return *this;
}

// ---- single-run primitives ------------------------------------------------

namespace {

std::unique_ptr<cluster::InitialScheduler> MakeScheduler(
    const ExperimentSpec& spec) {
  switch (spec.scheduler) {
    case InitialSchedulerKind::kRoundRobin:
      return std::make_unique<sched::RoundRobinScheduler>();
    case InitialSchedulerKind::kUtilization:
      return std::make_unique<sched::UtilizationScheduler>(
          spec.scheduler_staleness);
  }
  NETBATCH_CHECK(false, "unknown scheduler kind");
  return nullptr;
}

}  // namespace

workload::Trace GenerateSpecTrace(const ExperimentSpec& spec) {
  workload::GeneratorConfig config = spec.scenario.workload;
  config.seed = spec.seed;
  return workload::GenerateTrace(config);
}

ExperimentResult RunSpecWithPolicy(
    const ExperimentSpec& spec, const workload::Trace& trace,
    cluster::ReschedulingPolicy& policy, std::string label,
    const std::vector<cluster::SimulationObserver*>& extra_observers) {
  const std::unique_ptr<cluster::InitialScheduler> scheduler =
      MakeScheduler(spec);

  cluster::SimulationOptions options = spec.sim_options;
  // The failure injector draws from the run's own substream: replications
  // at different seeds see independent outage sequences, and the draw
  // depends only on the spec — never on worker scheduling.
  options.outages.seed = DeriveSeed(spec.RunSeed(), "outages");

  cluster::NetBatchSimulation simulation(spec.scenario.cluster, trace,
                                         *scheduler, policy, options);
  metrics::MetricsCollector collector;
  simulation.AddObserver(&collector);
  for (cluster::SimulationObserver* observer : extra_observers) {
    simulation.AddObserver(observer);
  }
  const auto run_start = std::chrono::steady_clock::now();
  simulation.Run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  ExperimentResult result;
  result.report = collector.BuildReport(simulation, std::move(label));
  result.samples = collector.samples();
  result.suspension_cdf = collector.SuspensionTimeCdf();
  result.trace_stats = trace.Stats();
  result.fired_events = simulation.simulator().FiredEvents();
  result.wall_seconds = wall_seconds;
  result.counters = simulation.counters().TakeSnapshot();
  return result;
}

ExperimentResult RunSpec(const ExperimentSpec& spec,
                         const workload::Trace& trace) {
  const std::uint64_t run_seed = spec.RunSeed();
  PolicyInstance instance;
  if (spec.policy_factory != nullptr) {
    instance = spec.policy_factory(run_seed);
    NETBATCH_CHECK(instance.policy != nullptr,
                   "policy factory returned no policy");
  } else {
    core::PolicyOptions options = spec.policy_options;
    options.seed = DeriveSeed(run_seed, "policy");
    instance.policy = core::MakePolicy(spec.policy, options);
  }
  std::vector<cluster::SimulationObserver*> observers;
  observers.reserve(instance.observers.size());
  for (const auto& observer : instance.observers) {
    observers.push_back(observer.get());
  }
  return RunSpecWithPolicy(spec, trace, *instance.policy, spec.DisplayLabel(),
                           observers);
}

ExperimentResult RunSingle(const ExperimentSpec& spec) {
  const workload::Trace trace = GenerateSpecTrace(spec);
  return RunSpec(spec, trace);
}

// ---- the sweep runner -----------------------------------------------------

namespace {

// Executes all specs on `pool`; results land in spec order regardless of
// completion order, which is what makes jobs=N bit-identical to jobs=1.
void ExecuteRuns(const std::vector<ExperimentSpec>& specs,
                 const std::function<const workload::Trace&(std::size_t)>&
                     trace_for_spec,
                 ThreadPool& pool, std::vector<ExperimentResult>& results) {
  results.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pool.Submit([&specs, &trace_for_spec, &results, i] {
      results[i] = RunSpec(specs[i], trace_for_spec(i));
    });
  }
  pool.Wait();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

unsigned WorkerCount(const SweepOptions& options) {
  return options.jobs == 0 ? ThreadPool::DefaultThreadCount() : options.jobs;
}

}  // namespace

SweepResult RunSweep(std::vector<ExperimentSpec> specs,
                     const SweepOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(WorkerCount(options));

  // Trace dedup: one generation per distinct (scenario_name, seed), shared
  // read-only by every run that references it.
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> trace_index;
  std::vector<std::size_t> spec_trace(specs.size());
  std::vector<const ExperimentSpec*> generating_specs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto key = std::make_pair(specs[i].scenario_name, specs[i].seed);
    const auto [it, inserted] =
        trace_index.try_emplace(key, generating_specs.size());
    if (inserted) generating_specs.push_back(&specs[i]);
    spec_trace[i] = it->second;
  }
  std::vector<workload::Trace> traces(generating_specs.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    pool.Submit([&traces, &generating_specs, t] {
      traces[t] = GenerateSpecTrace(*generating_specs[t]);
    });
  }
  pool.Wait();

  SweepResult sweep;
  ExecuteRuns(
      specs,
      [&traces, &spec_trace](std::size_t i) -> const workload::Trace& {
        return traces[spec_trace[i]];
      },
      pool, sweep.results);
  sweep.specs = std::move(specs);
  sweep.generated_trace_count = traces.size();
  sweep.wall_seconds = SecondsSince(start);
  return sweep;
}

SweepResult RunSweepOnTrace(std::vector<ExperimentSpec> specs,
                            const workload::Trace& trace,
                            const SweepOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(WorkerCount(options));
  SweepResult sweep;
  ExecuteRuns(
      specs, [&trace](std::size_t) -> const workload::Trace& { return trace; },
      pool, sweep.results);
  sweep.specs = std::move(specs);
  sweep.wall_seconds = SecondsSince(start);
  return sweep;
}

// ---- replication aggregation ---------------------------------------------

std::vector<SweepSummaryRow> SummarizeSweep(const SweepResult& sweep) {
  NETBATCH_CHECK(sweep.specs.size() == sweep.results.size(),
                 "sweep specs/results mismatch");
  struct Group {
    std::vector<double> suspend_rate, avg_ct_all, avg_ct_suspended, avg_st,
        avg_wct, reschedules;
  };
  std::vector<std::string> order;
  std::map<std::string, Group> groups;
  for (std::size_t i = 0; i < sweep.specs.size(); ++i) {
    const std::string label = sweep.specs[i].GroupLabel();
    auto [it, inserted] = groups.try_emplace(label);
    if (inserted) order.push_back(label);
    const metrics::MetricsReport& report = sweep.results[i].report;
    it->second.suspend_rate.push_back(report.suspend_rate);
    it->second.avg_ct_all.push_back(report.avg_ct_all_minutes);
    it->second.avg_ct_suspended.push_back(report.avg_ct_suspended_minutes);
    it->second.avg_st.push_back(report.avg_st_minutes);
    it->second.avg_wct.push_back(report.avg_wct_minutes);
    it->second.reschedules.push_back(
        static_cast<double>(report.reschedule_count));
  }

  std::vector<SweepSummaryRow> rows;
  rows.reserve(order.size());
  for (const std::string& label : order) {
    const Group& group = groups.at(label);
    SweepSummaryRow row;
    row.label = label;
    row.replications = group.avg_ct_all.size();
    row.suspend_rate = SummarizeSamples(group.suspend_rate);
    row.avg_ct_all = SummarizeSamples(group.avg_ct_all);
    row.avg_ct_suspended = SummarizeSamples(group.avg_ct_suspended);
    row.avg_st = SummarizeSamples(group.avg_st);
    row.avg_wct = SummarizeSamples(group.avg_wct);
    row.reschedules = SummarizeSamples(group.reschedules);
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

std::string MeanCi(const SampleSummary& summary, int decimals) {
  std::string text = TextTable::Fixed(summary.mean, decimals);
  if (summary.n >= 2) {
    text += " ±";
    text += TextTable::Fixed(summary.ci95_half, decimals);
  }
  return text;
}

void AppendJsonEscaped(std::ostringstream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void AppendJsonNumber(std::ostringstream& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out << buf;
}

void AppendSummaryJson(std::ostringstream& out, const char* name,
                       const SampleSummary& summary) {
  out << '"' << name << "\":{\"mean\":";
  AppendJsonNumber(out, summary.mean);
  out << ",\"stddev\":";
  AppendJsonNumber(out, summary.stddev);
  out << ",\"ci95_half\":";
  AppendJsonNumber(out, summary.ci95_half);
  out << '}';
}

std::vector<std::string> CsvFields(const SampleSummary& summary) {
  const auto render = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  return {render(summary.mean), render(summary.stddev),
          render(summary.ci95_half)};
}

}  // namespace

std::string RenderSweepSummary(const std::vector<SweepSummaryRow>& rows) {
  TextTable table({"Spec", "Runs", "Suspend rate", "AvgCT Suspend",
                   "AvgCT All", "AvgST", "AvgWCT", "Restarts"});
  for (const SweepSummaryRow& row : rows) {
    table.AddRow({
        row.label,
        std::to_string(row.replications),
        MeanCi(row.suspend_rate, 4),
        MeanCi(row.avg_ct_suspended, 1),
        MeanCi(row.avg_ct_all, 1),
        MeanCi(row.avg_st, 1),
        MeanCi(row.avg_wct, 1),
        MeanCi(row.reschedules, 0),
    });
  }
  return table.Render();
}

void WriteSweepSummaryCsv(std::ostream& out,
                          const std::vector<SweepSummaryRow>& rows) {
  CsvWriter writer(out);
  std::vector<std::string> header = {"spec", "replications"};
  for (const char* metric :
       {"suspend_rate", "avg_ct_suspended", "avg_ct_all", "avg_st", "avg_wct",
        "reschedules"}) {
    header.push_back(std::string(metric) + "_mean");
    header.push_back(std::string(metric) + "_stddev");
    header.push_back(std::string(metric) + "_ci95");
  }
  writer.WriteRow(header);
  for (const SweepSummaryRow& row : rows) {
    std::vector<std::string> fields = {row.label,
                                       std::to_string(row.replications)};
    for (const SampleSummary* summary :
         {&row.suspend_rate, &row.avg_ct_suspended, &row.avg_ct_all,
          &row.avg_st, &row.avg_wct, &row.reschedules}) {
      for (std::string& field : CsvFields(*summary)) {
        fields.push_back(std::move(field));
      }
    }
    writer.WriteRow(fields);
  }
}

std::string SweepToJson(const SweepResult& sweep,
                        const std::vector<SweepSummaryRow>& rows) {
  std::ostringstream out;
  out << "{\"runs\":[";
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"spec\":";
    AppendJsonEscaped(out, sweep.specs[i].Label());
    out << ",\"seed\":" << sweep.specs[i].seed << ",\"report\":"
        << metrics::ReportToJson(sweep.results[i].report) << '}';
  }
  out << "],\"summary\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepSummaryRow& row = rows[i];
    if (i > 0) out << ',';
    out << "{\"spec\":";
    AppendJsonEscaped(out, row.label);
    out << ",\"replications\":" << row.replications << ',';
    AppendSummaryJson(out, "suspend_rate", row.suspend_rate);
    out << ',';
    AppendSummaryJson(out, "avg_ct_suspended", row.avg_ct_suspended);
    out << ',';
    AppendSummaryJson(out, "avg_ct_all", row.avg_ct_all);
    out << ',';
    AppendSummaryJson(out, "avg_st", row.avg_st);
    out << ',';
    AppendSummaryJson(out, "avg_wct", row.avg_wct);
    out << ',';
    AppendSummaryJson(out, "reschedules", row.reschedules);
    out << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace netbatch::runner
