// Tests for the observability layer: the counter/gauge registry, the
// invariant auditor (clean across every scenario preset with failure
// injection; corruption detection), and the Chrome-trace exporter.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <string>

#include "cluster/auditor.h"
#include "cluster/simulation.h"
#include "common/counters.h"
#include "core/policies.h"
#include "metrics/chrome_trace.h"
#include "runner/scenarios.h"
#include "sched/round_robin.h"
#include "workload/generator.h"

namespace netbatch {
namespace {

// ---- counter registry ------------------------------------------------------

TEST(CounterRegistryTest, CountersAndGaugesAccumulate) {
  CounterRegistry registry;
  Counter& c = registry.GetCounter("jobs.done");
  c.Increment();
  c.Increment(3);
  EXPECT_EQ(c.value(), 4u);
  // Same name, same counter.
  EXPECT_EQ(&registry.GetCounter("jobs.done"), &c);

  Gauge& g = registry.GetGauge("queue.depth");
  g.Set(7);
  g.Set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);

  const CounterSnapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "jobs.done");
  EXPECT_EQ(snapshot.counters[0].second, 4u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(std::get<1>(snapshot.gauges[0]), 2);
  EXPECT_EQ(std::get<2>(snapshot.gauges[0]), 7);

  EXPECT_EQ(registry.FindCounter("no.such"), nullptr);
  EXPECT_NE(registry.FindCounter("jobs.done"), nullptr);
  const std::string rendered = registry.Render();
  EXPECT_NE(rendered.find("jobs.done=4"), std::string::npos);
  EXPECT_NE(rendered.find("queue.depth=2 (max=7)"), std::string::npos);
}

// ---- engine counters on a hand-computed run --------------------------------

workload::JobSpec Spec(JobId::ValueType id, Ticks submit, Ticks runtime,
                       std::int32_t cores = 4,
                       workload::Priority priority = workload::kLowPriority) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.submit_time = submit;
  spec.runtime = runtime;
  spec.cores = cores;
  spec.memory_mb = 1024;
  spec.priority = priority;
  return spec;
}

cluster::ClusterConfig OneMachineCluster() {
  cluster::ClusterConfig config;
  cluster::PoolConfig pool;
  pool.machine_groups.push_back(
      {.count = 1, .cores = 4, .memory_mb = 16384, .speed = 1.0});
  config.pools.push_back(pool);
  return config;
}

TEST(EngineCountersTest, MatchHandComputedRun) {
  // Low job runs [0,40), suspended [40,70) by the high job, resumes [70,130).
  // A third, oversized job is rejected at submission.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(100)),
      Spec(1, MinutesToTicks(40), MinutesToTicks(30), 4,
           workload::kHighPriority),
      Spec(2, 0, MinutesToTicks(10), 8),  // no machine has 8 cores
  });
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  cluster::NetBatchSimulation sim(OneMachineCluster(), trace, scheduler,
                                  policy);
  sim.Run();

  const CounterRegistry& counters = sim.counters();
  const auto value = [&](const char* name) {
    const Counter* counter = counters.FindCounter(name);
    return counter == nullptr ? ~std::uint64_t{0} : counter->value();
  };
  EXPECT_EQ(value("jobs.submitted"), 3u);
  EXPECT_EQ(value("jobs.rejected"), 1u);
  EXPECT_EQ(value("jobs.started"), 2u);
  EXPECT_EQ(value("jobs.preempted"), 1u);
  EXPECT_EQ(value("jobs.resumed"), 1u);
  EXPECT_EQ(value("jobs.completed"), 2u);
  EXPECT_EQ(value("jobs.rescheduled"), 0u);
  EXPECT_EQ(value("vpm.bounces"), 0u);
  EXPECT_EQ(sim.completed_count(), 2u);
  EXPECT_EQ(sim.rejected_count(), 1u);

  // The end-of-run gauge sample runs on an idle cluster.
  const Gauge* busy = counters.FindGauge("cluster.busy_cores");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->value(), 0);
}

TEST(EngineCountersTest, PeriodicAuditRunsWithoutObservers) {
  const workload::Trace trace({Spec(0, 0, MinutesToTicks(10))});
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  cluster::SimulationOptions options;
  options.audit_period = MinutesToTicks(1);
  cluster::NetBatchSimulation sim(OneMachineCluster(), trace, scheduler,
                                  policy, options);
  sim.Run();
  const Counter* audits = sim.counters().FindCounter("audit.runs");
  ASSERT_NE(audits, nullptr);
  EXPECT_GE(audits->value(), 10u);  // one per simulated minute
}

// ---- invariant auditor across scenario presets -----------------------------

// The name is held inline rather than as a pointer: gtest prints this
// unprintable parameter as its raw bytes into the test name, so a pointer
// (or padding) would make the names change from build to build.
struct PresetCase {
  char name[12];
  int index;
};
static_assert(sizeof(PresetCase) == 16);

class AuditorPresetTest : public ::testing::TestWithParam<PresetCase> {};

runner::Scenario MakePreset(int index) {
  // Scaled down and shortened so the full matrix stays test-suite fast.
  runner::Scenario scenario;
  switch (index) {
    case 0: scenario = runner::NormalLoadScenario(0.05, 7); break;
    case 1: scenario = runner::HighLoadScenario(0.05, 7); break;
    case 2: scenario = runner::HighSuspensionScenario(0.05, 7); break;
    default: scenario = runner::YearLongScenario(0.02, 7); break;
  }
  scenario.workload.duration = 2 * kTicksPerDay;
  return scenario;
}

TEST_P(AuditorPresetTest, ZeroViolationsWithFailureInjection) {
  const runner::Scenario scenario = MakePreset(GetParam().index);
  workload::GeneratorConfig workload = scenario.workload;
  const workload::Trace trace = workload::GenerateTrace(workload);

  sched::RoundRobinScheduler scheduler;
  core::PolicyOptions policy_options;
  policy_options.seed = 99;
  const auto policy =
      core::MakePolicy(core::PolicyKind::kResSusWaitUtil, policy_options);

  cluster::SimulationOptions options;
  // Failure injection gentle enough that long jobs still finish: with a
  // harsher MTBF and no checkpoints, tail jobs can lose their progress on
  // every failure and the simulation never converges.
  options.outages.mtbf_minutes = 5000;
  options.outages.mttr_minutes = 120;
  options.checkpoint_interval = MinutesToTicks(60);
  options.restart_overhead = MinutesToTicks(2);
  options.audit_period = MinutesToTicks(30);  // engine-side, fail-fast
  options.audit_on_transitions = true;        // pool-local, every transition
  cluster::NetBatchSimulation sim(scenario.cluster, trace, scheduler, *policy,
                                  options);
  cluster::InvariantAuditor auditor(sim, {.period = MinutesToTicks(15)});
  sim.AddObserver(&auditor);
  sim.Run();

  EXPECT_GT(sim.outage_count(), 0u) << GetParam().name;
  EXPECT_GT(auditor.audits_run(), 0u) << GetParam().name;
  EXPECT_TRUE(auditor.violations().empty())
      << GetParam().name << ": first violation: "
      << (auditor.violations().empty()
              ? std::string()
              : auditor.violations().front().what);
  // One final full audit after the run settles.
  auditor.Audit();
  EXPECT_TRUE(auditor.violations().empty()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, AuditorPresetTest,
    ::testing::Values(PresetCase{"normal", 0}, PresetCase{"high", 1},
                      PresetCase{"highsusp", 2}, PresetCase{"year", 3}),
    [](const ::testing::TestParamInfo<PresetCase>& info) {
      return std::string(info.param.name);
    });

// ---- corruption detection --------------------------------------------------

TEST(AuditorCorruptionTest, DetectsDesyncedMachineAccounting) {
  const workload::Trace trace({Spec(0, 0, MinutesToTicks(10))});
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  cluster::NetBatchSimulation sim(OneMachineCluster(), trace, scheduler,
                                  policy);
  sim.Run();

  cluster::InvariantAuditor before(sim);
  before.Audit();
  ASSERT_TRUE(before.violations().empty());

  // Desync: claim a core behind the pool's back. Free-resource counters no
  // longer match the (empty) set of registered jobs.
  sim.mutable_pool(PoolId(0)).MachineById(MachineId(0)).Claim(1, 0);

  cluster::InvariantAuditor auditor(sim);
  auditor.Audit();
  EXPECT_EQ(auditor.audits_run(), 1u);
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations().front().pool, PoolId(0));
}

TEST(AuditorCorruptionTest, FailFastAborts) {
  const workload::Trace trace({Spec(0, 0, MinutesToTicks(10))});
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  cluster::NetBatchSimulation sim(OneMachineCluster(), trace, scheduler,
                                  policy);
  sim.Run();
  sim.mutable_pool(PoolId(0)).MachineById(MachineId(0)).Claim(1, 0);

  cluster::InvariantAuditor auditor(sim, {.fail_fast = true});
  EXPECT_DEATH(auditor.Audit(), "");
}

// ---- Chrome-trace exporter -------------------------------------------------

// Minimal recursive-descent JSON validity checker — enough to prove the
// exporter emits a well-formed document, without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(ChromeTraceTest, EmitsValidJsonWithLifecycleSlices) {
  // The hand-computed preemption run: the low job's timeline must contain
  // running and suspended slices; the sampling loop must emit counters.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(100)),
      Spec(1, MinutesToTicks(40), MinutesToTicks(30), 4,
           workload::kHighPriority),
  });
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  cluster::NetBatchSimulation sim(OneMachineCluster(), trace, scheduler,
                                  policy);
  metrics::ChromeTraceExporter tracer;
  sim.AddObserver(&tracer);
  sim.Run();
  tracer.Finish();

  EXPECT_GT(tracer.event_count(), 0u);
  const std::string json = tracer.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // slices
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(json.find("\"running\""), std::string::npos);
  EXPECT_NE(json.find("\"suspended\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(ChromeTraceTest, FinishClosesOpenPhases) {
  // A run cut short by a stuck job: the exporter must still close the open
  // slice so the document stays well-formed.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(10)),
      Spec(1, 0, MinutesToTicks(10)),  // queues behind job 0, then runs
  });
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  cluster::NetBatchSimulation sim(OneMachineCluster(), trace, scheduler,
                                  policy);
  metrics::ChromeTraceExporter tracer;
  sim.AddObserver(&tracer);
  sim.Run();
  const std::size_t before_finish = tracer.event_count();
  tracer.Finish();
  // Everything completed, so Finish had nothing left to close.
  EXPECT_EQ(tracer.event_count(), before_finish);
  EXPECT_TRUE(JsonChecker(tracer.ToJson()).Valid());
  EXPECT_NE(tracer.ToJson().find("\"waiting\""), std::string::npos);
}

}  // namespace
}  // namespace netbatch
