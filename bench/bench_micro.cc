// Microbenchmarks of the simulation substrate: event queue throughput,
// RNG/distribution sampling, trace generation, placement, and end-to-end
// simulation rate (events/second).
#include <benchmark/benchmark.h>

#include "cluster/simulation.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "core/policies.h"
#include "runner/experiment.h"
#include "runner/scenarios.h"
#include "sched/round_robin.h"
#include "sim/event_queue.h"
#include "workload/generator.h"

namespace {

using namespace netbatch;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  Rng rng(1);
  sim::Event ev;
  ev.kind = 1;
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::int64_t i = 0; i < batch; ++i) {
      queue.Schedule(rng.UniformInt(0, 1000000), ev);
    }
    while (!queue.Empty()) benchmark::DoNotOptimize(queue.Pop().time);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

// Schedule/cancel churn against a standing population of live events — the
// shape the engine produces under heavy suspension (every suspend cancels a
// completion event, every resume re-arms one). Exercises the indexed-heap
// removal path and the position-index trim.
void BM_EventQueueScheduleCancelPop(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  Rng rng(2);
  sim::Event ev;
  ev.kind = 1;
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventSeq> live;
    live.reserve(static_cast<std::size_t>(batch));
    for (std::int64_t i = 0; i < batch; ++i) {
      live.push_back(queue.Schedule(rng.UniformInt(0, 1000000), ev));
      // Cancel a random live event half the time, then re-arm it: 3 heap
      // operations per loop iteration on average.
      if (rng.Bernoulli(0.5) && !live.empty()) {
        const std::size_t victim = rng.UniformIndex(live.size());
        queue.Cancel(live[victim]);
        live[victim] = queue.Schedule(rng.UniformInt(0, 1000000), ev);
      }
    }
    while (!queue.Empty()) benchmark::DoNotOptimize(queue.Pop().time);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleCancelPop)->Arg(1024)->Arg(16384);

void BM_RngNext(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_LognormalSample(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleLognormal(rng, 4.6, 1.2));
  }
}
BENCHMARK(BM_LognormalSample);

void BM_TraceGeneration(benchmark::State& state) {
  workload::GeneratorConfig config =
      runner::NormalLoadScenario(0.05).workload;
  for (auto _ : state) {
    const workload::Trace trace = workload::GenerateTrace(config);
    benchmark::DoNotOptimize(trace.size());
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

// Placement fast path: repeatedly place-and-complete one job in a pool
// with many machines (measures the first-fit scan + bookkeeping).
void BM_PoolPlaceAndComplete(benchmark::State& state) {
  using namespace cluster;
  const auto machines_count = static_cast<int>(state.range(0));
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  for (int m = 0; m < machines_count; ++m) {
    machines.Add(8, 65536, 1.0);
  }
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, true);
  workload::JobSpec spec;
  spec.cores = 2;
  spec.memory_mb = 1024;
  spec.runtime = MinutesToTicks(10);
  JobId::ValueType next = 0;
  Ticks now = 0;
  for (auto _ : state) {
    spec.id = JobId(next++);
    Job job = jobs.Create(spec);
    job.OnSubmitted(now);
    benchmark::DoNotOptimize(pool.TryPlace(job, now));
    pool.OnJobCompleted(job, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolPlaceAndComplete)->Arg(64)->Arg(512);

// Preemption path: a saturated pool where every placement must build a
// preemption plan and suspend a victim.
void BM_PoolPreemptionPath(benchmark::State& state) {
  using namespace cluster;
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  for (int m = 0; m < 64; ++m) {
    machines.Add(8, 65536, 1.0);
  }
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, true);
  workload::JobSpec low;
  low.cores = 8;
  low.memory_mb = 1024;
  low.runtime = MinutesToTicks(10000);
  JobId::ValueType next = 0;
  for (int m = 0; m < 64; ++m) {
    low.id = JobId(next++);
    Job job = jobs.Create(low);
    job.OnSubmitted(0);
    pool.TryPlace(job, 0);
  }
  workload::JobSpec high = low;
  high.priority = workload::kHighPriority;
  high.runtime = MinutesToTicks(5);
  Ticks now = 1;
  for (auto _ : state) {
    high.id = JobId(next++);
    Job job = jobs.Create(high);
    job.OnSubmitted(now);
    const PlaceResult result = pool.TryPlace(job, now);
    benchmark::DoNotOptimize(result.suspended.size());
    // Complete the preemptor; its victim resumes via backfill.
    pool.OnJobCompleted(jobs.at(high.id), ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolPreemptionPath);

void BM_EndToEndSimulation(benchmark::State& state) {
  const runner::Scenario scenario = runner::NormalLoadScenario(0.05);
  const workload::Trace trace = workload::GenerateTrace(scenario.workload);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sched::RoundRobinScheduler scheduler;
    const auto policy = core::MakePolicy(core::PolicyKind::kResSusUtil);
    cluster::NetBatchSimulation simulation(scenario.cluster, trace, scheduler,
                                           *policy);
    simulation.Run();
    events += simulation.simulator().FiredEvents();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = fired events");
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

// Counter-registry hot path: the per-event cost the engine pays for its
// observability counters (resolve once, one integer add per Increment).
void BM_CounterIncrement(benchmark::State& state) {
  CounterRegistry registry;
  Counter* counter = &registry.GetCounter("bench.events");
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement);

// End-to-end simulation with the invariant auditor fully on (periodic
// cluster-wide audits plus a pool-local audit on every transition) —
// compare against BM_EndToEndSimulation for the audit overhead.
void BM_EndToEndSimulationAudited(benchmark::State& state) {
  const runner::Scenario scenario = runner::NormalLoadScenario(0.05);
  const workload::Trace trace = workload::GenerateTrace(scenario.workload);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sched::RoundRobinScheduler scheduler;
    const auto policy = core::MakePolicy(core::PolicyKind::kResSusUtil);
    cluster::SimulationOptions options;
    options.audit_period = MinutesToTicks(30);
    options.audit_on_transitions = true;
    cluster::NetBatchSimulation simulation(scenario.cluster, trace, scheduler,
                                           *policy, options);
    simulation.Run();
    events += simulation.simulator().FiredEvents();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = fired events");
}
BENCHMARK(BM_EndToEndSimulationAudited)->Unit(benchmark::kMillisecond);

}  // namespace
