// Placement-engine benchmarks at paper-scale pool sizes ("tens of
// thousands of machines" per pool, §2.1).
//
// Each benchmark isolates one pool-scheduling path that used to be linear
// in machine count:
//   * first-fit placement when the only free machine is at the end of the
//     machine table (the saturated-pool common case);
//   * submission to a fully busy pool (step-1 scan + step-2 preemption scan
//     + enqueue), the dominant path of every standing backlog;
//   * preemption placement when the preemptible machines sit behind a long
//     prefix of non-preemptible ones;
//   * the HasEligibleMachine capacity probe the virtual pool manager issues
//     per candidate pool per decision;
//   * backfill against a machine with free cores but no free memory, in
//     front of a deep wait queue (the ScheduleNextOn gate).
// BM_EndToEndLargePool runs the bigpool scenario end to end; canonical
// before/after numbers live in BENCH_placement.json.
#include <benchmark/benchmark.h>

#include "cluster/pool.h"
#include "cluster/simulation.h"
#include "core/policies.h"
#include "runner/scenarios.h"
#include "sched/round_robin.h"
#include "workload/generator.h"

namespace {

using namespace netbatch;
using namespace netbatch::cluster;

workload::JobSpec MakeSpec(JobId::ValueType id, std::int32_t cores,
                           std::int64_t memory_mb, Ticks runtime_minutes,
                           workload::Priority priority = workload::kLowPriority,
                           workload::OwnerId owner = workload::kNoOwner) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.cores = cores;
  spec.memory_mb = memory_mb;
  spec.runtime = MinutesToTicks(runtime_minutes);
  spec.priority = priority;
  spec.owner = owner;
  return spec;
}

MachineArena UniformMachines(JobArena& jobs, int count,
                             std::int32_t cores = 8,
                             std::int64_t memory_mb = 64 * 1024,
                             std::int32_t owner = -1) {
  MachineArena machines(PoolId(0), jobs);
  machines.Reserve(static_cast<std::size_t>(count));
  for (int m = 0; m < count; ++m) {
    machines.Add(cores, memory_mb, 1.0, owner);
  }
  return machines;
}

// Fills every machine of `pool` with one `cores`-wide pinned job. Returns
// the first unused job id.
JobId::ValueType Saturate(PhysicalPool& pool, JobArena& jobs, int machines,
                          std::int32_t cores, JobId::ValueType next,
                          workload::Priority priority = workload::kLowPriority) {
  for (int m = 0; m < machines; ++m) {
    Job job = jobs.Create(MakeSpec(next++, cores, 1024, 100000, priority));
    job.OnSubmitted(0);
    const PlaceResult result = pool.TryPlace(job, 0);
    NETBATCH_CHECK(result.outcome == PlaceOutcome::kStarted,
                   "saturation job failed to start");
  }
  return next;
}

// First-fit when machines [0, N-1) are fully busy: the scan (or index
// lookup) must locate the lone free machine at the very end of the table.
void BM_FirstFitLastFreeMachine(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  JobArena jobs;
  PhysicalPool pool(PoolId(0), UniformMachines(jobs, machines), jobs,
                    /*suspended_holds_memory=*/true);
  JobId::ValueType next =
      Saturate(pool, jobs, machines - 1, /*cores=*/8, /*next=*/0);
  Ticks now = 1;
  for (auto _ : state) {
    Job job = jobs.Create(MakeSpec(next++, 2, 1024, 10));
    job.OnSubmitted(now);
    const PlaceResult result = pool.TryPlace(job, now);
    benchmark::DoNotOptimize(result.machine);
    pool.OnJobCompleted(job, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirstFitLastFreeMachine)->Arg(1024)->Arg(10000)->Arg(40000);

// Submission to a fully busy pool of equal-priority work: step 1 finds no
// free machine, step 2 finds no preemptible one, the job queues. This is
// the per-arrival cost of a standing backlog.
void BM_SaturatedSubmitToQueue(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  JobArena jobs;
  PhysicalPool pool(PoolId(0), UniformMachines(jobs, machines), jobs,
                    /*suspended_holds_memory=*/true);
  JobId::ValueType next = Saturate(pool, jobs, machines, /*cores=*/8, 0);
  Ticks now = 1;
  for (auto _ : state) {
    Job job = jobs.Create(MakeSpec(next++, 2, 1024, 10));
    job.OnSubmitted(now);
    const PlaceResult result = pool.TryPlace(job, now);
    NETBATCH_CHECK(result.outcome == PlaceOutcome::kQueued, "expected queue");
    pool.KillJob(job, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SaturatedSubmitToQueue)->Arg(1024)->Arg(10000)->Arg(40000);

// Preemption placement where the first half of the machine table runs
// non-preemptible high-priority work: the victim search must skip it all
// (linearly, or via the preemptible-priority summary).
void BM_PreemptionBehindBusyPrefix(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  JobArena jobs;
  PhysicalPool pool(PoolId(0), UniformMachines(jobs, machines), jobs,
                    /*suspended_holds_memory=*/true);
  JobId::ValueType next = 0;
  next = Saturate(pool, jobs, machines / 2, /*cores=*/8, next,
                  workload::kHighPriority);
  next = Saturate(pool, jobs, machines / 2, /*cores=*/8, next,
                  workload::kLowPriority);
  Ticks now = 1;
  for (auto _ : state) {
    Job job = jobs.Create(
        MakeSpec(next++, 8, 1024, 5, workload::kHighPriority));
    job.OnSubmitted(now);
    const PlaceResult result = pool.TryPlace(job, now);
    NETBATCH_CHECK(result.outcome == PlaceOutcome::kStarted &&
                       !result.suspended.empty(),
                   "expected a preemption start");
    // Completing the preemptor resumes its victim: steady state.
    pool.OnJobCompleted(job, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreemptionBehindBusyPrefix)->Arg(1024)->Arg(10000)->Arg(40000);

// The virtual pool manager's capacity probe for a job no machine can ever
// run — issued once per candidate pool per placement/rescheduling decision.
void BM_HasEligibleMachineMiss(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  JobArena jobs;
  PhysicalPool pool(PoolId(0), UniformMachines(jobs, machines), jobs,
                    /*suspended_holds_memory=*/true);
  const workload::JobSpec spec = MakeSpec(0, 128, 1024, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.HasEligibleMachine(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HasEligibleMachineMiss)->Arg(1024)->Arg(10000)->Arg(40000);

// Backfill against a machine whose cores are free but whose memory is
// exhausted, with a deep wait queue of memory-hungry jobs: the
// ScheduleNextOn gate decides whether the whole queue is walked per call.
void BM_BackfillMemoryExhausted(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  machines.Add(64, 64 * 1024, 1.0);
  PhysicalPool pool(PoolId(0), std::move(machines), jobs,
                    /*suspended_holds_memory=*/true);
  JobId::ValueType next = 0;
  // One job claims all memory but few cores.
  Job hog = jobs.Create(MakeSpec(next++, 2, 64 * 1024, 100000));
  hog.OnSubmitted(0);
  NETBATCH_CHECK(pool.TryPlace(hog, 0).outcome == PlaceOutcome::kStarted,
                 "hog failed to start");
  for (int w = 0; w < waiters; ++w) {
    Job job = jobs.Create(MakeSpec(next++, 1, 2048, 10));
    job.OnSubmitted(0);
    NETBATCH_CHECK(pool.TryPlace(job, 0).outcome == PlaceOutcome::kQueued,
                   "waiter failed to queue");
  }
  Ticks now = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Backfill(MachineId(0), ++now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackfillMemoryExhausted)->Arg(1024)->Arg(16384);

// End-to-end bigpool run at a reduced scale (the canonical scale-1.0
// numbers come from `netbatch_cli --scenario=bigpool --profile`; see
// BENCH_placement.json).
void BM_EndToEndLargePool(benchmark::State& state) {
  const runner::Scenario scenario = runner::LargePoolScenario(0.1);
  const workload::Trace trace = workload::GenerateTrace(scenario.workload);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sched::RoundRobinScheduler scheduler;
    const auto policy = core::MakePolicy(core::PolicyKind::kResSusUtil);
    NetBatchSimulation simulation(scenario.cluster, trace, scheduler, *policy);
    simulation.Run();
    events += simulation.simulator().FiredEvents();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = fired events");
}
BENCHMARK(BM_EndToEndLargePool)->Unit(benchmark::kMillisecond);

}  // namespace
