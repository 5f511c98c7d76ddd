// Tests for machine failure injection: eviction, resubmission, repair,
// and accounting under churn.
#include <gtest/gtest.h>

#include "cluster/simulation.h"
#include "core/policies.h"
#include "metrics/collector.h"
#include "sched/round_robin.h"

namespace netbatch::cluster {
namespace {

workload::JobSpec Spec(JobId::ValueType id, Ticks submit, Ticks runtime,
                       std::int32_t cores = 1) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.submit_time = submit;
  spec.runtime = runtime;
  spec.cores = cores;
  spec.memory_mb = 1024;
  return spec;
}

ClusterConfig TwoMachineCluster() {
  ClusterConfig config;
  PoolConfig pool;
  pool.machine_groups.push_back(
      {.count = 2, .cores = 4, .memory_mb = 16384, .speed = 1.0});
  config.pools.push_back(pool);
  return config;
}

TEST(OutageTest, EvictMachineDetachesEverything) {
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  machines.Add(4, 16384, 1.0);
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, true);

  Job running = jobs.Create(Spec(0, 0, MinutesToTicks(100), 2));
  running.OnSubmitted(0);
  pool.TryPlace(running, 0);
  ASSERT_EQ(running.state(), JobState::kRunning);

  const auto evicted = pool.EvictMachine(MachineId(0), MinutesToTicks(10));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], JobId(0));
  EXPECT_EQ(pool.busy_cores(), 0);
  EXPECT_FALSE(pool.machines()[0].online());

  // Offline machine refuses placements...
  Job next = jobs.Create(Spec(1, 0, MinutesToTicks(10), 1));
  next.OnSubmitted(0);
  running.OnRestart(MinutesToTicks(10), PoolId(0));
  EXPECT_EQ(pool.TryPlace(next, MinutesToTicks(10)).outcome,
            PlaceOutcome::kQueued);
  // ...until repaired, when the queue backfills.
  const auto started = pool.RepairMachine(MachineId(0), MinutesToTicks(20));
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], JobId(1));
  pool.CheckInvariants();
}

ClusterConfig TwoSinglePoolCluster() {
  ClusterConfig config;
  for (int p = 0; p < 2; ++p) {
    PoolConfig pool;
    pool.machine_groups.push_back(
        {.count = 1, .cores = 4, .memory_mb = 16384, .speed = 1.0});
    config.pools.push_back(pool);
  }
  return config;
}

TEST(OutageTest, JobBouncesToNextPoolWhenEligibleMachinesOffline) {
  // Pool 0's only machine is down. The virtual pool manager must not strand
  // the job behind the outage: it bounces to pool 1 and completes there.
  const workload::Trace trace({Spec(0, 0, MinutesToTicks(10), 4)});
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  NetBatchSimulation sim(TwoSinglePoolCluster(), trace, scheduler, policy);
  sim.mutable_pool(PoolId(0)).EvictMachine(MachineId(0), 0);
  sim.Run();

  const Job& job = sim.jobs().at(JobId(0));
  EXPECT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.pool(), PoolId(1));
  sim.CheckInvariants();
}

TEST(OutageTest, OfflinePoolRefusalIsCountedAsBounce) {
  // Round-robin rotates per submission: job 0 sees [0,1], job 1 sees [1,0],
  // job 2 sees [0,1]. With pool 0 down and pool 1 busy, job 2's commit pass
  // consults pool 0 first, gets refused for the outage, and queues at pool 1
  // — that refusal is the one vpm.bounces tick.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(30), 4),
      Spec(1, MinutesToTicks(1), MinutesToTicks(10), 4),
      Spec(2, MinutesToTicks(2), MinutesToTicks(10), 4),
  });
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  NetBatchSimulation sim(TwoSinglePoolCluster(), trace, scheduler, policy);
  sim.mutable_pool(PoolId(0)).EvictMachine(MachineId(0), 0);
  sim.Run();

  EXPECT_EQ(sim.completed_count(), 3u);
  for (const Job& job : sim.jobs()) {
    EXPECT_EQ(job.pool(), PoolId(1));
  }
  const Counter* bounces = sim.counters().FindCounter("vpm.bounces");
  ASSERT_NE(bounces, nullptr);
  EXPECT_EQ(bounces->value(), 1u);
  sim.CheckInvariants();
}

TEST(OutageTest, JobWaitsForRepairWhenEveryEligibleMachineOffline) {
  // When *no* candidate pool has an online eligible machine, the job must
  // not be rejected — rejection is a capacity decision. It queues at the
  // first capacity-eligible pool and waits for the repair.
  const workload::Trace trace({Spec(0, 0, MinutesToTicks(10), 4)});
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  ClusterConfig config;
  PoolConfig pool;
  pool.machine_groups.push_back(
      {.count = 1, .cores = 4, .memory_mb = 16384, .speed = 1.0});
  config.pools.push_back(pool);
  NetBatchSimulation sim(config, trace, scheduler, policy);
  sim.mutable_pool(PoolId(0)).EvictMachine(MachineId(0), 0);
  // The fallback pass parks the job in the (capacity-eligible) pool's queue
  // to wait out the outage. Were it rejected instead, the run would finish
  // cleanly with rejected_count == 1; with no repair ever scheduled, the
  // loop must instead drain with the job still waiting — which the engine
  // treats as fatal.
  EXPECT_DEATH(sim.Run(), "unfinished jobs");
}

TEST(OutageTest, EvictedJobLosesProgressAndCompletesElsewhere) {
  // Deterministic end-to-end: with MTBF enabled and a known seed, failures
  // hit; the evicted job must still complete with consistent accounting.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(600), 4),
      Spec(1, 0, MinutesToTicks(600), 4),
  });
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  SimulationOptions options;
  options.outages.mtbf_minutes = 300;  // frequent failures
  options.outages.mttr_minutes = 60;
  NetBatchSimulation sim(TwoMachineCluster(), trace, scheduler, policy,
                         options);
  sim.Run();

  EXPECT_GT(sim.outage_count(), 0u);
  EXPECT_EQ(sim.completed_count(), 2u);
  for (const Job& job : sim.jobs()) {
    EXPECT_EQ(job.state(), JobState::kCompleted);
    EXPECT_EQ(job.wait_ticks() + job.suspend_ticks() + job.executed_ticks() +
                  job.transit_ticks(),
              job.completion_time() - job.submit_time());
    if (job.restart_count() > 0) {
      EXPECT_GT(job.resched_waste_ticks(), 0);
    }
  }
  sim.CheckInvariants();
}

TEST(OutageTest, CheckpointingLimitsEvictionLoss) {
  // Same churn with and without checkpointing: checkpointed runs must
  // waste no more than the un-checkpointed ones.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(900), 4),
      Spec(1, 0, MinutesToTicks(900), 4),
  });
  double waste_plain = 0, waste_ckpt = 0;
  for (const Ticks interval : {Ticks{0}, MinutesToTicks(30)}) {
    sched::RoundRobinScheduler scheduler;
    core::NoResPolicy policy;
    SimulationOptions options;
    options.outages.mtbf_minutes = 400;
    options.outages.mttr_minutes = 30;
    options.checkpoint_interval = interval;
    NetBatchSimulation sim(TwoMachineCluster(), trace, scheduler, policy,
                           options);
    metrics::MetricsCollector collector;
    sim.AddObserver(&collector);
    sim.Run();
    const auto report = collector.BuildReport(sim, "outage");
    (interval == 0 ? waste_plain : waste_ckpt) =
        report.avg_resched_waste_minutes;
  }
  EXPECT_LE(waste_ckpt, waste_plain);
  EXPECT_GT(waste_plain, 0.0);
}

TEST(OutageTest, DisabledByDefault) {
  const workload::Trace trace({Spec(0, 0, MinutesToTicks(100))});
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  NetBatchSimulation sim(TwoMachineCluster(), trace, scheduler, policy);
  sim.Run();
  EXPECT_EQ(sim.outage_count(), 0u);
  EXPECT_EQ(sim.jobs().at(JobId(0)).restart_count(), 0);
}

}  // namespace
}  // namespace netbatch::cluster
