// Tests for the checkpointing extension: restarts lose only the progress
// since the last checkpoint.
#include <gtest/gtest.h>

#include "cluster/simulation.h"
#include "core/policies.h"
#include "sched/round_robin.h"

namespace netbatch::cluster {
namespace {

workload::JobSpec Spec(JobId::ValueType id, Ticks submit, Ticks runtime,
                       std::int32_t cores,
                       workload::Priority priority = workload::kLowPriority,
                       std::vector<PoolId> pools = {}) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.submit_time = submit;
  spec.runtime = runtime;
  spec.cores = cores;
  spec.memory_mb = 1024;
  spec.priority = priority;
  spec.candidate_pools = std::move(pools);
  return spec;
}

TEST(CheckpointTest, RestartKeepsCheckpointedProgress) {
  // 100-minute job, 30-minute checkpoints, suspended at t=70 with 70 min of
  // progress -> restart keeps 60, loses 10.
  JobArena jobs;
  Job job = jobs.Create(Spec(0, 0, MinutesToTicks(100), 1));
  job.OnSubmitted(0);
  job.OnStarted(0, MachineId(0), 1.0);
  job.OnSuspended(MinutesToTicks(70));
  job.OnRestart(MinutesToTicks(70), PoolId(1), MinutesToTicks(30));

  EXPECT_EQ(job.remaining_work(), MinutesToTicks(40));
  EXPECT_EQ(job.resched_waste_ticks(), MinutesToTicks(10));
}

TEST(CheckpointTest, ZeroIntervalLosesEverything) {
  JobArena jobs;
  Job job = jobs.Create(Spec(0, 0, MinutesToTicks(100), 1));
  job.OnSubmitted(0);
  job.OnStarted(0, MachineId(0), 1.0);
  job.OnSuspended(MinutesToTicks(70));
  job.OnRestart(MinutesToTicks(70), PoolId(1), 0);
  EXPECT_EQ(job.remaining_work(), MinutesToTicks(100));
  EXPECT_EQ(job.resched_waste_ticks(), MinutesToTicks(70));
}

TEST(CheckpointTest, ProgressExactlyAtCheckpointLosesNothing) {
  JobArena jobs;
  Job job = jobs.Create(Spec(0, 0, MinutesToTicks(100), 1));
  job.OnSubmitted(0);
  job.OnStarted(0, MachineId(0), 1.0);
  job.OnSuspended(MinutesToTicks(60));
  job.OnRestart(MinutesToTicks(60), PoolId(1), MinutesToTicks(30));
  EXPECT_EQ(job.remaining_work(), MinutesToTicks(40));
  EXPECT_EQ(job.resched_waste_ticks(), 0);
}

TEST(CheckpointTest, RepeatedRestartsOnlyDiscardSinceLastCheckpoint) {
  // First attempt: 50 min progress, keep 30 (waste 20). Second attempt:
  // 25 more min (total 55), keep 30 again -> waste 25.
  JobArena jobs;
  Job job = jobs.Create(Spec(0, 0, MinutesToTicks(100), 1));
  job.OnSubmitted(0);
  job.OnStarted(0, MachineId(0), 1.0);
  job.OnSuspended(MinutesToTicks(50));
  job.OnRestart(MinutesToTicks(50), PoolId(1), MinutesToTicks(30));
  EXPECT_EQ(job.remaining_work(), MinutesToTicks(70));
  EXPECT_EQ(job.resched_waste_ticks(), MinutesToTicks(20));

  job.OnStarted(MinutesToTicks(50), MachineId(0), 1.0);
  job.OnSuspended(MinutesToTicks(75));
  job.OnRestart(MinutesToTicks(75), PoolId(0), MinutesToTicks(30));
  EXPECT_EQ(job.remaining_work(), MinutesToTicks(70));  // still 30 kept
  EXPECT_EQ(job.resched_waste_ticks(), MinutesToTicks(20 + 25));
}

TEST(CheckpointTest, SpeedScalingProRatesWaste) {
  // On a 2x machine, 40 wall minutes = 80 work minutes. With 60-minute
  // checkpoints, 20 work minutes (=10 wall minutes) are discarded.
  JobArena jobs;
  Job job = jobs.Create(Spec(0, 0, MinutesToTicks(100), 1));
  job.OnSubmitted(0);
  job.OnStarted(0, MachineId(0), 2.0);
  job.OnSuspended(MinutesToTicks(40));
  job.OnRestart(MinutesToTicks(40), PoolId(1), MinutesToTicks(60));
  EXPECT_EQ(job.remaining_work(), MinutesToTicks(40));
  EXPECT_EQ(job.resched_waste_ticks(), MinutesToTicks(10));
}

TEST(CheckpointTest, EndToEndCompletionTimeReflectsKeptProgress) {
  // Pool 0: low job preempted at t=40 by a long high job; with 20-minute
  // checkpoints it restarts in pool 1 keeping 40 minutes -> completes at
  // t = 40 + 60 = 100 instead of t = 140.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(100), 4),
      Spec(1, MinutesToTicks(40), MinutesToTicks(300), 4,
           workload::kHighPriority, {PoolId(0)}),
  });
  ClusterConfig config;
  for (int p = 0; p < 2; ++p) {
    PoolConfig pool;
    pool.machine_groups.push_back(
        {.count = 1, .cores = 4, .memory_mb = 16384, .speed = 1.0});
    config.pools.push_back(pool);
  }
  sched::RoundRobinScheduler scheduler;
  const auto policy = core::MakePolicy(core::PolicyKind::kResSusUtil);
  SimulationOptions options;
  options.checkpoint_interval = MinutesToTicks(20);
  NetBatchSimulation sim(config, trace, scheduler, *policy, options);
  sim.Run();

  const Job& low = sim.jobs().at(JobId(0));
  EXPECT_EQ(low.completion_time(), MinutesToTicks(100));
  EXPECT_EQ(low.resched_waste_ticks(), 0);  // suspended exactly at 40 = 2x20
  EXPECT_EQ(low.wait_ticks() + low.suspend_ticks() + low.executed_ticks() +
                low.transit_ticks(),
            low.completion_time() - low.submit_time());
}

}  // namespace
}  // namespace netbatch::cluster
