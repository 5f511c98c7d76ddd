// Tests for inter-site rescheduling: the per-pool-pair transfer matrix and
// the cross-site selector variant.
#include <gtest/gtest.h>

#include "cluster/simulation.h"
#include "core/policies.h"
#include "core/pool_selector.h"
#include "runner/scenarios.h"
#include "sched/round_robin.h"

namespace netbatch::cluster {
namespace {

workload::JobSpec Spec(JobId::ValueType id, Ticks submit, Ticks runtime,
                       std::int32_t cores = 4,
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

ClusterConfig ThreePoolCluster() {
  ClusterConfig config;
  for (int p = 0; p < 3; ++p) {
    PoolConfig pool;
    pool.machine_groups.push_back(
        {.count = 1, .cores = 4, .memory_mb = 16384, .speed = 1.0});
    config.pools.push_back(pool);
  }
  return config;
}

class FixedTargetPolicy final : public ReschedulingPolicy {
 public:
  explicit FixedTargetPolicy(PoolId target) : target_(target) {}
  std::optional<PoolId> OnSuspended(const Job&, const ClusterView&) override {
    return target_;
  }

 private:
  PoolId target_;
};

TEST(TransferMatrixTest, PerPairDelayOverridesScalarOverhead) {
  // Victim in pool 0 is restarted in pool 2; the matrix charges 25 minutes
  // for that pair even though the scalar overhead is 0.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(100), 4, workload::kLowPriority, {PoolId(0)}),
      Spec(1, MinutesToTicks(40), MinutesToTicks(30), 4,
           workload::kHighPriority, {PoolId(0)}),
  });
  sched::RoundRobinScheduler scheduler;
  FixedTargetPolicy policy(PoolId(2));
  SimulationOptions options;
  options.transfer_matrix.assign(3, std::vector<Ticks>(3, 0));
  options.transfer_matrix[0][2] = MinutesToTicks(25);
  NetBatchSimulation sim(ThreePoolCluster(), trace, scheduler, policy,
                         options);
  sim.Run();

  const Job& victim = sim.jobs().at(JobId(0));
  EXPECT_EQ(victim.pool(), PoolId(2));
  EXPECT_EQ(victim.transit_ticks(), MinutesToTicks(25));
  EXPECT_EQ(victim.completion_time(), MinutesToTicks(40 + 25 + 100));
}

TEST(TransferMatrixTest, ZeroDelayPairDeliversImmediately) {
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(100), 4, workload::kLowPriority, {PoolId(0)}),
      Spec(1, MinutesToTicks(40), MinutesToTicks(30), 4,
           workload::kHighPriority, {PoolId(0)}),
  });
  sched::RoundRobinScheduler scheduler;
  FixedTargetPolicy policy(PoolId(1));
  SimulationOptions options;
  options.transfer_matrix.assign(3, std::vector<Ticks>(3, MinutesToTicks(60)));
  options.transfer_matrix[0][1] = 0;  // cheap pair
  NetBatchSimulation sim(ThreePoolCluster(), trace, scheduler, policy,
                         options);
  sim.Run();
  EXPECT_EQ(sim.jobs().at(JobId(0)).transit_ticks(), 0);
}

TEST(TransferMatrixTest, MalformedMatrixAborts) {
  const workload::Trace trace({Spec(0, 0, 600)});
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  SimulationOptions options;
  options.transfer_matrix.assign(2, std::vector<Ticks>(3, 0));  // wrong rows
  EXPECT_DEATH(NetBatchSimulation(ThreePoolCluster(), trace, scheduler,
                                  policy, options),
               "one row per pool");
}

TEST(CrossSiteSelectorTest, EscapesCandidateRestriction) {
  // The job's candidate set is {0}; the in-site selector has nowhere to go,
  // the cross-site selector finds idle pool 1.
  core::LowestUtilizationSelector in_site(true, /*cross_site=*/false);
  core::LowestUtilizationSelector cross_site(true, /*cross_site=*/true);

  // Build a live view via a real simulation: pool 0 fully busy.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(1000), 4, workload::kLowPriority, {PoolId(0)}),
  });
  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  NetBatchSimulation sim(ThreePoolCluster(), trace, scheduler, policy);
  sim.simulator().ScheduleAt(MinutesToTicks(5), [&] {
    JobArena probe_table;
    Job probe =
        probe_table.Create(Spec(99, 0, 600, 1, workload::kLowPriority, {PoolId(0)}));
    probe.OnSubmitted(0);
    probe.set_pool(PoolId(0));
    EXPECT_FALSE(in_site.Select(probe, PoolId(0), sim).has_value());
    const auto target = cross_site.Select(probe, PoolId(0), sim);
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, PoolId(0));
  });
  sim.Run();
}

TEST(TransferMatrixBuilderTest, SiteStructureDrivesCosts) {
  const runner::Scenario scenario = runner::NormalLoadScenario(0.05);
  const auto matrix = runner::BuildTransferMatrix(
      scenario, MinutesToTicks(2), MinutesToTicks(90));
  ASSERT_EQ(matrix.size(), 20u);
  // Same pool: free. Same site (0 and 1 share site 0): local. Pools in
  // disjoint sites (0 and 4): cross-site.
  EXPECT_EQ(matrix[0][0], 0);
  EXPECT_EQ(matrix[0][1], MinutesToTicks(2));
  EXPECT_EQ(matrix[0][4], MinutesToTicks(90));
  EXPECT_EQ(matrix[4][0], MinutesToTicks(90));
}

}  // namespace
}  // namespace netbatch::cluster
