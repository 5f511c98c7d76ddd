// Tests for the telemetry-driven load predictor and its selector.
#include <gtest/gtest.h>

#include "cluster/job.h"
#include "cluster/simulation.h"
#include "core/load_predictor.h"
#include "core/policies.h"
#include "metrics/collector.h"
#include "sched/round_robin.h"

namespace netbatch::core {
namespace {

// Scriptable view (same shape as the selector tests).
class FakeView final : public cluster::ClusterView {
 public:
  explicit FakeView(std::size_t pools)
      : utilization_(pools, 0.0), queues_(pools, 0) {}

  Ticks Now() const override { return 0; }
  std::size_t PoolCount() const override { return utilization_.size(); }
  double PoolUtilization(PoolId pool) const override {
    return utilization_[pool.value()];
  }
  std::size_t PoolQueueLength(PoolId pool) const override {
    return queues_[pool.value()];
  }
  std::int64_t PoolTotalCores(PoolId) const override { return 100; }
  bool PoolEligible(PoolId, const workload::JobSpec&) const override {
    return true;
  }
  double ClusterUtilization() const override { return 0; }
  std::size_t SuspendedJobCount() const override { return 0; }

  std::vector<double> utilization_;
  std::vector<std::size_t> queues_;
};

cluster::Job MakeJob() {
  static cluster::JobArena table;
  static int next_id = 0;
  workload::JobSpec spec;
  spec.id = JobId(next_id++);
  spec.runtime = 600;
  return table.Create(spec);
}

TEST(PoolLoadPredictorTest, FirstSampleInitializesState) {
  FakeView view(2);
  view.utilization_ = {0.8, 0.2};
  view.queues_ = {40, 0};
  PoolLoadPredictor predictor(0.5);
  EXPECT_FALSE(predictor.ready());
  predictor.OnSample(0, view);
  EXPECT_TRUE(predictor.ready());
  EXPECT_DOUBLE_EQ(predictor.SmoothedUtilization(PoolId(0)), 0.8);
  EXPECT_DOUBLE_EQ(predictor.SmoothedQueueLength(PoolId(0)), 40.0);
  EXPECT_DOUBLE_EQ(predictor.QueueTrend(PoolId(0)), 0.0);
}

TEST(PoolLoadPredictorTest, EwmaConvergesTowardNewLevel) {
  FakeView view(1);
  PoolLoadPredictor predictor(0.5);
  view.utilization_ = {0.0};
  predictor.OnSample(0, view);
  view.utilization_ = {1.0};
  for (int i = 1; i <= 10; ++i) predictor.OnSample(i, view);
  EXPECT_GT(predictor.SmoothedUtilization(PoolId(0)), 0.99);
  // Smoothed value lags a step change: after one sample it is only halfway.
  PoolLoadPredictor slow(0.5);
  view.utilization_ = {0.0};
  slow.OnSample(0, view);
  view.utilization_ = {1.0};
  slow.OnSample(1, view);
  EXPECT_DOUBLE_EQ(slow.SmoothedUtilization(PoolId(0)), 0.5);
}

TEST(PoolLoadPredictorTest, QueueTrendTracksGrowth) {
  FakeView view(1);
  PoolLoadPredictor predictor(1.0);  // no smoothing: trend = last delta
  view.queues_ = {0};
  predictor.OnSample(0, view);
  view.queues_ = {10};
  predictor.OnSample(1, view);
  EXPECT_DOUBLE_EQ(predictor.QueueTrend(PoolId(0)), 10.0);
  view.queues_ = {5};
  predictor.OnSample(2, view);
  EXPECT_DOUBLE_EQ(predictor.QueueTrend(PoolId(0)), -5.0);
}

TEST(PoolLoadPredictorTest, DelayScoreOrdersPoolsSensibly) {
  FakeView view(3);
  view.utilization_ = {0.99, 0.5, 0.99};
  view.queues_ = {500, 0, 20};
  PoolLoadPredictor predictor(1.0);
  predictor.OnSample(0, view);
  const double busy_backlogged = predictor.PredictedDelayScore(PoolId(0));
  const double idle = predictor.PredictedDelayScore(PoolId(1));
  const double busy_short_queue = predictor.PredictedDelayScore(PoolId(2));
  EXPECT_LT(idle, busy_short_queue);
  EXPECT_LT(busy_short_queue, busy_backlogged);
}

TEST(PredictorSelectorTest, FallsBackToLiveViewBeforeFirstSample) {
  FakeView view(3);
  view.utilization_ = {0.9, 0.1, 0.5};
  PoolLoadPredictor predictor;
  PredictorSelector selector(predictor);
  const cluster::Job job = MakeJob();
  const auto target = selector.Select(job, PoolId(0), view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, PoolId(1));
}

TEST(PredictorSelectorTest, UsesSmoothedTelemetryOnceReady) {
  FakeView view(2);
  // Telemetry says pool 0 is loaded; then live state flips, but the
  // selector (like real monitoring consumers) still sees the smoothed view.
  view.utilization_ = {0.95, 0.1};
  view.queues_ = {200, 0};
  PoolLoadPredictor predictor(1.0);
  PredictorSelector selector(predictor);
  predictor.OnSample(0, view);

  view.utilization_ = {0.0, 0.99};  // live flip, unsampled
  view.queues_ = {0, 300};
  const cluster::Job job = MakeJob();
  const auto target = selector.Select(job, PoolId(0), view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, PoolId(1));  // chosen from stale telemetry
}

TEST(PredictorSelectorTest, RetainsWhenCurrentScoresBest) {
  FakeView view(2);
  view.utilization_ = {0.1, 0.9};
  view.queues_ = {0, 100};
  PoolLoadPredictor predictor(1.0);
  predictor.OnSample(0, view);
  PredictorSelector selector(predictor);
  const cluster::Job job = MakeJob();
  EXPECT_FALSE(selector.Select(job, PoolId(0), view).has_value());
}

TEST(PredictorSelectorTest, EndToEndRunWithPredictorBackedPolicy) {
  // Wire predictor + policy into a real simulation: the predictor observes
  // the sampling stream while the policy consults it for every decision.
  cluster::ClusterConfig config;
  for (int p = 0; p < 3; ++p) {
    cluster::PoolConfig pool;
    pool.machine_groups.push_back(
        {.count = 2, .cores = 4, .memory_mb = 16384, .speed = 1.0});
    config.pools.push_back(pool);
  }
  std::vector<workload::JobSpec> specs;
  for (JobId::ValueType i = 0; i < 120; ++i) {
    workload::JobSpec spec;
    spec.id = JobId(i);
    spec.submit_time = MinutesToTicks(i * 3);
    spec.cores = 2;
    spec.memory_mb = 1024;
    spec.runtime = MinutesToTicks(60 + (i % 7) * 30);
    spec.priority = (i % 5 == 0) ? workload::kHighPriority
                                 : workload::kLowPriority;
    specs.push_back(std::move(spec));
  }
  const workload::Trace trace(std::move(specs));

  PoolLoadPredictor predictor(0.3);
  CompositeReschedulingPolicy policy(
      std::make_unique<PredictorSelector>(predictor),
      std::make_unique<PredictorSelector>(predictor), MinutesToTicks(30));
  sched::RoundRobinScheduler scheduler;
  cluster::NetBatchSimulation sim(config, trace, scheduler, policy);
  sim.AddObserver(&predictor);
  metrics::MetricsCollector collector;
  sim.AddObserver(&collector);
  sim.Run();

  EXPECT_EQ(sim.completed_count(), 120u);
  EXPECT_GT(predictor.samples_seen(), 0);
  sim.CheckInvariants();
}

}  // namespace
}  // namespace netbatch::core
