// Unit tests for the rescheduling core: pool selectors and the paper's
// policy factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>

#include "cluster/job.h"
#include "common/rng.h"
#include "core/policies.h"
#include "core/pool_selector.h"

namespace netbatch::core {
namespace {

class FakeView final : public cluster::ClusterView {
 public:
  explicit FakeView(std::size_t pools)
      : utilization_(pools, 0.0), queues_(pools, 0), eligible_(pools, true) {}

  Ticks Now() const override { return 0; }
  std::size_t PoolCount() const override { return utilization_.size(); }
  double PoolUtilization(PoolId pool) const override {
    return utilization_[pool.value()];
  }
  std::size_t PoolQueueLength(PoolId pool) const override {
    return queues_[pool.value()];
  }
  std::int64_t PoolTotalCores(PoolId) const override { return 1000; }
  bool PoolEligible(PoolId pool, const workload::JobSpec&) const override {
    return eligible_[pool.value()];
  }
  double ClusterUtilization() const override { return 0; }
  std::size_t SuspendedJobCount() const override { return 0; }

  std::vector<double> utilization_;
  std::vector<std::size_t> queues_;
  std::vector<bool> eligible_;
};

cluster::Job MakeJob(std::vector<PoolId> candidates = {}) {
  static cluster::JobArena table;
  static int next_id = 0;
  workload::JobSpec spec;
  spec.id = JobId(next_id++);
  spec.runtime = 600;
  spec.candidate_pools = std::move(candidates);
  return table.Create(spec);
}

TEST(EligibleCandidatePoolsTest, FiltersIneligiblePools) {
  FakeView view(4);
  view.eligible_ = {true, false, true, false};
  const cluster::Job job = MakeJob();
  const auto pools = EligibleCandidatePools(job, view);
  EXPECT_EQ(pools, (std::vector<PoolId>{PoolId(0), PoolId(2)}));
}

TEST(LowestUtilizationSelectorTest, PicksLeastUtilizedPool) {
  FakeView view(4);
  view.utilization_ = {0.9, 0.3, 0.7, 0.5};
  LowestUtilizationSelector selector;
  const cluster::Job job = MakeJob();
  const auto target = selector.Select(job, PoolId(0), view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, PoolId(1));
}

TEST(LowestUtilizationSelectorTest, RetainsWhenCurrentPoolIsBest) {
  // The paper's retain rule: "if all alternate pools are even more utilized
  // than the current pool, ResSusUtil will simply retain the suspended job".
  FakeView view(3);
  view.utilization_ = {0.2, 0.8, 0.9};
  LowestUtilizationSelector selector;
  const cluster::Job job = MakeJob();
  EXPECT_FALSE(selector.Select(job, PoolId(0), view).has_value());
}

TEST(LowestUtilizationSelectorTest, RetainsOnEqualUtilization) {
  FakeView view(2);
  view.utilization_ = {0.5, 0.5};
  LowestUtilizationSelector selector;
  const cluster::Job job = MakeJob();
  EXPECT_FALSE(selector.Select(job, PoolId(1), view).has_value());
}

TEST(LowestUtilizationSelectorTest, HonorsCandidateRestriction) {
  FakeView view(4);
  view.utilization_ = {0.9, 0.0, 0.7, 0.5};  // pool 1 best but not candidate
  LowestUtilizationSelector selector;
  const cluster::Job job = MakeJob({PoolId(0), PoolId(3)});
  const auto target = selector.Select(job, PoolId(0), view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, PoolId(3));
}

TEST(LowestUtilizationSelectorTest, NoEligiblePoolMeansRetain) {
  FakeView view(2);
  view.eligible_ = {false, false};
  LowestUtilizationSelector selector;
  const cluster::Job job = MakeJob();
  EXPECT_FALSE(selector.Select(job, PoolId(0), view).has_value());
}

TEST(RandomSelectorTest, NeverPicksCurrentOrIneligiblePool) {
  FakeView view(5);
  view.eligible_ = {true, true, false, true, true};
  RandomSelector selector(123);
  const cluster::Job job = MakeJob();
  for (int i = 0; i < 500; ++i) {
    const auto target = selector.Select(job, PoolId(0), view);
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, PoolId(0));
    EXPECT_NE(*target, PoolId(2));
  }
}

TEST(RandomSelectorTest, CoversAllAlternates) {
  FakeView view(4);
  RandomSelector selector(7);
  const cluster::Job job = MakeJob();
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 1000; ++i) {
    ++hits[selector.Select(job, PoolId(1), view)->value()];
  }
  EXPECT_EQ(hits[1], 0);
  for (std::size_t p : {0u, 2u, 3u}) EXPECT_GT(hits[p], 200);
}

TEST(RandomSelectorTest, RetainsWhenNoAlternateExists) {
  FakeView view(1);
  RandomSelector selector(7);
  const cluster::Job job = MakeJob();
  EXPECT_FALSE(selector.Select(job, PoolId(0), view).has_value());
}

// Reference copies of the selectors as they were before selection became
// allocation-free: collect the eligible candidates into a vector, then
// choose from it.
std::vector<PoolId> ReferenceEligiblePools(const cluster::Job& job,
                                           const cluster::ClusterView& view,
                                           bool ignore_candidate_restriction) {
  std::vector<PoolId> pools;
  const auto& spec = job.spec();
  if (ignore_candidate_restriction || spec.candidate_pools.empty()) {
    for (std::size_t p = 0; p < view.PoolCount(); ++p) {
      pools.emplace_back(static_cast<PoolId::ValueType>(p));
    }
  } else {
    pools = spec.candidate_pools;
  }
  std::erase_if(pools, [&](PoolId pool) {
    return !view.PoolEligible(pool, spec);
  });
  return pools;
}

std::optional<PoolId> ReferenceLowestUtilization(
    const cluster::Job& job, PoolId current, const cluster::ClusterView& view,
    bool retain_if_current_best, bool cross_site) {
  std::vector<PoolId> pools = ReferenceEligiblePools(job, view, cross_site);
  if (!retain_if_current_best) std::erase(pools, current);
  if (pools.empty()) return std::nullopt;
  PoolId best;
  double best_util = std::numeric_limits<double>::infinity();
  for (PoolId pool : pools) {
    const double util = view.PoolUtilization(pool);
    if (util < best_util || (util == best_util && pool < best)) {
      best = pool;
      best_util = util;
    }
  }
  if (!retain_if_current_best) return best;
  if (best == current ||
      (current.valid() && view.PoolUtilization(current) <= best_util)) {
    return std::nullopt;
  }
  return best;
}

std::optional<PoolId> ReferenceRandom(Rng& rng, const cluster::Job& job,
                                      PoolId current,
                                      const cluster::ClusterView& view,
                                      bool cross_site) {
  std::vector<PoolId> pools = ReferenceEligiblePools(job, view, cross_site);
  std::erase(pools, current);
  if (pools.empty()) return std::nullopt;
  return pools[rng.UniformIndex(pools.size())];
}

std::vector<std::uint8_t> RngStateBytes(const Rng& rng) {
  std::vector<std::uint8_t> out;
  for (const std::uint64_t word : rng.SaveState()) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  }
  return out;
}

// The in-place selectors choose exactly what the collecting ones chose, and
// RandomSelector consumes the same draws, over random views with tied
// utilizations, ineligible pools, empty, explicit and repeating candidate
// lists, both retain modes, both site modes, and an invalid current pool.
TEST(SelectorEquivalenceTest, InPlaceSelectionMatchesCollectingReference) {
  Rng gen(31);
  constexpr std::uint64_t kSeed = 77;
  std::array<RandomSelector, 2> random = {RandomSelector(kSeed, false),
                                          RandomSelector(kSeed, true)};
  std::array<Rng, 2> reference_rng = {Rng(kSeed), Rng(kSeed)};
  constexpr std::array<double, 4> kUtilLevels = {0.0, 0.25, 0.5, 1.0};
  int moves = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const std::size_t pool_count = 1 + gen.UniformIndex(7);
    FakeView view(pool_count);
    for (std::size_t p = 0; p < pool_count; ++p) {
      view.utilization_[p] = kUtilLevels[gen.UniformIndex(kUtilLevels.size())];
      view.eligible_[p] = gen.Bernoulli(0.75);
    }
    std::vector<PoolId> candidates;
    if (gen.Bernoulli(0.5)) {
      const std::size_t n = 1 + gen.UniformIndex(pool_count + 1);
      for (std::size_t i = 0; i < n; ++i) {
        candidates.emplace_back(
            static_cast<PoolId::ValueType>(gen.UniformIndex(pool_count)));
      }
    }
    const cluster::Job job = MakeJob(candidates);
    const PoolId current =
        gen.Bernoulli(0.15)
            ? PoolId()
            : PoolId(static_cast<PoolId::ValueType>(
                  gen.UniformIndex(pool_count)));
    for (const bool cross_site : {false, true}) {
      ASSERT_EQ(EligibleCandidatePools(job, view, cross_site),
                ReferenceEligiblePools(job, view, cross_site));
      for (const bool retain : {false, true}) {
        LowestUtilizationSelector lowest(retain, cross_site);
        const std::optional<PoolId> got = lowest.Select(job, current, view);
        ASSERT_EQ(got, ReferenceLowestUtilization(job, current, view, retain,
                                                  cross_site))
            << "trial " << trial;
        if (got.has_value()) ++moves;
      }
      const std::size_t r = cross_site ? 1 : 0;
      ASSERT_EQ(random[r].Select(job, current, view),
                ReferenceRandom(reference_rng[r], job, current, view,
                                cross_site))
          << "trial " << trial;
      std::vector<std::uint8_t> state;
      random[r].ExportState(state);
      ASSERT_EQ(state, RngStateBytes(reference_rng[r])) << "trial " << trial;
    }
  }
  EXPECT_GT(moves, 0);
}

TEST(ShortestQueueSelectorTest, PicksShortestQueue) {
  FakeView view(3);
  view.queues_ = {10, 2, 5};
  ShortestQueueSelector selector;
  const cluster::Job job = MakeJob();
  EXPECT_EQ(*selector.Select(job, PoolId(0), view), PoolId(1));
  // Retains when current is already shortest.
  view.queues_ = {0, 2, 5};
  EXPECT_FALSE(selector.Select(job, PoolId(0), view).has_value());
}

TEST(PredictedDelaySelectorTest, AvoidsSaturatedBackloggedPools) {
  FakeView view(3);
  view.utilization_ = {0.99, 0.3, 0.99};
  view.queues_ = {500, 0, 100};
  PredictedDelaySelector selector;
  const cluster::Job job = MakeJob();
  EXPECT_EQ(*selector.Select(job, PoolId(0), view), PoolId(1));
}

// --- policies ------------------------------------------------------------------

TEST(PolicyTest, NoResNeverMoves) {
  FakeView view(3);
  view.utilization_ = {1.0, 0.0, 0.0};
  auto policy = MakePolicy(PolicyKind::kNoRes);
  const cluster::Job job = MakeJob();
  EXPECT_FALSE(policy->OnSuspended(job, view).has_value());
  EXPECT_FALSE(policy->WaitRescheduleThreshold().has_value());
}

TEST(PolicyTest, ResSusUtilMovesSuspendedOnly) {
  FakeView view(3);
  view.utilization_ = {1.0, 0.0, 0.5};
  auto policy = MakePolicy(PolicyKind::kResSusUtil);
  const cluster::Job job = MakeJob();
  EXPECT_EQ(*policy->OnSuspended(job, view), PoolId(1));
  EXPECT_FALSE(policy->WaitRescheduleThreshold().has_value());
}

TEST(PolicyTest, ResSusWaitUtilHasThresholdAndBothHooks) {
  FakeView view(3);
  view.utilization_ = {1.0, 0.0, 0.5};
  PolicyOptions options;
  options.wait_threshold = MinutesToTicks(30);
  auto policy = MakePolicy(PolicyKind::kResSusWaitUtil, options);
  const cluster::Job job = MakeJob();
  EXPECT_EQ(*policy->OnSuspended(job, view), PoolId(1));
  ASSERT_TRUE(policy->WaitRescheduleThreshold().has_value());
  EXPECT_EQ(*policy->WaitRescheduleThreshold(), MinutesToTicks(30));
  EXPECT_EQ(*policy->OnWaitTimeout(job, view), PoolId(1));
}

TEST(PolicyTest, ResSusWaitRandMovesBothWays) {
  FakeView view(3);
  auto policy = MakePolicy(PolicyKind::kResSusWaitRand);
  const cluster::Job job = MakeJob();
  const auto suspended_target = policy->OnSuspended(job, view);
  ASSERT_TRUE(suspended_target.has_value());
  const auto wait_target = policy->OnWaitTimeout(job, view);
  ASSERT_TRUE(wait_target.has_value());
}

TEST(PolicyTest, ToStringNamesMatchPaper) {
  EXPECT_STREQ(ToString(PolicyKind::kNoRes), "NoRes");
  EXPECT_STREQ(ToString(PolicyKind::kResSusUtil), "ResSusUtil");
  EXPECT_STREQ(ToString(PolicyKind::kResSusRand), "ResSusRand");
  EXPECT_STREQ(ToString(PolicyKind::kResSusWaitUtil), "ResSusWaitUtil");
  EXPECT_STREQ(ToString(PolicyKind::kResSusWaitRand), "ResSusWaitRand");
}

TEST(PolicyTest, CompositeRequiresSelectorOrAborts) {
  EXPECT_DEATH(CompositeReschedulingPolicy(nullptr, nullptr, 0),
               "just NoRes");
}

TEST(PolicyTest, WaitSelectorRequiresPositiveThreshold) {
  EXPECT_DEATH(CompositeReschedulingPolicy(
                   nullptr, std::make_unique<LowestUtilizationSelector>(), 0),
               "positive threshold");
}

}  // namespace
}  // namespace netbatch::core
