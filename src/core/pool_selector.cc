#include "core/pool_selector.h"

#include <algorithm>
#include <limits>

namespace netbatch::core {

std::vector<PoolId> EligibleCandidatePools(const cluster::Job& job,
                                           const cluster::ClusterView& view,
                                           bool ignore_candidate_restriction) {
  std::vector<PoolId> pools;
  ForEachEligibleCandidate(job, view, ignore_candidate_restriction,
                           [&](PoolId pool) { pools.push_back(pool); });
  return pools;
}

std::optional<PoolId> LowestUtilizationSelector::Select(
    const cluster::Job& job, PoolId current,
    const cluster::ClusterView& view) {
  bool any = false;
  PoolId best;
  double best_util = std::numeric_limits<double>::infinity();
  ForEachEligibleCandidate(job, view, cross_site_, [&](PoolId pool) {
    if (!retain_if_current_best_ && pool == current) return;
    any = true;
    const double util = view.PoolUtilization(pool);
    if (util < best_util || (util == best_util && pool < best)) {
      best = pool;
      best_util = util;
    }
  });
  if (!any) return std::nullopt;
  if (!retain_if_current_best_) return best;
  // Retain rule: never move to a pool at least as loaded as the current one.
  // (A job without a current pool has nothing to retain in.)
  if (best == current ||
      (current.valid() && view.PoolUtilization(current) <= best_util)) {
    return std::nullopt;
  }
  return best;
}

std::optional<PoolId> RandomSelector::Select(const cluster::Job& job,
                                             PoolId current,
                                             const cluster::ClusterView& view) {
  // Count the alternates, draw once, then walk to the drawn one: the same
  // draw and the same pick as indexing a collected list.
  std::size_t count = 0;
  ForEachEligibleCandidate(job, view, cross_site_, [&](PoolId pool) {
    if (pool != current) ++count;
  });
  if (count == 0) return std::nullopt;
  std::size_t skip = rng_.UniformIndex(count);
  PoolId chosen;
  ForEachEligibleCandidate(job, view, cross_site_, [&](PoolId pool) {
    if (pool != current && skip-- == 0) chosen = pool;
  });
  return chosen;
}

std::optional<PoolId> ShortestQueueSelector::Select(
    const cluster::Job& job, PoolId current,
    const cluster::ClusterView& view) {
  const std::vector<PoolId> pools = EligibleCandidatePools(job, view);
  if (pools.empty()) return std::nullopt;

  auto key = [&](PoolId pool) {
    return std::tuple(view.PoolQueueLength(pool), view.PoolUtilization(pool),
                      pool);
  };
  const PoolId best =
      *std::min_element(pools.begin(), pools.end(),
                        [&](PoolId a, PoolId b) { return key(a) < key(b); });
  if (best == current || (current.valid() && !(key(best) < key(current)))) {
    return std::nullopt;
  }
  return best;
}

std::optional<PoolId> PredictedDelaySelector::Select(
    const cluster::Job& job, PoolId current,
    const cluster::ClusterView& view) {
  const std::vector<PoolId> pools = EligibleCandidatePools(job, view);
  if (pools.empty()) return std::nullopt;

  // Crude start-delay estimate: jobs already queued per unit of capacity,
  // amplified as the pool approaches saturation. A pool with free cores and
  // an empty queue scores ~0; a saturated pool with a backlog scores high.
  auto score = [&](PoolId pool) {
    const double cores = static_cast<double>(view.PoolTotalCores(pool));
    const double queue = static_cast<double>(view.PoolQueueLength(pool));
    const double util = view.PoolUtilization(pool);
    return (queue / std::max(1.0, cores) + util) / (1.001 - util);
  };
  PoolId best;
  double best_score = std::numeric_limits<double>::infinity();
  for (PoolId pool : pools) {
    const double s = score(pool);
    if (s < best_score || (s == best_score && pool < best)) {
      best = pool;
      best_score = s;
    }
  }
  if (best == current || (current.valid() && score(current) <= best_score)) {
    return std::nullopt;
  }
  return best;
}

}  // namespace netbatch::core
