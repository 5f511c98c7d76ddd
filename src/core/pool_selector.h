// Alternate-pool selection strategies.
//
// A rescheduling decision reduces to "which pool should this job move to,
// if any?". The paper evaluates two selectors — lowest-utilization and
// random (§3.2) — and motivates richer ones as future work ("multiple
// metrics (e.g., utilization, queue lengths, prediction of job completion
// times within a pool)", §5); this file implements all of them behind one
// interface so policies can mix and match.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/job.h"
#include "cluster/view.h"
#include "common/rng.h"

namespace netbatch::core {

class PoolSelector {
 public:
  virtual ~PoolSelector() = default;

  // Chooses an alternate pool for `job`, currently located in `current`.
  // Implementations must only return pools that are eligible for the job
  // (view.PoolEligible). std::nullopt means "stay where you are".
  virtual std::optional<PoolId> Select(const cluster::Job& job,
                                       PoolId current,
                                       const cluster::ClusterView& view) = 0;

  // Opaque decision-state capture for daemon checkpoint/restore (see
  // cluster::InitialScheduler). Only RandomSelector carries state.
  virtual void ExportState(std::vector<std::uint8_t>& out) const {
    (void)out;
  }
  virtual bool ImportState(const std::uint8_t* data, std::size_t size) {
    (void)data;
    return size == 0;
  }
};

// Calls `fn(pool)` for each candidate pool of `job` that is eligible in
// `view`, in candidate order (helper for all selectors; allocates nothing).
// Includes `current` — selectors decide whether to skip it. With
// `ignore_candidate_restriction`, every pool in the cluster is considered
// (inter-site rescheduling, paper §5): the job is resubmitted beyond its
// own site's pools, typically paying a cross-site transfer cost
// (SimulationOptions::transfer_matrix).
template <typename Fn>
void ForEachEligibleCandidate(const cluster::Job& job,
                              const cluster::ClusterView& view,
                              bool ignore_candidate_restriction, Fn&& fn) {
  const workload::JobSpec& spec = job.spec();
  if (ignore_candidate_restriction || spec.candidate_pools.empty()) {
    for (std::size_t p = 0; p < view.PoolCount(); ++p) {
      const PoolId pool(static_cast<PoolId::ValueType>(p));
      if (view.PoolEligible(pool, spec)) fn(pool);
    }
  } else {
    for (const PoolId pool : spec.candidate_pools) {
      if (view.PoolEligible(pool, spec)) fn(pool);
    }
  }
}

// ForEachEligibleCandidate collected into a vector, for selectors that
// rank the whole set.
std::vector<PoolId> EligibleCandidatePools(
    const cluster::Job& job, const cluster::ClusterView& view,
    bool ignore_candidate_restriction = false);

// Picks the candidate pool with the lowest utilization. Returns
// std::nullopt when the current pool already has the lowest utilization —
// the paper's retain rule: "if all alternate pools are even more utilized
// than the current pool, ResSusUtil will simply retain the suspended job
// in its current pool" (§3.2.1).
class LowestUtilizationSelector final : public PoolSelector {
 public:
  // `retain_if_current_best` = false disables the retain rule (the job is
  // moved to the least-utilized *alternate* even when its own pool is the
  // least utilized); the ablation bench shows the rule is what keeps
  // rescheduling from backfiring under cluster-wide saturation.
  // `cross_site` widens the choice to every pool in the cluster (paper §5
  // inter-site rescheduling).
  explicit LowestUtilizationSelector(bool retain_if_current_best = true,
                                     bool cross_site = false)
      : retain_if_current_best_(retain_if_current_best),
        cross_site_(cross_site) {}

  std::optional<PoolId> Select(const cluster::Job& job, PoolId current,
                               const cluster::ClusterView& view) override;

 private:
  bool retain_if_current_best_;
  bool cross_site_;
};

// Picks a uniformly random candidate pool other than the current one
// ("a randomly selected pool among all candidate pools", §3.2). Requires
// no pool statistics at all — the property that makes the paper's
// decentralized, job-driven rescheduling possible (§3.3.2).
// `cross_site` widens the choice to every pool in the cluster, matching
// LowestUtilizationSelector's inter-site mode (paper §5).
class RandomSelector final : public PoolSelector {
 public:
  explicit RandomSelector(std::uint64_t seed, bool cross_site = false)
      : rng_(seed), cross_site_(cross_site) {}

  std::optional<PoolId> Select(const cluster::Job& job, PoolId current,
                               const cluster::ClusterView& view) override;

  // The selector's only state is its RNG position; 32 bytes, little-endian.
  void ExportState(std::vector<std::uint8_t>& out) const override {
    for (const std::uint64_t word : rng_.SaveState()) {
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
      }
    }
  }
  bool ImportState(const std::uint8_t* data, std::size_t size) override {
    if (size != 32) return false;
    std::array<std::uint64_t, 4> state{};
    for (int w = 0; w < 4; ++w) {
      for (int i = 0; i < 8; ++i) {
        state[w] |= static_cast<std::uint64_t>(data[w * 8 + i]) << (8 * i);
      }
    }
    rng_.LoadState(state);
    return true;
  }

 private:
  Rng rng_;
  bool cross_site_;
};

// Extension (paper §5 future work): picks the candidate with the shortest
// wait queue, breaking ties by utilization, then pool id. Returns
// std::nullopt when the current pool is already best.
class ShortestQueueSelector final : public PoolSelector {
 public:
  std::optional<PoolId> Select(const cluster::Job& job, PoolId current,
                               const cluster::ClusterView& view) override;
};

// Extension (paper §5 future work): scores each pool by a crude predicted
// start delay — queue length weighted by how loaded the pool is — and
// picks the minimum. Combines both metrics the paper names (utilization
// and queue length).
class PredictedDelaySelector final : public PoolSelector {
 public:
  std::optional<PoolId> Select(const cluster::Job& job, PoolId current,
                               const cluster::ClusterView& view) override;
};

}  // namespace netbatch::core
