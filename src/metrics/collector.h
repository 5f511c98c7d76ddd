// Metrics collection over a simulation run.
//
// MetricsCollector observes the simulation the way ASCA's per-minute state
// logs do (§3.1): it records a utilization / suspended-jobs time series
// while the run progresses, and computes the paper's job-level aggregate
// metrics from the job table when the run finishes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/interfaces.h"
#include "cluster/simulation.h"
#include "common/histogram.h"
#include "metrics/report.h"

namespace netbatch::metrics {

// One sampled point of system state (per simulated minute by default).
struct Sample {
  Ticks time = 0;
  double utilization = 0;        // cluster-wide, [0, 1]
  std::int64_t suspended_jobs = 0;
  std::int64_t waiting_jobs = 0;
};

class MetricsCollector final : public cluster::SimulationObserver {
 public:
  void OnSample(Ticks now, const cluster::ClusterView& view) override;

  const std::vector<Sample>& samples() const { return samples_; }

  // Opt-in per-pool sampling (utilization and queue length per pool per
  // sample) for the pool-imbalance analysis of paper §2.3. Call before the
  // run starts.
  void EnablePerPoolSamples() { per_pool_enabled_ = true; }
  // pool_utilization()[p][i]: pool p's utilization at sample i.
  const std::vector<std::vector<float>>& pool_utilization() const {
    return pool_utilization_;
  }
  const std::vector<std::vector<std::uint32_t>>& pool_queue_lengths() const {
    return pool_queue_lengths_;
  }

  // Distribution of per-job *total* suspension time, over jobs suspended at
  // least once (Fig. 2's CDF), in minutes. Valid after the run.
  const EmpiricalCdf& SuspensionTimeCdf() const { return suspension_cdf_; }

  // Distribution of per-job total wait time over all jobs, in minutes —
  // quantifies the paper's §2 "high wait time of jobs" observation.
  const EmpiricalCdf& WaitTimeCdf() const { return wait_cdf_; }

  // Aggregates the paper's metrics from a finished simulation.
  // Also (re)builds the suspension-time CDF.
  MetricsReport BuildReport(const cluster::NetBatchSimulation& simulation,
                            std::string label);

 private:
  std::vector<Sample> samples_;
  EmpiricalCdf suspension_cdf_;
  EmpiricalCdf wait_cdf_;
  bool per_pool_enabled_ = false;
  std::vector<std::vector<float>> pool_utilization_;
  std::vector<std::vector<std::uint32_t>> pool_queue_lengths_;
};

}  // namespace netbatch::metrics
