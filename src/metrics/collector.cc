#include "metrics/collector.h"

#include <utility>

#include "common/stats.h"

namespace netbatch::metrics {

void MetricsCollector::OnSample(Ticks now, const cluster::ClusterView& view) {
  Sample sample;
  sample.time = now;
  sample.utilization = view.ClusterUtilization();
  sample.suspended_jobs = static_cast<std::int64_t>(view.SuspendedJobCount());
  std::int64_t waiting = 0;
  for (std::size_t p = 0; p < view.PoolCount(); ++p) {
    waiting += static_cast<std::int64_t>(
        view.PoolQueueLength(PoolId(static_cast<PoolId::ValueType>(p))));
  }
  sample.waiting_jobs = waiting;
  samples_.push_back(sample);

  if (per_pool_enabled_) {
    if (pool_utilization_.empty()) {
      pool_utilization_.resize(view.PoolCount());
      pool_queue_lengths_.resize(view.PoolCount());
    }
    for (std::size_t p = 0; p < view.PoolCount(); ++p) {
      const PoolId pool(static_cast<PoolId::ValueType>(p));
      pool_utilization_[p].push_back(
          static_cast<float>(view.PoolUtilization(pool)));
      pool_queue_lengths_[p].push_back(
          static_cast<std::uint32_t>(view.PoolQueueLength(pool)));
    }
  }
}

MetricsReport MetricsCollector::BuildReport(
    const cluster::NetBatchSimulation& simulation, std::string label) {
  MetricsReport report;
  report.label = std::move(label);
  report.preemption_count = simulation.preemption_count();
  report.reschedule_count = simulation.reschedule_count();
  report.duplicate_count = simulation.duplicate_count();
  report.outage_count = simulation.outage_count();
  report.eviction_count = simulation.eviction_count();
  report.completed_count = simulation.completed_count();
  report.rejected_count = simulation.rejected_count();

  StreamingStats ct_all, ct_suspended, st_suspended;
  StreamingStats wait_all, suspend_all, waste_all, wct_all;
  StreamingStats ct_high, ct_low;
  EmpiricalCdf ct_cdf;
  suspension_cdf_ = EmpiricalCdf{};
  wait_cdf_ = EmpiricalCdf{};

  for (const cluster::Job& job : simulation.jobs()) {
    // Duplicates are shadow copies: their outcome is already credited to
    // their original (completion time, extra waste), so they are not jobs.
    if (job.is_duplicate()) continue;
    // Rejected jobs never entered the system: they are tracked only in
    // rejected_count, and counting them in job_count would deflate
    // suspend_rate (its denominator) whenever rejections occur.
    if (job.state() == cluster::JobState::kRejected) continue;
    ++report.job_count;

    const double ct =
        TicksToMinutes(job.completion_time() - job.submit_time());
    const double wait = TicksToMinutes(job.wait_ticks());
    const double suspend = TicksToMinutes(job.suspend_ticks());
    // (c3): execution progress thrown away by restarts, transfer time the
    // restart itself cost, and any killed duplicate's discarded execution.
    const double waste =
        TicksToMinutes(job.resched_waste_ticks() + job.transit_ticks() +
                       job.extra_waste_ticks());

    ct_all.Add(ct);
    ct_cdf.Add(ct);
    wait_cdf_.Add(wait);
    wait_all.Add(wait);
    suspend_all.Add(suspend);
    waste_all.Add(waste);
    wct_all.Add(wait + suspend + waste);
    if (job.priority() > workload::kLowPriority) {
      ++report.high_priority_count;
      ct_high.Add(ct);
    } else {
      ct_low.Add(ct);
    }

    if (job.ever_suspended()) {
      ++report.suspended_job_count;
      ct_suspended.Add(ct);
      st_suspended.Add(suspend);
      suspension_cdf_.Add(suspend);
    }
  }

  report.suspend_rate =
      report.job_count == 0
          ? 0.0
          : static_cast<double>(report.suspended_job_count) /
                static_cast<double>(report.job_count);
  report.avg_ct_all_minutes = ct_all.mean();
  report.avg_ct_suspended_minutes = ct_suspended.mean();
  report.avg_st_minutes = st_suspended.mean();
  report.avg_wait_minutes = wait_all.mean();
  report.avg_suspend_minutes = suspend_all.mean();
  report.avg_resched_waste_minutes = waste_all.mean();
  report.avg_wct_minutes = wct_all.mean();
  report.max_ct_minutes = ct_all.max();
  if (ct_cdf.count() > 0) {
    report.p50_ct_minutes = ct_cdf.Quantile(0.5);
    report.p90_ct_minutes = ct_cdf.Quantile(0.9);
    report.p99_ct_minutes = ct_cdf.Quantile(0.99);
  }
  report.median_st_minutes =
      suspension_cdf_.count() > 0 ? suspension_cdf_.Median() : 0.0;
  report.avg_ct_high_minutes = ct_high.mean();
  report.avg_ct_low_minutes = ct_low.mean();
  return report;
}

}  // namespace netbatch::metrics
