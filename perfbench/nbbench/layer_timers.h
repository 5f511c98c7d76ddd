// Timing decorators for the traced runs.
//
// The benchmark measures layers from outside the program: it wraps the
// engine's extension points (cluster/interfaces.h) in forwarding objects
// that count calls and the wall time spent inside them. Each decorator is
// touched by one thread only (the simulation thread, or the daemon shard
// that owns its stack), so plain integers suffice; read them after that
// thread has finished.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "cluster/interfaces.h"

namespace nbbench {

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

  void Add(std::uint64_t elapsed_ns) {
    ++calls;
    ns += elapsed_ns;
  }
  CallStats& operator+=(const CallStats& other) {
    calls += other.calls;
    ns += other.ns;
    return *this;
  }
  // Time inside the calls with the timer's own cost (`clock_ns` per timed
  // call, see ClockOverheadNs) taken out.
  double NetNs(double clock_ns) const {
    const double net = static_cast<double>(ns) - clock_ns * static_cast<double>(calls);
    return net > 0 ? net : 0;
  }
  double NetNsPerCall(double clock_ns) const {
    return calls == 0 ? 0 : NetNs(clock_ns) / static_cast<double>(calls);
  }
};

// sched layer: InitialScheduler::PoolOrder.
class TimedScheduler final : public netbatch::cluster::InitialScheduler {
 public:
  explicit TimedScheduler(
      std::unique_ptr<netbatch::cluster::InitialScheduler> inner)
      : inner_(std::move(inner)) {}

  std::vector<netbatch::PoolId> PoolOrder(
      const netbatch::workload::JobSpec& spec,
      const netbatch::cluster::ClusterView& view) override {
    const std::uint64_t start = NowNs();
    std::vector<netbatch::PoolId> order = inner_->PoolOrder(spec, view);
    pool_order_.Add(NowNs() - start);
    return order;
  }
  void ExportState(std::vector<std::uint8_t>& out) const override {
    inner_->ExportState(out);
  }
  bool ImportState(const std::uint8_t* data, std::size_t size) override {
    return inner_->ImportState(data, size);
  }

  const CallStats& pool_order() const { return pool_order_; }

 private:
  std::unique_ptr<netbatch::cluster::InitialScheduler> inner_;
  CallStats pool_order_;
};

// core layer: the rescheduling policy's two decision hooks.
class TimedPolicy final : public netbatch::cluster::ReschedulingPolicy {
 public:
  explicit TimedPolicy(
      std::unique_ptr<netbatch::cluster::ReschedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  std::optional<netbatch::PoolId> OnSuspended(
      const netbatch::cluster::Job& job,
      const netbatch::cluster::ClusterView& view) override {
    const std::uint64_t start = NowNs();
    std::optional<netbatch::PoolId> pool = inner_->OnSuspended(job, view);
    Record(start, pool.has_value());
    return pool;
  }
  std::optional<netbatch::Ticks> WaitRescheduleThreshold() const override {
    return inner_->WaitRescheduleThreshold();
  }
  std::optional<netbatch::PoolId> OnWaitTimeout(
      const netbatch::cluster::Job& job,
      const netbatch::cluster::ClusterView& view) override {
    const std::uint64_t start = NowNs();
    std::optional<netbatch::PoolId> pool = inner_->OnWaitTimeout(job, view);
    Record(start, pool.has_value());
    return pool;
  }
  bool DuplicateInsteadOfRestart() const override {
    return inner_->DuplicateInsteadOfRestart();
  }
  void ExportState(std::vector<std::uint8_t>& out) const override {
    inner_->ExportState(out);
  }
  bool ImportState(const std::uint8_t* data, std::size_t size) override {
    return inner_->ImportState(data, size);
  }

  const CallStats& decisions() const { return decisions_; }
  // Decisions that returned a pool (a move or restart elsewhere).
  std::uint64_t moves() const { return moves_; }

 private:
  void Record(std::uint64_t start, bool moved) {
    decisions_.Add(NowNs() - start);
    moves_ += moved ? 1 : 0;
  }

  std::unique_ptr<netbatch::cluster::ReschedulingPolicy> inner_;
  CallStats decisions_;
  std::uint64_t moves_ = 0;
};

// metrics layer: forwards every observer hook to the wrapped observer (the
// MetricsCollector), timing all hooks together and OnSample on its own.
class TimedObserver final : public netbatch::cluster::SimulationObserver {
 public:
  explicit TimedObserver(netbatch::cluster::SimulationObserver& inner)
      : inner_(inner) {}

  void OnJobEnqueued(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobEnqueued(job); });
  }
  void OnJobStarted(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobStarted(job); });
  }
  void OnJobResumed(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobResumed(job); });
  }
  void OnJobSuspended(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobSuspended(job); });
  }
  void OnJobRescheduled(const netbatch::cluster::Job& job,
                        netbatch::PoolId from, netbatch::PoolId to,
                        netbatch::cluster::RescheduleReason reason) override {
    Forward([&] { inner_.OnJobRescheduled(job, from, to, reason); });
  }
  void OnJobCompleted(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobCompleted(job); });
  }
  void OnJobRejected(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobRejected(job); });
  }
  void OnJobEvicted(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobEvicted(job); });
  }
  void OnJobKilled(const netbatch::cluster::Job& job) override {
    Forward([&] { inner_.OnJobKilled(job); });
  }
  void OnSample(netbatch::Ticks now,
                const netbatch::cluster::ClusterView& view) override {
    const std::uint64_t start = NowNs();
    inner_.OnSample(now, view);
    const std::uint64_t elapsed = NowNs() - start;
    on_sample_.Add(elapsed);
    all_hooks_.Add(elapsed);
  }

  // Every hook, OnSample included.
  const CallStats& all_hooks() const { return all_hooks_; }
  const CallStats& on_sample() const { return on_sample_; }

 private:
  template <typename Fn>
  void Forward(Fn&& fn) {
    const std::uint64_t start = NowNs();
    fn();
    all_hooks_.Add(NowNs() - start);
  }

  netbatch::cluster::SimulationObserver& inner_;
  CallStats all_hooks_;
  CallStats on_sample_;
};

}  // namespace nbbench
