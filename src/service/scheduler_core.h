// The simulator-independent scheduling core.
//
// SchedulerCore is the narrow facade over the whole decision stack — the
// virtual pool manager's dispatch passes, PhysicalPool placement (and its
// indexes), the initial scheduler, and the rescheduling policy — with no
// dependency on sim::Simulator or NetBatchSimulation. The exact same code
// drives decisions under simulated time in sweeps (NetBatchSimulation is a
// thin event-loop shell around a core) and under wall-clock time in
// netbatchd (service/daemon.h).
//
// Time plumbing is the only thing the core cannot do itself: every entry
// point takes the caller's `now`, and anything that must fire *later* —
// completion after a job's remaining work, a wait-timeout check, a restart
// delivery after transfer overhead — is delegated to a CoreHost. The sim
// host arms typed events on the event heap; the daemon host arms wall-clock
// timers. Decisions are bit-identical across hosts because the core calls
// each hook at exactly the same program point either way; under the sim
// host those points fix the event-heap insertion sequence, which is what
// the byte-identical-sweep bar (BENCH_serve.json) pins.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/config.h"
#include "cluster/interfaces.h"
#include "cluster/invariants.h"
#include "cluster/job.h"
#include "cluster/pool.h"
#include "cluster/view.h"
#include "common/counters.h"

namespace netbatch::sched {

// Deferred-work callbacks the core fires mid-decision. Implementations own
// the time domain: NetBatchSimulation schedules typed events, the daemon
// pushes wall-clock timers. Every hook receives the job whose generation
// stamp guards the eventual callback (Job::GenerationIs), so a stale timer
// in either domain is a cheap no-op.
class CoreHost {
 public:
  virtual ~CoreHost() = default;

  // `job` just started (or resumed) running; fire Complete(job, stamp) after
  // `duration` ticks unless the job transitions first. The host may record a
  // handle in job.set_pending_event() for eager cancellation.
  virtual void ArmCompletion(cluster::Job job, Ticks duration) = 0;

  // `job` lost its machine (preemption, twin race, eviction) — drop its
  // completion timer. Hosts with lazy timers only clear the job's handle.
  virtual void CancelCompletion(cluster::Job job) = 0;

  // `job` queued in a pool and the policy wants a wait-timeout check
  // (OnWaitTimeout(job, stamp)) after `threshold` ticks.
  virtual void ArmWaitTimeout(cluster::Job job, Ticks threshold) = 0;

  // A rescheduling restart needs `overhead` ticks of transfer before
  // DeliverRestart(job, stamp, target) lands it. Zero-overhead restarts
  // never reach this hook — the core delivers them inline.
  virtual void ScheduleRestartDelivery(cluster::Job job, PoolId target,
                                       Ticks overhead) = 0;

  // `job` reached a terminal state (completed or rejected). The sim host
  // uses this to detect quiescence and stop the event loop.
  virtual void OnJobTerminal(const cluster::Job& job) = 0;
};

// The decision-relevant subset of SimulationOptions; everything here
// changes *what* the core decides, not when callbacks fire.
struct CoreOptions {
  // Delivery delay applied when a job is rescheduled to another pool
  // (models data/binary transfer; the paper's future-work overhead).
  Ticks restart_overhead = 0;
  // Periodic checkpointing granularity in work units (0 = the paper's
  // baseline: restarts lose all progress). See Job::OnRestart.
  Ticks checkpoint_interval = 0;
  // Per-pool-pair transfer delay for rescheduled jobs: overrides the scalar
  // restart_overhead when non-empty. Must be square with one row per pool.
  std::vector<std::vector<Ticks>> transfer_matrix;
  cluster::DispatchMode dispatch_mode =
      cluster::DispatchMode::kPreferImmediateStart;
  // Audit the affected pool after every pool-level job transition.
  bool audit_on_transitions = false;
};

class SchedulerCore final : public cluster::ClusterView,
                            private cluster::PoolObserver {
 public:
  // `scheduler`, `policy`, and `host` must outlive the core.
  SchedulerCore(const cluster::ClusterConfig& config,
                cluster::InitialScheduler& scheduler,
                cluster::ReschedulingPolicy& policy, CoreHost& host,
                CoreOptions options = {});

  SchedulerCore(const SchedulerCore&) = delete;
  SchedulerCore& operator=(const SchedulerCore&) = delete;

  // Observers must outlive the core.
  void AddObserver(cluster::SimulationObserver* observer);
  const std::vector<cluster::SimulationObserver*>& observers() const {
    return observers_;
  }

  // --- job admission --------------------------------------------------------

  void ReserveJobs(std::size_t n) { jobs_.Reserve(n); }

  // Registers a job in the table (validating its candidate pools) without
  // submitting it. Ids spawned for duplicates stay above every admitted id.
  cluster::Job AdmitJob(workload::JobSpec spec);

  // --- the facade -----------------------------------------------------------

  // Offers job `id` to pools in the initial scheduler's order (paper §2.1
  // dispatch). Returns false when every pool refused — the job is rejected.
  bool Submit(JobId id, Ticks now);

  // Completes a running job if `stamp` still matches its generation;
  // returns false on a stale stamp (the job transitioned meanwhile).
  bool Complete(JobId id, std::uint64_t stamp, Ticks now);

  // Host-level suspension of a running job (the daemon's kSuspend op):
  // parks it on its machine exactly like a preemption victim, then consults
  // the rescheduling policy, which may move it to another pool — the
  // paper's dynamic rescheduling, driven live. Returns false when the job
  // is not running.
  bool Suspend(JobId id, Ticks now);

  // Resumes a suspended job on its own machine if it fits right now
  // (the daemon's kResume op). Returns false otherwise.
  bool Resume(JobId id, Ticks now);

  // Terminates a job wherever it is parked (the daemon's kKill op):
  // running, suspended, waiting, or in transit. Refuses (returns false)
  // terminal jobs and jobs with a twin race in flight — the race must
  // resolve through ResolveTwinRace so waste accounting stays consistent.
  bool Kill(JobId id, Ticks now);

  // Advances the core's notion of time and refreshes the cluster.* gauges.
  void Tick(Ticks now);

  // Point-in-time cluster state for the serving layer's kSnapshot op.
  struct PoolSnapshot {
    PoolId id;
    std::int64_t total_cores = 0;
    std::int64_t busy_cores = 0;
    std::uint64_t queued = 0;
    std::uint64_t suspended = 0;
  };
  struct Snapshot {
    Ticks now = 0;
    std::uint64_t started = 0;  // jobs.started counter (placements)
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t reschedules = 0;
    std::vector<PoolSnapshot> pools;
  };
  Snapshot GetSnapshot() const;

  // --- host-driven continuations --------------------------------------------

  // The wait-timeout check armed by CoreHost::ArmWaitTimeout; stale stamps
  // are dropped. Re-arms itself when the policy keeps the job waiting.
  void OnWaitTimeout(JobId id, std::uint64_t stamp, Ticks now);

  // The delivery armed by CoreHost::ScheduleRestartDelivery.
  void DeliverRestart(JobId id, std::uint64_t stamp, PoolId target, Ticks now);

  // --- outage support -------------------------------------------------------

  // Takes a machine offline, evicting and resubmitting everything parked on
  // it. The caller owns failure/repair timing (and its randomness).
  void FailMachine(PoolId pool, MachineId machine, Ticks now);
  void RepairMachine(PoolId pool, MachineId machine, Ticks now);

  // --- results / state ------------------------------------------------------

  const cluster::JobArena& jobs() const { return jobs_; }
  cluster::JobArena& jobs() { return jobs_; }
  std::size_t completed_count() const { return completed_count_; }
  std::size_t rejected_count() const { return rejected_count_; }
  std::uint64_t preemption_count() const { return preemption_count_; }
  std::uint64_t reschedule_count() const { return reschedule_count_; }
  std::uint64_t duplicate_count() const { return duplicate_count_; }
  std::uint64_t outage_count() const { return outage_count_; }
  std::uint64_t eviction_count() const { return eviction_count_; }

  const cluster::PhysicalPool& pool(PoolId id) const {
    return *pools_[id.value()];
  }
  cluster::PhysicalPool& mutable_pool(PoolId id) {
    return *pools_[id.value()];
  }

  const CounterRegistry& counters() const { return counters_; }
  CounterRegistry& counters() { return counters_; }

  // Refreshes the cluster.* gauges (busy cores, suspended, waiting).
  void RefreshGauges(Ticks now);

  // --- checkpoint/restore ---------------------------------------------------

  // Serializes the complete decision state: the clock, result counters,
  // the counter registry (in registration order — it is part of the
  // observable surface), the scheduler/policy opaque blobs, every pool's
  // occupancy (offline machines; running/suspended/waiting jobs in the
  // canonical restore order) and the remaining jobs (pending, in-transit,
  // terminal-awaiting-reclaim) straight from the arena columns. Pending
  // host timers are NOT included — the host (shard loop) owns those and
  // persists its timer list alongside this payload.
  void ExportState(std::vector<std::uint8_t>& out) const;

  // Rebuilds the exported state into this core, which must be freshly
  // constructed over the same cluster config and scheduler/policy stack
  // and must not have admitted any job yet. Returns false (leaving the
  // core unusable) on a malformed or mismatched payload; finishes with
  // CheckInvariants() on success.
  bool ImportState(const std::vector<std::uint8_t>& payload);

  // Audits every pool's resource invariants plus cluster-wide conservation
  // (job states vs pool registries, busy cores vs running jobs, terminal
  // counters vs terminal states), reporting violations to `sink`. The
  // two-argument form stamps violations with the caller's clock (the sim
  // engine audits from ticks the core never saw).
  void AuditInvariants(cluster::InvariantSink& sink) const {
    AuditInvariants(sink, now_);
  }
  void AuditInvariants(cluster::InvariantSink& sink, Ticks now) const;

  // Fail-fast form of AuditInvariants: aborts on the first violation.
  void CheckInvariants() const;

  // --- ClusterView ----------------------------------------------------------
  Ticks Now() const override { return now_; }
  std::size_t PoolCount() const override { return pools_.size(); }
  double PoolUtilization(PoolId pool) const override;
  std::size_t PoolQueueLength(PoolId pool) const override;
  std::int64_t PoolTotalCores(PoolId pool) const override;
  bool PoolEligible(PoolId pool, const workload::JobSpec& spec) const override;
  double ClusterUtilization() const override;
  std::size_t SuspendedJobCount() const override;

 private:
  // PoolObserver: pools report job transitions here; the core bumps
  // counters, forwards to SimulationObservers, and (when enabled) audits.
  void OnJobStarted(const cluster::Job& job) override;
  void OnJobResumed(const cluster::Job& job) override;
  void OnJobEnqueued(const cluster::Job& job) override;
  void OnJobSuspended(const cluster::Job& job) override;
  void AuditTransition(PoolId pool);

  // Offers the job to pools in `order`; returns false if every pool refused.
  bool OfferToPools(cluster::Job job, const std::vector<PoolId>& order);
  void HandlePlaceResult(cluster::Job job, PoolId pool,
                         const cluster::PlaceResult& result);
  void HandleVictims(const std::vector<JobId>& victims);
  void ConsultPolicyOnSuspension(cluster::Job victim);
  void ScheduleCompletion(cluster::Job job);
  void ArmWaitTimeout(cluster::Job job);
  void RestartJob(cluster::Job job, PoolId target,
                  cluster::RescheduleReason reason);
  // Duplication extension: launch a copy of `original` in `target`; the
  // first of the pair to complete wins (ResolveTwinRace).
  void SpawnDuplicate(cluster::Job original, PoolId target);
  void ResolveTwinRace(cluster::Job winner);
  void FinishJobsScheduledBy(const std::vector<JobId>& scheduled);

  cluster::JobArena jobs_;
  std::vector<std::unique_ptr<cluster::PhysicalPool>> pools_;
  cluster::InitialScheduler* scheduler_;
  cluster::ReschedulingPolicy* policy_;
  CoreHost* host_;
  CoreOptions options_;
  std::vector<cluster::SimulationObserver*> observers_;

  CounterRegistry counters_;
  // Hot-path handles into counters_, resolved once at construction.
  struct HotCounters {
    Counter* submitted = nullptr;
    Counter* enqueued = nullptr;
    Counter* started = nullptr;
    Counter* resumed = nullptr;
    Counter* preempted = nullptr;
    Counter* completed = nullptr;
    Counter* rejected = nullptr;
    Counter* rescheduled = nullptr;
    Counter* duplicated = nullptr;
    Counter* evicted = nullptr;
    Counter* bounced = nullptr;
    Counter* failures = nullptr;
    Counter* repairs = nullptr;
    Counter* audits = nullptr;
    Gauge* busy_cores = nullptr;
    Gauge* suspended_jobs = nullptr;
    Gauge* waiting_jobs = nullptr;
    // Arena footprint gauges (resident column bytes + free job slots).
    Gauge* bytes_jobs = nullptr;
    Gauge* bytes_machines = nullptr;
    Gauge* job_slots_free = nullptr;
  };
  HotCounters hot_;

  Ticks now_ = 0;
  std::int64_t total_cores_ = 0;
  std::size_t completed_count_ = 0;
  std::size_t rejected_count_ = 0;
  std::uint64_t preemption_count_ = 0;
  std::uint64_t reschedule_count_ = 0;
  std::uint64_t duplicate_count_ = 0;
  std::uint64_t outage_count_ = 0;
  std::uint64_t eviction_count_ = 0;
  JobId::ValueType next_duplicate_id_ = 0;
};

}  // namespace netbatch::sched
