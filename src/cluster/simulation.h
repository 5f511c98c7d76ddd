// The NetBatch simulation engine.
//
// Plays the role of the paper's ASCA simulator (§3.1): it wires the event
// core to the simulator-independent scheduling core (sched::SchedulerCore,
// which owns the virtual pool manager + physical pools + machines and the
// initial-scheduler / rescheduling-policy stack), then replays a trace
// until every job completes. The engine itself is a thin shell: it admits
// the trace, turns the core's deferred-work hooks (sched::CoreHost) into
// typed events on the simulator heap, and routes fired events back into
// the core with the simulated clock. Every scheduling decision lives in
// the core — the same code netbatchd drives under wall-clock time.
//
// Event flow:
//   submission --> VPM (initial scheduler picks pool order) --> pool
//     TryPlace: start / preempt victims / queue / bounce to next pool
//   suspension --> policy.OnSuspended --> optional restart at another pool
//   wait timeout --> policy.OnWaitTimeout --> optional move (re-arms)
//   completion --> machine backfill (resume suspended, start waiting)
#pragma once

#include <optional>
#include <vector>

#include "cluster/config.h"
#include "cluster/interfaces.h"
#include "cluster/invariants.h"
#include "cluster/job.h"
#include "cluster/pool.h"
#include "cluster/view.h"
#include "common/counters.h"
#include "common/rng.h"
#include "service/scheduler_core.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace netbatch::cluster {

// Every event the engine schedules, as a typed kind. The simulator carries
// these as 48-byte POD payloads (sim::Event) — no per-event allocation —
// and NetBatchSimulation::Dispatch switches on the kind. Stale events
// (cancelled logically by a later transition) are dropped by comparing the
// event's generation stamp against the job's current generation.
enum class EventKind : std::uint16_t {
  kSubmit = 1,       // job: trace submission reaches the virtual pool manager
  kCompletion,       // job+stamp: a running job finishes
  kWaitTimeout,      // job+stamp: wait-queue rescheduling check (§3.3)
  kRestartDelivery,  // job+stamp+pool: rescheduled job arrives at its target
  kMachineFailure,   // pool+machine: outage injection
  kMachineRepair,    // pool+machine: repair after an outage
  kSampleTick,       // per-minute ASCA sampling (gauges + observers)
  kAuditTick,        // periodic invariant audit
};

// Machine failure injection: each machine independently fails with
// exponential(mtbf) uptime and recovers after exponential(mttr) downtime.
// A failing machine evicts everything on it (running and suspended); the
// evicted jobs lose un-checkpointed progress and are resubmitted through
// the virtual pool manager.
struct OutageModel {
  double mtbf_minutes = 0;   // mean time between failures; 0 disables
  double mttr_minutes = 240; // mean time to repair
  std::uint64_t seed = 0xfa11;
};

struct SimulationOptions {
  // Delivery delay applied when a job is rescheduled to another pool
  // (models data/binary transfer; the paper's future-work overhead).
  Ticks restart_overhead = 0;
  // Periodic checkpointing granularity in work units (0 = the paper's
  // baseline: restarts lose all progress). See Job::OnRestart.
  Ticks checkpoint_interval = 0;
  // Per-pool-pair transfer delay for rescheduled jobs (paper §5's network
  // delays / inter-site rescheduling): transfer_matrix[from][to] overrides
  // the scalar restart_overhead when non-empty. Must be square with one row
  // per pool.
  std::vector<std::vector<Ticks>> transfer_matrix;
  // Machine failure injection (disabled by default).
  OutageModel outages;
  // ASCA samples component state once per simulated minute.
  Ticks sample_period = kTicksPerMinute;
  bool sampling_enabled = true;
  DispatchMode dispatch_mode = DispatchMode::kPreferImmediateStart;
  // Continuous invariant auditing (opt-in; both abort on the first violated
  // invariant, like NETBATCH_CHECK). audit_period > 0 runs a full cluster
  // audit — every pool plus cluster-wide conservation — every that many
  // ticks; audit_on_transitions additionally audits the affected pool after
  // every pool-level job transition (start / resume / enqueue).
  Ticks audit_period = 0;
  bool audit_on_transitions = false;
};

class NetBatchSimulation final : public ClusterView,
                                 private sched::CoreHost,
                                 private sim::EventDispatcher {
 public:
  // `scheduler` and `policy` must outlive the simulation.
  NetBatchSimulation(const ClusterConfig& config,
                     const workload::Trace& trace,
                     InitialScheduler& scheduler, ReschedulingPolicy& policy,
                     SimulationOptions options = {});

  NetBatchSimulation(const NetBatchSimulation&) = delete;
  NetBatchSimulation& operator=(const NetBatchSimulation&) = delete;

  // Observers must outlive the simulation; call before Run().
  void AddObserver(SimulationObserver* observer) {
    core_.AddObserver(observer);
  }

  // Replays the whole trace and runs until every job completed (or was
  // rejected because no pool can ever run it).
  void Run();

  // The scheduling core this engine drives. Exposed for callers that want
  // the simulator-independent facade (snapshots, direct suspend/resume).
  sched::SchedulerCore& core() { return core_; }
  const sched::SchedulerCore& core() const { return core_; }

  // --- results ------------------------------------------------------------
  const JobArena& jobs() const { return core_.jobs(); }
  std::size_t completed_count() const { return core_.completed_count(); }
  std::size_t rejected_count() const { return core_.rejected_count(); }
  std::uint64_t preemption_count() const { return core_.preemption_count(); }
  std::uint64_t reschedule_count() const { return core_.reschedule_count(); }
  std::uint64_t duplicate_count() const { return core_.duplicate_count(); }
  std::uint64_t outage_count() const { return core_.outage_count(); }
  std::uint64_t eviction_count() const { return core_.eviction_count(); }

  const PhysicalPool& pool(PoolId id) const { return core_.pool(id); }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

  // The per-simulation observability registry (owned by the core). Counters
  // (jobs.*, vpm.*, outages.*, audit.*) are maintained on every transition;
  // gauges (cluster.*, sim.*) are refreshed each sampling period and once at
  // the end of Run(). Per-instance by design: sweeps run simulations in
  // parallel, so a process-global registry would race.
  const CounterRegistry& counters() const { return core_.counters(); }
  CounterRegistry& counters() { return core_.counters(); }

  // Audits every pool's resource invariants plus cluster-wide conservation
  // (job states vs pool registries, busy cores vs running jobs, terminal
  // counters vs terminal states), reporting violations to `sink`.
  void AuditInvariants(InvariantSink& sink) const;

  // Fail-fast form of AuditInvariants: aborts on the first violation.
  void CheckInvariants() const;

  // Test support: mutable pool access, for corruption tests that desync
  // pool/machine accounting to prove the auditor fires.
  PhysicalPool& mutable_pool(PoolId id) { return core_.mutable_pool(id); }

  // --- ClusterView ----------------------------------------------------------
  Ticks Now() const override { return sim_.Now(); }
  std::size_t PoolCount() const override { return core_.PoolCount(); }
  double PoolUtilization(PoolId pool) const override {
    return core_.PoolUtilization(pool);
  }
  std::size_t PoolQueueLength(PoolId pool) const override {
    return core_.PoolQueueLength(pool);
  }
  std::int64_t PoolTotalCores(PoolId pool) const override {
    return core_.PoolTotalCores(pool);
  }
  bool PoolEligible(PoolId pool,
                    const workload::JobSpec& spec) const override {
    return core_.PoolEligible(pool, spec);
  }
  double ClusterUtilization() const override {
    return core_.ClusterUtilization();
  }
  std::size_t SuspendedJobCount() const override {
    return core_.SuspendedJobCount();
  }
  std::size_t PendingEventCount() const override {
    return sim_.PendingEvents();
  }
  std::uint64_t FiredEventCount() const override {
    return sim_.FiredEvents();
  }

 private:
  // sim::EventDispatcher: the single switch every typed event goes through.
  void Dispatch(const sim::Event& event) override;

  // sched::CoreHost: deferred work the core requests mid-decision becomes
  // a typed event on the simulator's queue. The hook call sites inside the
  // core fix the event insertion sequence (and thus tie-breaking), so the
  // extraction preserves decisions bit for bit.
  void ArmCompletion(Job job, Ticks duration) override;
  void CancelCompletion(Job job) override;
  void ArmWaitTimeout(Job job, Ticks threshold) override;
  void ScheduleRestartDelivery(Job job, PoolId target,
                               Ticks overhead) override;
  void OnJobTerminal(const Job& job) override;

  void RunPeriodicAudit();
  void SampleGauges(Ticks now);
  void OnSampleTick();
  void OnAuditTick();
  bool AllJobsFinished() const {
    return core_.completed_count() + core_.rejected_count() == total_jobs_;
  }

  // Failure injection.
  void ScheduleNextFailure(PoolId pool, MachineId machine);
  void OnMachineFailure(PoolId pool, MachineId machine);
  void OnMachineRepair(PoolId pool, MachineId machine);

  static sched::CoreOptions CoreOptionsFrom(const SimulationOptions& options);

  sim::Simulator sim_;
  SimulationOptions options_;
  sched::SchedulerCore core_;
  // Engine-owned gauges in the core's registry (registered after the core's
  // own, preserving the pre-extraction snapshot order).
  Gauge* pending_events_ = nullptr;
  Gauge* fired_events_ = nullptr;
  std::size_t total_jobs_ = 0;
  Rng outage_rng_;
};

}  // namespace netbatch::cluster
