// A NetBatch physical pool and its pool manager logic.
//
// Implements the placement semantics of paper §2.1:
//   1. first eligible machine with free resources runs the job;
//   2. otherwise, if an eligible machine runs lower-priority work, preempt
//      (suspend) enough of it to make room;
//   3. otherwise the job waits in the pool's queue;
//   4. if no machine in the pool could *ever* run the job, the pool refuses
//      it and the virtual pool manager tries the next pool.
// Plus the resume logic: when resources free on a machine, the best of
// {suspended jobs parked on that machine, waiting jobs in the pool queue}
// is scheduled, highest priority first (suspended wins ties).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/invariants.h"
#include "cluster/job.h"
#include "cluster/machine.h"
#include "cluster/placement_index.h"

namespace netbatch::cluster {

// Hooks fired by a pool whenever it transitions a job (start / resume /
// enqueue / preemption suspension). Completion is driven by the simulation
// engine, which already sees it; these transitions happen deep inside pool
// scheduling (backfill, preemption) and would otherwise be invisible. Each
// hook fires *after* the pool's bookkeeping settled, so the pool is
// audit-consistent inside the callback.
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  virtual void OnJobStarted(const Job& job) { (void)job; }
  virtual void OnJobResumed(const Job& job) { (void)job; }
  virtual void OnJobEnqueued(const Job& job) { (void)job; }
  // Fired per preemption victim, after the victim released its resources
  // and moved to the machine's suspended registry (but before the
  // preempting job starts — victims settle first).
  virtual void OnJobSuspended(const Job& job) { (void)job; }
};

enum class PlaceOutcome {
  kStarted,     // running on a machine (possibly after preempting others)
  kQueued,      // parked in the pool's wait queue
  kNotEligible  // no machine in this pool can ever run the job
};

struct PlaceResult {
  PlaceOutcome outcome = PlaceOutcome::kNotEligible;
  MachineId machine;            // valid when outcome == kStarted
  std::vector<JobId> suspended; // victims preempted to make room
};

class PhysicalPool {
 public:
  // `suspended_holds_memory` / `local_resume_first`: host-level suspension
  // semantics (see ClusterConfig). `observer` (optional, must outlive the
  // pool) sees every start/resume/enqueue transition.
  PhysicalPool(PoolId id, MachineArena machines, JobArena& jobs,
               bool suspended_holds_memory, bool local_resume_first = true,
               PoolObserver* observer = nullptr);

  PoolId id() const { return id_; }
  const MachineArena& machines() const { return machines_; }
  std::int64_t total_cores() const { return total_cores_; }
  std::int64_t busy_cores() const { return busy_cores_; }
  double Utilization() const {
    return total_cores_ == 0
               ? 0.0
               : static_cast<double>(busy_cores_) /
                     static_cast<double>(total_cores_);
  }
  std::size_t QueueLength() const { return waiting_count_; }
  std::size_t SuspendedCount() const { return suspended_count_; }

  // Capacity check: can some machine here ever run this job? With
  // require_online, the machine must additionally be up right now — the
  // virtual pool manager uses that form so a job whose only capacity-fit
  // machines are all down bounces to the next candidate pool instead of
  // waiting behind an outage (its commit pass falls back to the capacity-only
  // form only when *no* candidate pool has an online eligible machine, which
  // keeps rejection a pure capacity decision).
  bool HasEligibleMachine(const workload::JobSpec& spec,
                          bool require_online = false) const;

  // Attempts to place `job` (paper §2.1 steps 1-3). Performs all job/machine
  // state transitions; the caller wires events (completion scheduling,
  // victim notification). With allow_queue = false, step 3 is skipped and
  // kNotEligible is returned instead of queueing — used by the virtual pool
  // manager's availability-aware dispatch pass (§2.1: jobs are distributed
  // "according to resource availability"). With require_online, the step-0
  // eligibility gate also demands an online machine (see above).
  PlaceResult TryPlace(Job job, Ticks now, bool allow_queue = true,
                       bool require_online = false);

  // Suspends a running job in place without a preempting job — host-level /
  // operator-initiated suspension (the serving layer's kSuspend op). The
  // resource bookkeeping is identical to a preemption victim's: cores are
  // released, memory per the suspension model, and the job parks in its
  // machine's suspended registry. The machine is NOT backfilled: under
  // local_resume_first the freed cores would immediately resume the job
  // that was just suspended, so the hole persists until the job resumes,
  // is rescheduled away, or its machine turns over. The caller cancels the
  // job's completion timer.
  void SuspendRunning(Job job, Ticks now);

  // Resumes a suspended job on its own machine if its demand fits right
  // now; returns false (no state change) otherwise. The caller re-arms the
  // completion timer on success.
  bool TryResume(Job job, Ticks now);

  // Removes a job from this pool's wait queue (wait-timeout rescheduling).
  // Aborts unless `job` is waiting in THIS pool.
  void RemoveFromQueue(JobId job);

  // Detaches a suspended job from its machine (suspended-job rescheduling),
  // releasing any memory it still held. Returns the machine it was on.
  MachineId DetachSuspended(Job job);

  // Releases `job`'s resources after completion and backfills the machine:
  // resumes/starts whatever now fits. Returns the jobs that (re)started,
  // in scheduling order; the caller schedules their completion events.
  std::vector<JobId> OnJobCompleted(Job job, Ticks now);

  // Backfills one machine (used after DetachSuspended frees memory).
  std::vector<JobId> Backfill(MachineId machine, Ticks now);

  // Removes a job from this pool in whatever state it is parked (running /
  // waiting / suspended) without running it to completion — the duplication
  // extension's twin-race resolution. Performs OnKilled (default) or, when
  // `complete_by_twin` is set, OnCompletedByTwin (the original finishes
  // with its duplicate's result). Returns any jobs started/resumed by the
  // freed resources.
  std::vector<JobId> KillJob(Job job, Ticks now,
                             bool complete_by_twin = false);

  // Machine outage support: takes the machine offline and detaches every
  // job parked on it (running and suspended), releasing their resources.
  // Returns the evicted job ids; the caller transitions and resubmits them.
  std::vector<JobId> EvictMachine(MachineId machine, Ticks now);

  // Brings a repaired machine back online and backfills it; returns the
  // jobs started/resumed.
  std::vector<JobId> RepairMachine(MachineId machine, Ticks now);

  // --- checkpoint/restore (service layer) -----------------------------------
  // Re-registers a job whose arena columns were already imported (state,
  // machine, accounting) into this pool's bookkeeping: resource claims,
  // registries, indexes and counters — WITHOUT firing observers or job
  // transitions. Callers invoke these in the snapshot's canonical order
  // (running then suspended per machine, then the wait queue in key order)
  // and finish with CheckInvariants().
  void RestoreRunning(Job job);
  void RestoreSuspended(Job job);
  void RestoreWaiting(Job job);
  // Marks a machine offline (it was down at checkpoint time) and drops it
  // from the placement indexes. Must run before any job restores touch the
  // machine's neighbors — index updates consult the online bit.
  void RestoreOffline(MachineId machine);

  // Checkpoint export: every job parked in this pool, in the canonical
  // restore order — per machine (id order) its running registry then its
  // suspended registry, both in arrival order, then the wait queue in key
  // order — plus the offline machines in id order.
  void AppendJobsInRestoreOrder(std::vector<JobId>& out) const;
  void AppendOfflineMachines(std::vector<MachineId>& out) const;

  // Walks this pool's resource-conservation invariants (free counters match
  // registered job demands; queue/suspended registries consistent) and
  // reports every violated one to `sink` instead of aborting.
  void AuditInvariants(Ticks now, InvariantSink& sink) const;

  // Fail-fast form: aborts on the first violated invariant.
  void CheckInvariants() const;

  // Machine lookup by id. The returned view is mutable — outage wiring and
  // corruption tests use it to desync a machine's accounting and prove the
  // auditor fires.
  Machine MachineById(MachineId id) const;

 private:
  // The wait queue: one FIFO per distinct priority, threaded through the
  // job arena's link columns (JobArena::kWaitingList) and kept in
  // descending priority order, so walking the classes front to back, each
  // head to tail, yields (priority desc, FIFO) order by construction.
  // Classes that empty out stay — distinct priorities are few.
  struct WaitClass {
    workload::Priority priority = 0;
    std::uint32_t head = JobArena::kNoSlot;
    std::uint32_t tail = JobArena::kNoSlot;
    std::uint32_t count = 0;
  };

  void StartOn(Job job, Machine machine, Ticks now);
  void ResumeOn(Job job, Machine machine, Ticks now);
  void Enqueue(Job job, Ticks now);
  // Wait-queue list surgery shared by Enqueue, RestoreWaiting and the
  // dequeue paths; both keep the demand summaries in step.
  void LinkWaiting(const Job& job);
  void UnlinkWaiting(const Job& job);

  // Index maintenance. ReindexFree re-syncs a machine's free-capacity entry
  // after any Claim/Release/online flip. The running-registry wrappers keep
  // the machine's running-class summary and the pool's preemptible registry
  // in lockstep with the job lists.
  void ReindexFree(const Machine& machine) { free_index_.Update(machine); }
  void AddRunningIndexed(Machine machine, const Job& job);
  void RemoveRunningIndexed(Machine machine, const Job& job);
  void ReindexPreemptible(const Machine& machine, std::int32_t before);

  // Step-2 candidate filter: exact feasibility of a preemption plan for
  // `spec` at `priority` on `machine` (ownership + capacity + reclaimable
  // resources), without touching the machine's job lists.
  bool CouldPreemptFor(const Machine& machine, const workload::JobSpec& spec,
                       workload::Priority priority) const;

  // Picks and schedules the best candidate for `machine`; returns the job
  // started/resumed, or an invalid id when nothing fits.
  JobId ScheduleNextOn(Machine machine, Ticks now);

  // True when suspending lower-priority running work on `machine` could make
  // `spec` fit; fills `victims` with the chosen jobs (lowest priority first).
  bool PreemptionPlan(const Machine& machine, const workload::JobSpec& spec,
                      workload::Priority priority,
                      std::vector<JobId>& victims) const;

  PoolId id_;
  MachineArena machines_;
  JobArena* jobs_;
  bool suspended_holds_memory_;
  bool local_resume_first_;
  PoolObserver* observer_;

  std::int64_t total_cores_ = 0;
  std::int64_t busy_cores_ = 0;
  std::size_t suspended_count_ = 0;

  std::vector<WaitClass> wait_classes_;  // descending priority
  std::size_t waiting_count_ = 0;
  // Demand summaries of waiting jobs; let Backfill skip queue scans when a
  // machine has fewer free cores than any waiting job needs — or,
  // symmetrically, less free memory (a machine with idle cores but
  // exhausted memory used to walk the entire queue on every backfill).
  // Cores are counted exactly per demand value; memory is counted in
  // power-of-two buckets, so its minimum is a conservative floor — the
  // gate only prunes machines that certainly cannot start anything.
  void AddWaitingDemand(std::int32_t cores, std::int64_t memory_mb);
  void RemoveWaitingDemand(std::int32_t cores, std::int64_t memory_mb);
  std::int32_t MinWaitingCores() const;
  std::int64_t MinWaitingMemoryFloor() const;
  std::vector<std::int32_t> waiting_cores_count_;
  std::vector<std::int32_t> waiting_memory_count_ =
      std::vector<std::int32_t>(65, 0);

  // Placement indexes (see placement_index.h): pure caches over machine
  // state, audited against a from-scratch rebuild by AuditInvariants.
  FreeCapacityIndex free_index_;
  CapacityClassIndex capacity_classes_;
  // Machines keyed by the priority of their lowest-priority running job —
  // the machines a preemption at a higher priority could harvest. Stored
  // as id-ordered bitmaps (bit flips per transition, no node churn);
  // TryPlace step 2 merges the bitmaps below the job's priority word by
  // word to recover exact machine-id scan order. Classes for priorities
  // that empty out stay allocated — distinct priorities are few.
  struct PriorityBitmap {
    std::vector<std::uint64_t> bits;
    std::size_t count = 0;
  };
  std::map<std::int32_t, PriorityBitmap> preemptible_;
  std::size_t machine_words_ = 0;  // ceil(machines / 64)
  // Reused step-2 scratch (the classes below the job's priority) so the
  // merge never allocates once its capacity warms up.
  std::vector<const PriorityBitmap*> preempt_scratch_;
};

}  // namespace netbatch::cluster
