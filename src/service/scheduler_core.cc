#include "service/scheduler_core.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "service/protocol.h"

namespace netbatch::sched {

using cluster::DispatchMode;
using cluster::FailFastSink;
using cluster::InvariantSink;
using cluster::InvariantViolation;
using cluster::Job;
using cluster::JobState;
using cluster::Machine;
using cluster::MachineGroupConfig;
using cluster::PhysicalPool;
using cluster::PlaceOutcome;
using cluster::PlaceResult;
using cluster::PoolObserver;
using cluster::RescheduleReason;
using cluster::SimulationObserver;

SchedulerCore::SchedulerCore(const cluster::ClusterConfig& config,
                             cluster::InitialScheduler& scheduler,
                             cluster::ReschedulingPolicy& policy,
                             CoreHost& host, CoreOptions options)
    : scheduler_(&scheduler),
      policy_(&policy),
      host_(&host),
      options_(std::move(options)) {
  NETBATCH_CHECK(!config.pools.empty(), "cluster needs at least one pool");
  pools_.reserve(config.pools.size());
  for (std::size_t p = 0; p < config.pools.size(); ++p) {
    const PoolId pool_id(static_cast<PoolId::ValueType>(p));
    cluster::MachineArena machines(pool_id, jobs_);
    std::size_t machine_count = 0;
    for (const MachineGroupConfig& group : config.pools[p].machine_groups) {
      machine_count += static_cast<std::size_t>(std::max(group.count, 0));
    }
    machines.Reserve(machine_count);
    for (const MachineGroupConfig& group : config.pools[p].machine_groups) {
      for (std::int32_t i = 0; i < group.count; ++i) {
        machines.Add(group.cores, group.memory_mb, group.speed, group.owner);
      }
    }
    NETBATCH_CHECK(!machines.empty(), "pool without machines");
    pools_.push_back(std::make_unique<PhysicalPool>(
        pool_id, std::move(machines), jobs_, config.suspended_holds_memory,
        config.local_resume_first,
        /*observer=*/static_cast<PoolObserver*>(this)));
    total_cores_ += pools_.back()->total_cores();
  }

  // Resolve the hot-path counter handles once; every core transition then
  // costs a single integer add. Registration order is part of the observable
  // surface (CounterSnapshot preserves it), so keep this list stable.
  hot_.submitted = &counters_.GetCounter("jobs.submitted");
  hot_.enqueued = &counters_.GetCounter("jobs.enqueued");
  hot_.started = &counters_.GetCounter("jobs.started");
  hot_.resumed = &counters_.GetCounter("jobs.resumed");
  hot_.preempted = &counters_.GetCounter("jobs.preempted");
  hot_.completed = &counters_.GetCounter("jobs.completed");
  hot_.rejected = &counters_.GetCounter("jobs.rejected");
  hot_.rescheduled = &counters_.GetCounter("jobs.rescheduled");
  hot_.duplicated = &counters_.GetCounter("jobs.duplicated");
  hot_.evicted = &counters_.GetCounter("jobs.evicted");
  hot_.bounced = &counters_.GetCounter("vpm.bounces");
  hot_.failures = &counters_.GetCounter("outages.failures");
  hot_.repairs = &counters_.GetCounter("outages.repairs");
  hot_.audits = &counters_.GetCounter("audit.runs");
  hot_.busy_cores = &counters_.GetGauge("cluster.busy_cores");
  hot_.suspended_jobs = &counters_.GetGauge("cluster.suspended_jobs");
  hot_.waiting_jobs = &counters_.GetGauge("cluster.waiting_jobs");
  hot_.bytes_jobs = &counters_.GetGauge("sim.bytes_jobs");
  hot_.bytes_machines = &counters_.GetGauge("sim.bytes_machines");
  hot_.job_slots_free = &counters_.GetGauge("sim.job_slots_free");

  if (!options_.transfer_matrix.empty()) {
    NETBATCH_CHECK(options_.transfer_matrix.size() == pools_.size(),
                   "transfer matrix must have one row per pool");
    for (const auto& row : options_.transfer_matrix) {
      NETBATCH_CHECK(row.size() == pools_.size(),
                     "transfer matrix must be square");
      for (Ticks delay : row) {
        NETBATCH_CHECK(delay >= 0, "negative transfer delay");
      }
    }
  }
}

void SchedulerCore::AddObserver(SimulationObserver* observer) {
  NETBATCH_CHECK(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

Job SchedulerCore::AdmitJob(workload::JobSpec spec) {
  for (PoolId pool : spec.candidate_pools) {
    NETBATCH_CHECK(pool.value() < pools_.size(),
                   "job references unknown pool");
  }
  // Duplicates get ids above every admitted id.
  next_duplicate_id_ = std::max(next_duplicate_id_, spec.id.value() + 1);
  return jobs_.Create(std::move(spec));
}

bool SchedulerCore::Submit(JobId id, Ticks now) {
  now_ = now;
  Job job = jobs_.at(id);
  job.OnSubmitted(now_);
  hot_.submitted->Increment();
  const std::vector<PoolId> order = scheduler_->PoolOrder(job.spec(), *this);
  if (!OfferToPools(job, order)) {
    job.OnRejected(now_);
    ++rejected_count_;
    hot_.rejected->Increment();
    for (SimulationObserver* obs : observers_) obs->OnJobRejected(job);
    NETBATCH_LOG(kWarn) << "job " << id.value()
                        << " rejected: no eligible machine in any pool";
    host_->OnJobTerminal(job);
    return false;
  }
  return true;
}

bool SchedulerCore::OfferToPools(Job job, const std::vector<PoolId>& order) {
  if (options_.dispatch_mode == DispatchMode::kPreferImmediateStart) {
    // First pass: any pool that can start (or preempt for) the job now.
    for (PoolId pool_id : order) {
      NETBATCH_CHECK(pool_id.value() < pools_.size(),
                     "scheduler chose unknown pool");
      const PlaceResult result =
          pools_[pool_id.value()]->TryPlace(job, now_,
                                            /*allow_queue=*/false);
      if (result.outcome == PlaceOutcome::kNotEligible) continue;
      HandlePlaceResult(job, pool_id, result);
      return true;
    }
  }
  // Commit pass: queue at the first pool with an *online* eligible machine.
  // A pool whose only capacity-fit machines are down would strand the job
  // behind the outage, so it bounces to the next candidate instead.
  for (PoolId pool_id : order) {
    NETBATCH_CHECK(pool_id.value() < pools_.size(),
                   "scheduler chose unknown pool");
    const PlaceResult result = pools_[pool_id.value()]->TryPlace(
        job, now_, /*allow_queue=*/true, /*require_online=*/true);
    if (result.outcome == PlaceOutcome::kNotEligible) {
      // Only an availability refusal is a bounce: the pool has the capacity
      // but its eligible machines are down. Capacity refusals are the
      // ordinary §2.1 step-4 path, not outage fallout.
      if (pools_[pool_id.value()]->HasEligibleMachine(job.spec())) {
        hot_.bounced->Increment();
      }
      continue;
    }
    HandlePlaceResult(job, pool_id, result);
    return true;
  }
  // Fallback: every candidate pool's eligible machines are offline right
  // now. Queue at the first capacity-eligible pool and wait for repair —
  // rejection stays a pure capacity decision, never an availability one.
  for (PoolId pool_id : order) {
    const PlaceResult result = pools_[pool_id.value()]->TryPlace(job, now_);
    if (result.outcome == PlaceOutcome::kNotEligible) continue;
    HandlePlaceResult(job, pool_id, result);
    return true;
  }
  return false;
}

void SchedulerCore::HandlePlaceResult(Job job, PoolId pool,
                                      const PlaceResult& result) {
  (void)pool;
  switch (result.outcome) {
    case PlaceOutcome::kStarted:
      ScheduleCompletion(job);
      HandleVictims(result.suspended);
      break;
    case PlaceOutcome::kQueued:
      ArmWaitTimeout(job);
      break;
    case PlaceOutcome::kNotEligible:
      NETBATCH_CHECK(false, "HandlePlaceResult on a refused placement");
  }
}

void SchedulerCore::ScheduleCompletion(Job job) {
  NETBATCH_CHECK(job.state() == JobState::kRunning,
                 "scheduling completion of a non-running job");
  host_->ArmCompletion(job, job.TicksToCompletion(job.run_speed()));
}

void SchedulerCore::HandleVictims(const std::vector<JobId>& victims) {
  // First settle the bookkeeping for every victim, then consult the policy.
  // The two passes matter: rescheduling victim A away can free enough of
  // its machine to resume victim B immediately, and B must not be treated
  // as suspended (or have its new completion event cancelled) afterwards.
  // Counters and observer notification fired from the pool's per-victim
  // OnJobSuspended hook, inside TryPlace; only the timer plumbing the pool
  // cannot see (cancelling the victim's completion) remains here.
  for (JobId victim_id : victims) {
    host_->CancelCompletion(jobs_.at(victim_id));
  }
  for (JobId victim_id : victims) {
    Job victim = jobs_.at(victim_id);
    if (victim.state() != JobState::kSuspended) continue;  // already resumed
    ConsultPolicyOnSuspension(victim);
  }
}

void SchedulerCore::ConsultPolicyOnSuspension(Job victim) {
  // Duplicates never spawn further copies or restart: their race with the
  // original resolves on whichever side finishes first.
  if (victim.is_duplicate()) return;
  const std::optional<PoolId> target = policy_->OnSuspended(victim, *this);
  if (target.has_value() && *target != victim.pool()) {
    if (policy_->DuplicateInsteadOfRestart()) {
      SpawnDuplicate(victim, *target);
    } else {
      RestartJob(victim, *target, RescheduleReason::kSuspension);
    }
  }
}

bool SchedulerCore::Complete(JobId id, std::uint64_t stamp, Ticks now) {
  now_ = now;
  Job job = jobs_.at(id);
  if (!job.GenerationIs(stamp)) {
    return false;  // stale: the job was preempted or rescheduled meanwhile
  }
  NETBATCH_CHECK(job.state() == JobState::kRunning,
                 "completion matched generation of a non-running job");
  PhysicalPool& pool = *pools_[job.pool().value()];
  const std::vector<JobId> scheduled = pool.OnJobCompleted(job, now_);
  if (job.twin().valid()) ResolveTwinRace(job);
  if (!job.is_duplicate()) {
    ++completed_count_;
    hot_.completed->Increment();
    for (SimulationObserver* obs : observers_) obs->OnJobCompleted(job);
    host_->OnJobTerminal(job);
  }
  FinishJobsScheduledBy(scheduled);
  return true;
}

bool SchedulerCore::Suspend(JobId id, Ticks now) {
  now_ = now;
  Job job = jobs_.at(id);
  if (job.state() != JobState::kRunning) return false;
  PhysicalPool& pool = *pools_[job.pool().value()];
  pool.SuspendRunning(job, now_);
  host_->CancelCompletion(job);
  // The suspension is an ordinary preemption as far as the rescheduling
  // policy is concerned: it may move the job to another pool right now.
  if (job.state() == JobState::kSuspended) ConsultPolicyOnSuspension(job);
  return true;
}

bool SchedulerCore::Resume(JobId id, Ticks now) {
  now_ = now;
  Job job = jobs_.at(id);
  if (job.state() != JobState::kSuspended) return false;
  PhysicalPool& pool = *pools_[job.pool().value()];
  if (!pool.TryResume(job, now_)) return false;
  ScheduleCompletion(job);
  return true;
}

bool SchedulerCore::Kill(JobId id, Ticks now) {
  now_ = now;
  Job job = jobs_.at(id);
  if (job.twin().valid()) return false;  // let the twin race resolve itself
  std::vector<JobId> scheduled;
  switch (job.state()) {
    case JobState::kInTransit:
      // Holds no pool resources; the pending delivery is invalidated by the
      // terminal transition's generation bump.
      job.OnKilled(now_);
      break;
    case JobState::kRunning:
    case JobState::kWaiting:
    case JobState::kSuspended:
      host_->CancelCompletion(job);
      scheduled =
          pools_[job.pool().value()]->KillJob(job, now_,
                                              /*complete_by_twin=*/false);
      break;
    default:
      return false;  // pending (transient) or already terminal
  }
  // Lazy registration, same rationale as the twin-race kill counter: runs
  // that never kill keep their counter snapshot unchanged.
  counters_.GetCounter("jobs.killed").Increment();
  for (SimulationObserver* obs : observers_) obs->OnJobKilled(job);
  host_->OnJobTerminal(job);
  FinishJobsScheduledBy(scheduled);
  return true;
}

void SchedulerCore::Tick(Ticks now) {
  now_ = now;
  RefreshGauges(now);
}

SchedulerCore::Snapshot SchedulerCore::GetSnapshot() const {
  Snapshot snap;
  snap.now = now_;
  snap.started = hot_.started->value();
  snap.completed = completed_count_;
  snap.rejected = rejected_count_;
  snap.preemptions = preemption_count_;
  snap.reschedules = reschedule_count_;
  snap.pools.reserve(pools_.size());
  for (const auto& pool : pools_) {
    PoolSnapshot ps;
    ps.id = pool->id();
    ps.total_cores = pool->total_cores();
    ps.busy_cores = pool->busy_cores();
    ps.queued = pool->QueueLength();
    ps.suspended = pool->SuspendedCount();
    snap.pools.push_back(ps);
  }
  return snap;
}

void SchedulerCore::SpawnDuplicate(Job original, PoolId target) {
  NETBATCH_CHECK(!original.is_duplicate(), "duplicating a duplicate");
  if (original.twin().valid()) return;  // a race is already in flight

  workload::JobSpec spec = original.spec();
  spec.id = JobId(next_duplicate_id_++);
  spec.candidate_pools = {target};
  Job duplicate = jobs_.Create(std::move(spec));
  duplicate.MarkDuplicateOf(original.id());
  original.set_twin(duplicate.id());
  ++duplicate_count_;
  ++reschedule_count_;
  hot_.duplicated->Increment();
  hot_.rescheduled->Increment();
  for (SimulationObserver* obs : observers_) {
    obs->OnJobRescheduled(original, original.pool(), target,
                          RescheduleReason::kSuspension);
  }

  duplicate.OnSubmitted(now_);
  const PlaceResult result = pools_[target.value()]->TryPlace(duplicate, now_);
  NETBATCH_CHECK(result.outcome != PlaceOutcome::kNotEligible,
                 "policy duplicated a job into an ineligible pool");
  HandlePlaceResult(duplicate, target, result);
}

void SchedulerCore::ResolveTwinRace(Job winner) {
  Job loser = jobs_.at(winner.twin());
  winner.set_twin(JobId());
  loser.set_twin(JobId());
  Job original = winner.is_duplicate() ? loser : winner;

  host_->CancelCompletion(loser);

  // Remove the loser from wherever it is parked. A loser that is mid-
  // transit (restart overhead) holds no pool resources; its delivery event
  // is invalidated by the generation bump of the terminal transition.
  const bool complete_by_twin = winner.is_duplicate();
  std::vector<JobId> scheduled;
  if (loser.state() == JobState::kInTransit ||
      loser.state() == JobState::kPending) {
    if (complete_by_twin) {
      loser.OnCompletedByTwin(now_);
    } else {
      loser.OnKilled(now_);
    }
  } else {
    PhysicalPool& pool = *pools_[loser.pool().value()];
    scheduled = pool.KillJob(loser, now_, complete_by_twin);
  }
  if (!complete_by_twin) {
    // Registered lazily so runs without twin races (every run outside the
    // duplication extension) keep their counter snapshot unchanged.
    counters_.GetCounter("jobs.killed").Increment();
    for (SimulationObserver* obs : observers_) obs->OnJobKilled(loser);
  }
  FinishJobsScheduledBy(scheduled);

  // The duplicate side is terminal either way (killed or completed-by-proxy
  // via its winning run); tell the host so a serving layer can release its
  // per-job state. The sim host's hook only checks for quiescence, which
  // an extra call cannot disturb.
  host_->OnJobTerminal(winner.is_duplicate() ? winner : loser);

  if (winner.is_duplicate()) {
    // The original finishes with its duplicate's result. Its own partial
    // progress was folded into rescheduling waste by OnCompletedByTwin; the
    // duplicate's (useful) run is credited through the original's
    // completion time.
    NETBATCH_CHECK(original.state() == JobState::kCompleted,
                   "twin completion did not complete the original");
    ++completed_count_;
    hot_.completed->Increment();
    for (SimulationObserver* obs : observers_) obs->OnJobCompleted(original);
    host_->OnJobTerminal(original);
  } else {
    // The original won; the duplicate's entire execution is waste.
    original.AddExtraWaste(loser.executed_ticks());
  }
}

void SchedulerCore::FinishJobsScheduledBy(const std::vector<JobId>& scheduled) {
  for (JobId id : scheduled) {
    ScheduleCompletion(jobs_.at(id));
  }
}

void SchedulerCore::ArmWaitTimeout(Job job) {
  const std::optional<Ticks> threshold = policy_->WaitRescheduleThreshold();
  if (!threshold.has_value()) return;
  NETBATCH_CHECK(*threshold > 0, "wait-reschedule threshold must be positive");
  NETBATCH_CHECK(job.state() == JobState::kWaiting,
                 "arming wait timeout for a non-waiting job");
  host_->ArmWaitTimeout(job, *threshold);
}

void SchedulerCore::OnWaitTimeout(JobId id, std::uint64_t stamp, Ticks now) {
  now_ = now;
  Job job = jobs_.at(id);
  if (!job.GenerationIs(stamp)) {
    return;  // the job started, was moved, or completed meanwhile
  }
  NETBATCH_CHECK(job.state() == JobState::kWaiting,
                 "wait timeout matched generation of a non-waiting job");
  const std::optional<PoolId> target = policy_->OnWaitTimeout(job, *this);
  if (target.has_value() && *target != job.pool()) {
    RestartJob(job, *target, RescheduleReason::kWaitTimeout);
  } else {
    // Keep waiting here, but give the job another chance later ("the
    // rescheduled job can gain multiple second chances", §3.3.1).
    ArmWaitTimeout(job);
  }
}

void SchedulerCore::RestartJob(Job job, PoolId target,
                               RescheduleReason reason) {
  NETBATCH_CHECK(target.value() < pools_.size(), "restart to unknown pool");
  const PoolId from = job.pool();
  PhysicalPool& from_pool = *pools_[from.value()];

  MachineId freed_machine;
  if (job.state() == JobState::kSuspended) {
    freed_machine = from_pool.DetachSuspended(job);
  } else {
    from_pool.RemoveFromQueue(job.id());
  }
  job.OnRestart(now_, target, options_.checkpoint_interval);
  ++reschedule_count_;
  hot_.rescheduled->Increment();
  for (SimulationObserver* obs : observers_) {
    obs->OnJobRescheduled(job, from, target, reason);
  }

  // Detaching a suspended job may have freed memory another parked job was
  // waiting for; let the machine backfill before the restart is delivered.
  if (freed_machine.valid()) {
    FinishJobsScheduledBy(from_pool.Backfill(freed_machine, now_));
  }

  const Ticks overhead =
      options_.transfer_matrix.empty()
          ? options_.restart_overhead
          : options_.transfer_matrix[from.value()][target.value()];
  if (overhead == 0) {
    DeliverRestart(job.id(), job.generation(), target, now_);
  } else {
    host_->ScheduleRestartDelivery(job, target, overhead);
  }
}

void SchedulerCore::DeliverRestart(JobId id, std::uint64_t stamp,
                                   PoolId target, Ticks now) {
  now_ = now;
  Job job = jobs_.at(id);
  if (!job.GenerationIs(stamp)) {
    return;  // the transit was superseded (e.g. the job's twin resolved)
  }
  NETBATCH_CHECK(job.state() == JobState::kInTransit,
                 "restart delivery matched generation of a non-transit job");
  const PlaceResult result = pools_[target.value()]->TryPlace(job, now_);
  // Policies must pick pools the job is eligible for; the core exposes
  // PoolEligible() exactly for that check.
  NETBATCH_CHECK(result.outcome != PlaceOutcome::kNotEligible,
                 "policy rescheduled a job to an ineligible pool");
  HandlePlaceResult(job, target, result);
}

void SchedulerCore::FailMachine(PoolId pool_id, MachineId machine, Ticks now) {
  now_ = now;
  PhysicalPool& pool = *pools_[pool_id.value()];
  ++outage_count_;
  hot_.failures->Increment();
  const std::vector<JobId> evicted = pool.EvictMachine(machine, now_);

  // Evicted jobs lose their (un-checkpointed) progress and are resubmitted
  // through the virtual pool manager, like a rescheduling restart without a
  // chosen target.
  for (JobId id : evicted) {
    Job job = jobs_.at(id);
    host_->CancelCompletion(job);
    job.OnRestart(now_, job.pool(), options_.checkpoint_interval);
    ++eviction_count_;
    hot_.evicted->Increment();
    for (SimulationObserver* obs : observers_) obs->OnJobEvicted(job);
    const bool placed =
        OfferToPools(job, scheduler_->PoolOrder(job.spec(), *this));
    NETBATCH_CHECK(placed, "evicted job no longer placeable anywhere");
  }
}

void SchedulerCore::RepairMachine(PoolId pool_id, MachineId machine,
                                  Ticks now) {
  now_ = now;
  PhysicalPool& pool = *pools_[pool_id.value()];
  hot_.repairs->Increment();
  FinishJobsScheduledBy(pool.RepairMachine(machine, now_));
}

// ---- observability --------------------------------------------------------

void SchedulerCore::OnJobStarted(const Job& job) {
  hot_.started->Increment();
  for (SimulationObserver* obs : observers_) obs->OnJobStarted(job);
  AuditTransition(job.pool());
}

void SchedulerCore::OnJobResumed(const Job& job) {
  hot_.resumed->Increment();
  for (SimulationObserver* obs : observers_) obs->OnJobResumed(job);
  AuditTransition(job.pool());
}

void SchedulerCore::OnJobEnqueued(const Job& job) {
  hot_.enqueued->Increment();
  for (SimulationObserver* obs : observers_) obs->OnJobEnqueued(job);
  AuditTransition(job.pool());
}

void SchedulerCore::OnJobSuspended(const Job& job) {
  ++preemption_count_;
  hot_.preempted->Increment();
  for (SimulationObserver* obs : observers_) obs->OnJobSuspended(job);
  AuditTransition(job.pool());
}

void SchedulerCore::AuditTransition(PoolId pool) {
  if (!options_.audit_on_transitions) return;
  hot_.audits->Increment();
  FailFastSink sink;
  pools_[pool.value()]->AuditInvariants(now_, sink);
}

void SchedulerCore::RefreshGauges(Ticks now) {
  (void)now;
  std::int64_t busy = 0;
  std::size_t waiting = 0;
  for (const auto& pool : pools_) {
    busy += pool->busy_cores();
    waiting += pool->QueueLength();
  }
  hot_.busy_cores->Set(busy);
  hot_.suspended_jobs->Set(static_cast<std::int64_t>(SuspendedJobCount()));
  hot_.waiting_jobs->Set(static_cast<std::int64_t>(waiting));
  std::size_t machine_bytes = 0;
  for (const auto& pool : pools_) {
    machine_bytes += pool->machines().MemoryBytes();
  }
  hot_.bytes_jobs->Set(static_cast<std::int64_t>(jobs_.MemoryBytes()));
  hot_.bytes_machines->Set(static_cast<std::int64_t>(machine_bytes));
  hot_.job_slots_free->Set(static_cast<std::int64_t>(jobs_.free_slot_count()));
}

void SchedulerCore::AuditInvariants(InvariantSink& sink, Ticks now) const {
  for (const auto& pool : pools_) pool->AuditInvariants(now, sink);

  // Cluster-wide conservation. Pools audited their own registries above;
  // this pass cross-checks job states (the other side of the ledger)
  // against the pool aggregates and the core's terminal counters.
  const auto check = [&](bool ok, const char* what) {
    if (!ok) sink.Report(InvariantViolation{now, PoolId(), what, MachineId()});
  };
  std::size_t running = 0;
  std::size_t waiting = 0;
  std::size_t suspended = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::int64_t running_cores = 0;
  for (const Job& job : jobs_) {
    switch (job.state()) {
      case JobState::kRunning:
        ++running;
        running_cores += job.spec().cores;
        break;
      case JobState::kWaiting:
        ++waiting;
        break;
      case JobState::kSuspended:
        ++suspended;
        break;
      case JobState::kCompleted:
        // Duplicates are credited to their original, never to the core's
        // completion counter.
        if (!job.is_duplicate()) ++completed;
        break;
      case JobState::kRejected:
        ++rejected;
        break;
      default:
        break;
    }
  }
  std::int64_t busy = 0;
  std::size_t pool_suspended = 0;
  std::size_t pool_waiting = 0;
  std::size_t pool_running = 0;
  for (const auto& pool : pools_) {
    busy += pool->busy_cores();
    pool_suspended += pool->SuspendedCount();
    pool_waiting += pool->QueueLength();
    for (const Machine& machine : pool->machines()) {
      pool_running += machine.running().size();
    }
  }
  check(busy == running_cores,
        "cluster busy cores != sum of running job core demands");
  check(pool_running == running,
        "machine running registries != jobs in running state");
  check(pool_suspended == suspended,
        "pool suspended counts != jobs in suspended state");
  check(pool_waiting == waiting,
        "pool wait queues != jobs in waiting state");
  // With slot reclamation on (daemon path), terminal jobs leave the table
  // while the lifetime counters keep counting, so the terminal ledgers no
  // longer correspond. The non-terminal checks above stay exact: live jobs
  // are never reclaimed.
  if (!jobs_.reclaim_enabled()) {
    check(completed == completed_count_,
          "completion counter != completed (non-duplicate) jobs");
    check(rejected == rejected_count_,
          "rejection counter != rejected jobs");
  }
}

void SchedulerCore::CheckInvariants() const {
  FailFastSink sink;
  AuditInvariants(sink);
}

double SchedulerCore::PoolUtilization(PoolId pool) const {
  return pools_[pool.value()]->Utilization();
}

std::size_t SchedulerCore::PoolQueueLength(PoolId pool) const {
  return pools_[pool.value()]->QueueLength();
}

std::int64_t SchedulerCore::PoolTotalCores(PoolId pool) const {
  return pools_[pool.value()]->total_cores();
}

bool SchedulerCore::PoolEligible(PoolId pool,
                                 const workload::JobSpec& spec) const {
  return pools_[pool.value()]->HasEligibleMachine(spec);
}

double SchedulerCore::ClusterUtilization() const {
  if (total_cores_ == 0) return 0.0;
  std::int64_t busy = 0;
  for (const auto& pool : pools_) busy += pool->busy_cores();
  return static_cast<double>(busy) / static_cast<double>(total_cores_);
}

std::size_t SchedulerCore::SuspendedJobCount() const {
  std::size_t suspended = 0;
  for (const auto& pool : pools_) suspended += pool->SuspendedCount();
  return suspended;
}

// --- checkpoint/restore ------------------------------------------------------

namespace {

// v2: trailing free-slot generation-floor section (WAL-replayed admissions
// must reuse slots at the same floors the live run did).
constexpr std::uint32_t kCoreStateVersion = 2;

void EncodeJobRecord(const cluster::JobArena& jobs, JobId id,
                     std::vector<std::uint8_t>& out,
                     std::vector<std::uint8_t>& scratch) {
  const Job job = jobs.at(id);
  const cluster::JobArena::RestoreImage image = jobs.CaptureImage(id);
  scratch.clear();
  service::EncodeJobSpec(job.spec(), scratch);
  service::WireWriter w(out);
  w.U32(static_cast<std::uint32_t>(scratch.size()));
  out.insert(out.end(), scratch.begin(), scratch.end());
  service::WireWriter body(out);
  body.U32(static_cast<std::uint32_t>(image.state));
  body.U32(image.pool.value());
  body.U32(image.machine.value());
  std::uint64_t speed_bits;
  std::memcpy(&speed_bits, &image.run_speed, 8);
  body.U64(speed_bits);
  body.I64(image.remaining_work);
  body.I64(image.state_since);
  body.I64(image.completion_time);
  body.I64(image.attempt_executed);
  body.I64(image.attempt_work);
  body.I64(image.wait_ticks);
  body.I64(image.suspend_ticks);
  body.I64(image.executed_ticks);
  body.I64(image.resched_waste_ticks);
  body.I64(image.transit_ticks);
  body.I32(image.suspend_count);
  body.I32(image.restart_count);
  body.U32(image.is_duplicate);
  body.U32(image.twin.value());
  body.I64(image.extra_waste_ticks);
  body.U64(image.generation);
}

bool DecodeJobRecord(service::WireReader& r,
                     std::vector<std::uint8_t>& scratch,
                     workload::JobSpec& spec,
                     cluster::JobArena::RestoreImage& image) {
  const std::uint32_t spec_len = r.U32();
  if (!r.ok()) return false;
  r.Bytes(spec_len, scratch);
  if (!r.ok() || !service::DecodeJobSpec(scratch, spec)) return false;
  image.state = static_cast<JobState>(r.U32());
  image.pool = PoolId(r.U32());
  image.machine = MachineId(r.U32());
  const std::uint64_t speed_bits = r.U64();
  std::memcpy(&image.run_speed, &speed_bits, 8);
  image.remaining_work = r.I64();
  image.state_since = r.I64();
  image.completion_time = r.I64();
  image.attempt_executed = r.I64();
  image.attempt_work = r.I64();
  image.wait_ticks = r.I64();
  image.suspend_ticks = r.I64();
  image.executed_ticks = r.I64();
  image.resched_waste_ticks = r.I64();
  image.transit_ticks = r.I64();
  image.suspend_count = r.I32();
  image.restart_count = r.I32();
  image.is_duplicate = static_cast<std::uint8_t>(r.U32());
  image.twin = JobId(r.U32());
  image.extra_waste_ticks = r.I64();
  image.generation = r.U64();
  return r.ok();
}

}  // namespace

void SchedulerCore::ExportState(std::vector<std::uint8_t>& out) const {
  service::WireWriter w(out);
  w.U32(kCoreStateVersion);
  w.I64(now_);
  w.U64(completed_count_);
  w.U64(rejected_count_);
  w.U64(preemption_count_);
  w.U64(reschedule_count_);
  w.U64(duplicate_count_);
  w.U64(outage_count_);
  w.U64(eviction_count_);
  w.U64(next_duplicate_id_);

  // Counter registry, in registration order — the order itself is part of
  // the rendered-stats surface, so import replays it name by name.
  const CounterSnapshot counters = counters_.TakeSnapshot();
  w.U32(static_cast<std::uint32_t>(counters.counters.size()));
  for (const auto& [name, value] : counters.counters) {
    w.U32(static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    service::WireWriter(out).U64(value);
  }
  w.U32(static_cast<std::uint32_t>(counters.gauges.size()));
  for (const auto& [name, value, max] : counters.gauges) {
    (void)max;  // a gauge's historical max is not restorable
    w.U32(static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    service::WireWriter(out).I64(value);
  }

  // Scheduler/policy decision state, length-prefixed opaque blobs.
  std::vector<std::uint8_t> blob;
  scheduler_->ExportState(blob);
  w.U32(static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
  blob.clear();
  policy_->ExportState(blob);
  service::WireWriter(out).U32(static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());

  // Pool occupancy in the canonical restore order.
  std::vector<std::uint8_t> scratch;
  w.U32(static_cast<std::uint32_t>(pools_.size()));
  std::vector<JobId> pooled_jobs;
  for (const auto& pool : pools_) {
    service::WireWriter pw(out);
    pw.U32(pool->id().value());
    std::vector<MachineId> offline;
    pool->AppendOfflineMachines(offline);
    pw.U32(static_cast<std::uint32_t>(offline.size()));
    for (const MachineId m : offline) service::WireWriter(out).U32(m.value());
    std::vector<JobId> ids;
    pool->AppendJobsInRestoreOrder(ids);
    service::WireWriter(out).U32(static_cast<std::uint32_t>(ids.size()));
    for (const JobId id : ids) {
      EncodeJobRecord(jobs_, id, out, scratch);
      pooled_jobs.push_back(id);
    }
  }

  // Everything not parked in a pool: pending, in-transit, and terminal
  // jobs awaiting reclamation — straight from the arena, in slot order.
  // A slot is live when the id index still points back at it (erased
  // slots, and slots whose id was re-admitted elsewhere, are skipped).
  std::vector<JobId> loose;
  for (const Job job : jobs_) {
    const JobId id = job.id();
    if (!jobs_.Contains(id) || jobs_.at(id).slot() != job.slot()) continue;
    const JobState state = job.state();
    if (state == JobState::kRunning || state == JobState::kSuspended ||
        state == JobState::kWaiting) {
      continue;  // emitted via its pool above
    }
    loose.push_back(id);
  }
  w.U32(static_cast<std::uint32_t>(loose.size()));
  for (const JobId id : loose) EncodeJobRecord(jobs_, id, out, scratch);

  // Parked free-slot generation floors, bottom of the reuse stack first.
  // Without them a restored (compacted) arena would hand WAL-replayed
  // submits fresh generation-0 slots where the live run reused parked ones,
  // and every replayed timer stamp for those jobs would read as stale.
  std::vector<std::uint64_t> floors;
  jobs_.AppendFreeSlotGenerations(floors);
  w.U32(static_cast<std::uint32_t>(floors.size()));
  for (const std::uint64_t floor : floors) {
    service::WireWriter(out).U64(floor);
  }
}

bool SchedulerCore::ImportState(const std::vector<std::uint8_t>& payload) {
  NETBATCH_CHECK(jobs_.size() == 0,
                 "ImportState into a core that already has jobs");
  service::WireReader r(payload);
  if (r.U32() != kCoreStateVersion) return false;
  now_ = r.I64();
  completed_count_ = r.U64();
  rejected_count_ = r.U64();
  preemption_count_ = r.U64();
  reschedule_count_ = r.U64();
  duplicate_count_ = r.U64();
  outage_count_ = r.U64();
  eviction_count_ = r.U64();
  next_duplicate_id_ = static_cast<JobId::ValueType>(r.U64());
  if (!r.ok()) return false;

  std::vector<std::uint8_t> scratch;
  const auto read_name = [&](std::string& name) {
    const std::uint32_t len = r.U32();
    if (!r.ok()) return false;
    r.Bytes(len, scratch);
    if (!r.ok()) return false;
    name.assign(scratch.begin(), scratch.end());
    return true;
  };

  const std::uint32_t counter_count = r.U32();
  if (!r.ok()) return false;
  std::string name;
  for (std::uint32_t i = 0; i < counter_count; ++i) {
    if (!read_name(name)) return false;
    const std::uint64_t value = r.U64();
    if (!r.ok()) return false;
    counters_.GetCounter(name).Increment(value);
  }
  const std::uint32_t gauge_count = r.U32();
  if (!r.ok()) return false;
  for (std::uint32_t i = 0; i < gauge_count; ++i) {
    if (!read_name(name)) return false;
    const std::int64_t value = r.I64();
    if (!r.ok()) return false;
    counters_.GetGauge(name).Set(value);
  }

  std::vector<std::uint8_t> blob;
  const auto read_blob = [&] {
    const std::uint32_t len = r.U32();
    if (!r.ok()) return false;
    r.Bytes(len, blob);
    return r.ok();
  };
  if (!read_blob()) return false;
  if (!scheduler_->ImportState(blob.data(), blob.size())) return false;
  if (!read_blob()) return false;
  if (!policy_->ImportState(blob.data(), blob.size())) return false;

  const std::uint32_t pool_count = r.U32();
  if (!r.ok() || pool_count != pools_.size()) return false;
  workload::JobSpec spec;
  cluster::JobArena::RestoreImage image;
  for (std::uint32_t p = 0; p < pool_count; ++p) {
    PhysicalPool& pool = *pools_[p];
    if (PoolId(r.U32()) != pool.id()) return false;
    const std::uint32_t offline_count = r.U32();
    if (!r.ok() || offline_count > pool.machines().size()) return false;
    for (std::uint32_t i = 0; i < offline_count; ++i) {
      const MachineId m(r.U32());
      if (!r.ok() || !m.valid() || m.value() >= pool.machines().size()) {
        return false;
      }
      pool.RestoreOffline(m);
    }
    const std::uint32_t job_count = r.U32();
    if (!r.ok() || job_count > payload.size()) return false;
    for (std::uint32_t i = 0; i < job_count; ++i) {
      if (!DecodeJobRecord(r, scratch, spec, image)) return false;
      if (image.pool != pool.id()) return false;
      const Job job = jobs_.RestoreJob(std::move(spec), image);
      switch (image.state) {
        case JobState::kRunning:
          pool.RestoreRunning(job);
          break;
        case JobState::kSuspended:
          pool.RestoreSuspended(job);
          break;
        case JobState::kWaiting:
          pool.RestoreWaiting(job);
          break;
        default:
          return false;  // pooled section only holds parked states
      }
    }
  }

  const std::uint32_t loose_count = r.U32();
  if (!r.ok() || loose_count > payload.size()) return false;
  for (std::uint32_t i = 0; i < loose_count; ++i) {
    if (!DecodeJobRecord(r, scratch, spec, image)) return false;
    switch (image.state) {
      case JobState::kRunning:
      case JobState::kSuspended:
      case JobState::kWaiting:
        return false;  // parked states belong to the pooled section
      default:
        break;
    }
    jobs_.RestoreJob(std::move(spec), image);
  }

  // Free-slot floors last: every RestoreJob above ran with an empty free
  // list (fresh slots only), so re-parking these now rebuilds the reuse
  // stack in its live LIFO order without disturbing the restored jobs.
  const std::uint32_t floor_count = r.U32();
  if (!r.ok() || floor_count > payload.size()) return false;
  if (floor_count > 0 && !jobs_.reclaim_enabled()) return false;
  for (std::uint32_t i = 0; i < floor_count; ++i) {
    const std::uint64_t floor = r.U64();
    if (!r.ok()) return false;
    jobs_.RestoreFreeSlot(floor);
  }
  if (!r.exhausted()) return false;
  CheckInvariants();
  return true;
}

}  // namespace netbatch::sched
