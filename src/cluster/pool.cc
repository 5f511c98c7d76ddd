#include "cluster/pool.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace netbatch::cluster {

PhysicalPool::PhysicalPool(PoolId id, MachineArena machines,
                           JobArena& jobs, bool suspended_holds_memory,
                           bool local_resume_first, PoolObserver* observer)
    : id_(id),
      machines_(std::move(machines)),
      jobs_(&jobs),
      suspended_holds_memory_(suspended_holds_memory),
      local_resume_first_(local_resume_first),
      observer_(observer) {
  NETBATCH_CHECK(machines_.empty() || machines_.pool() == id_,
                 "machine assigned to wrong pool");
  NETBATCH_CHECK(&machines_.jobs() == jobs_,
                 "machine arena bound to a different job table");
  std::int32_t max_cores = 0;
  for (const Machine& machine : machines_) {
    total_cores_ += machine.cores_total();
    max_cores = std::max(max_cores, machine.cores_total());
  }
  // Pre-size the wait queue: only jobs some machine could ever run wait
  // here, and the paper has two priority levels — so enqueues allocate
  // nothing from the first one on.
  waiting_cores_count_.assign(static_cast<std::size_t>(max_cores) + 1, 0);
  wait_classes_.reserve(2);
  machine_words_ = (machines_.size() + 63) / 64;
  free_index_.Rebuild(machines_);
  capacity_classes_.Rebuild(machines_);
}

void PhysicalPool::AddRunningIndexed(Machine machine, const Job& job) {
  const std::int32_t before = machine.lowest_running_priority();
  machine.AddRunning(job.id(), job.priority(), job.spec().cores,
                     job.spec().memory_mb);
  ReindexPreemptible(machine, before);
}

void PhysicalPool::RemoveRunningIndexed(Machine machine, const Job& job) {
  const std::int32_t before = machine.lowest_running_priority();
  machine.RemoveRunning(job.id(), job.priority(), job.spec().cores,
                        job.spec().memory_mb);
  ReindexPreemptible(machine, before);
}

void PhysicalPool::ReindexPreemptible(const Machine& machine,
                                      std::int32_t before) {
  const std::int32_t after = machine.lowest_running_priority();
  if (before == after) return;
  const MachineId::ValueType id = machine.id().value();
  const std::size_t word = id / 64;
  const std::uint64_t bit = std::uint64_t{1} << (id % 64);
  if (before != Machine::kNoRunningPriority) {
    const auto it = preemptible_.find(before);
    NETBATCH_CHECK(
        it != preemptible_.end() && (it->second.bits[word] & bit) != 0,
        "preemptible registry out of sync");
    it->second.bits[word] &= ~bit;
    --it->second.count;
  }
  if (after != Machine::kNoRunningPriority) {
    PriorityBitmap& bitmap = preemptible_[after];
    if (bitmap.bits.empty()) bitmap.bits.assign(machine_words_, 0);
    bitmap.bits[word] |= bit;
    ++bitmap.count;
  }
}

Machine PhysicalPool::MachineById(MachineId id) const {
  return machines_.at(id);
}

bool PhysicalPool::HasEligibleMachine(const workload::JobSpec& spec,
                                      bool require_online) const {
  return capacity_classes_.AnyEligible(spec.cores, spec.memory_mb,
                                       require_online);
}

void PhysicalPool::StartOn(Job job, Machine machine, Ticks now) {
  machine.Claim(job.spec().cores, job.spec().memory_mb);
  AddRunningIndexed(machine, job);
  ReindexFree(machine);
  job.set_pool(id_);
  job.OnStarted(now, machine.id(), machine.speed());
  busy_cores_ += job.spec().cores;
  if (observer_ != nullptr) observer_->OnJobStarted(job);
}

void PhysicalPool::ResumeOn(Job job, Machine machine, Ticks now) {
  // A suspended job's memory may still be claimed from its suspension.
  machine.Claim(job.spec().cores,
                suspended_holds_memory_ ? 0 : job.spec().memory_mb);
  machine.RemoveSuspended(job.id());
  AddRunningIndexed(machine, job);
  ReindexFree(machine);
  --suspended_count_;
  job.OnResumed(now);
  busy_cores_ += job.spec().cores;
  if (observer_ != nullptr) observer_->OnJobResumed(job);
}

// Memory demands are summarized in power-of-two buckets: bucket b >= 1
// covers [2^(b-1), 2^b); its floor 2^(b-1) under-estimates every member,
// which keeps the backfill gate conservative.
namespace {
std::size_t MemoryBucket(std::int64_t memory_mb) {
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(memory_mb)));
}
}  // namespace

void PhysicalPool::AddWaitingDemand(std::int32_t cores,
                                    std::int64_t memory_mb) {
  const std::size_t slot = static_cast<std::size_t>(cores);
  if (slot >= waiting_cores_count_.size()) {
    waiting_cores_count_.resize(slot + 1, 0);
  }
  ++waiting_cores_count_[slot];
  ++waiting_memory_count_[MemoryBucket(memory_mb)];
}

void PhysicalPool::RemoveWaitingDemand(std::int32_t cores,
                                       std::int64_t memory_mb) {
  const std::size_t slot = static_cast<std::size_t>(cores);
  NETBATCH_CHECK(slot < waiting_cores_count_.size() &&
                     waiting_cores_count_[slot] > 0,
                 "wait-queue core index out of sync");
  --waiting_cores_count_[slot];
  const std::size_t bucket = MemoryBucket(memory_mb);
  NETBATCH_CHECK(waiting_memory_count_[bucket] > 0,
                 "wait-queue memory index out of sync");
  --waiting_memory_count_[bucket];
}

std::int32_t PhysicalPool::MinWaitingCores() const {
  for (std::size_t c = 0; c < waiting_cores_count_.size(); ++c) {
    if (waiting_cores_count_[c] > 0) return static_cast<std::int32_t>(c);
  }
  return std::numeric_limits<std::int32_t>::max();
}

std::int64_t PhysicalPool::MinWaitingMemoryFloor() const {
  for (std::size_t b = 0; b < waiting_memory_count_.size(); ++b) {
    if (waiting_memory_count_[b] > 0) {
      return b == 0 ? 0 : std::int64_t{1} << (b - 1);
    }
  }
  return std::numeric_limits<std::int64_t>::max();
}

void PhysicalPool::LinkWaiting(const Job& job) {
  const workload::Priority priority = job.priority();
  auto it = wait_classes_.begin();
  while (it != wait_classes_.end() && it->priority > priority) ++it;
  if (it == wait_classes_.end() || it->priority != priority) {
    it = wait_classes_.insert(it, WaitClass{priority});
  }
  jobs_->LinkTail(job.slot(), JobArena::kWaitingList, it->head, it->tail);
  ++it->count;
  ++waiting_count_;
  AddWaitingDemand(job.spec().cores, job.spec().memory_mb);
}

void PhysicalPool::UnlinkWaiting(const Job& job) {
  auto cls = wait_classes_.begin();
  while (cls != wait_classes_.end() && cls->priority != job.priority()) ++cls;
  NETBATCH_CHECK(cls != wait_classes_.end() &&
                     jobs_->OnList(job.slot(), JobArena::kWaitingList,
                                   cls->head),
                 "job not in this wait queue");
  jobs_->Unlink(job.slot(), cls->head, cls->tail);
  --cls->count;
  --waiting_count_;
  RemoveWaitingDemand(job.spec().cores, job.spec().memory_mb);
}

void PhysicalPool::Enqueue(Job job, Ticks now) {
  LinkWaiting(job);
  job.OnEnqueued(now, id_);
  if (observer_ != nullptr) observer_->OnJobEnqueued(job);
}

bool PhysicalPool::CouldPreemptFor(const Machine& machine,
                                   const workload::JobSpec& spec,
                                   workload::Priority priority) const {
  if (!machine.online() || !machine.Eligible(spec.cores, spec.memory_mb)) {
    return false;
  }
  if (machine.owner() != workload::kNoOwner &&
      machine.owner() != spec.owner) {
    return false;
  }
  // Suspending every lower-priority running job reclaims exactly the
  // running-class totals below `priority`, so this is precise feasibility
  // of PreemptionPlan — not a heuristic prefilter.
  std::int32_t reclaim_cores = 0;
  std::int64_t reclaim_memory = 0;
  machine.ReclaimableBelow(priority, reclaim_cores, reclaim_memory);
  if (suspended_holds_memory_) reclaim_memory = 0;
  return machine.cores_free() + reclaim_cores >= spec.cores &&
         machine.memory_free_mb() + reclaim_memory >= spec.memory_mb;
}

bool PhysicalPool::PreemptionPlan(const Machine& machine,
                                  const workload::JobSpec& spec,
                                  workload::Priority priority,
                                  std::vector<JobId>& victims) const {
  if (!machine.online() || !machine.Eligible(spec.cores, spec.memory_mb)) {
    return false;
  }
  // Ownership gate (paper §2.2): on an owned machine, only the owning
  // group's jobs may preempt.
  if (machine.owner() != workload::kNoOwner &&
      machine.owner() != spec.owner) {
    return false;
  }

  // Memory freed by suspension depends on the suspension model.
  std::int64_t memory_gain = 0;
  std::int32_t core_gain = 0;

  // Candidate victims: running jobs with strictly lower priority. Among
  // equals, suspend the job with the least accumulated progress first —
  // NetBatch hosts pick victims to minimize the work at risk, which is also
  // what keeps the "wasted time by rescheduling" component small (Fig. 3).
  std::vector<JobId> candidates;
  for (JobId id : machine.running()) {
    if (jobs_->at(id).priority() < priority) candidates.push_back(id);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](JobId a, JobId b) {
                     const Job& ja = jobs_->at(a);
                     const Job& jb = jobs_->at(b);
                     if (ja.priority() != jb.priority()) {
                       return ja.priority() < jb.priority();
                     }
                     return ja.attempt_executed_ticks() <
                            jb.attempt_executed_ticks();
                   });

  victims.clear();
  for (JobId id : candidates) {
    if (machine.cores_free() + core_gain >= spec.cores &&
        machine.memory_free_mb() + memory_gain >= spec.memory_mb) {
      break;
    }
    const Job& victim = jobs_->at(id);
    victims.push_back(id);
    core_gain += victim.spec().cores;
    if (!suspended_holds_memory_) memory_gain += victim.spec().memory_mb;
  }
  return machine.cores_free() + core_gain >= spec.cores &&
         machine.memory_free_mb() + memory_gain >= spec.memory_mb;
}

PlaceResult PhysicalPool::TryPlace(Job job, Ticks now, bool allow_queue,
                                   bool require_online) {
  PlaceResult result;
  const workload::JobSpec& spec = job.spec();

  // Step 0 (paper §2.1 last clause): refuse jobs no machine could ever run
  // (with require_online: no machine could run *while the outage lasts*).
  if (!HasEligibleMachine(spec, require_online)) {
    result.outcome = PlaceOutcome::kNotEligible;
    return result;
  }

  // Step 1: first eligible machine with free resources — the smallest-id
  // online machine the job fits, straight from the free-capacity index.
  const MachineId fit = free_index_.FirstFit(spec.cores, spec.memory_mb);
  if (fit.valid()) {
    const Machine machine = machines_[fit.value()];
    StartOn(job, machine, now);
    result.outcome = PlaceOutcome::kStarted;
    result.machine = machine.id();
    return result;
  }

  // Step 2: preempt lower-priority work on the first machine where that
  // creates room. Only machines whose lowest running priority is below the
  // job's can yield anything (step 1 already proved nothing fits for free),
  // so OR the id-ordered preemptible bitmaps below the job's priority word
  // by word — visiting exactly the viable machines, in the original scan
  // order. The target is located read-only first: suspensions mutate the
  // registry the merge iterates.
  MachineId target;
  {
    preempt_scratch_.clear();
    for (auto it = preemptible_.begin();
         it != preemptible_.end() && it->first < job.priority(); ++it) {
      if (it->second.count > 0) preempt_scratch_.push_back(&it->second);
    }
    for (std::size_t word = 0;
         word < machine_words_ && !target.valid() &&
         !preempt_scratch_.empty();
         ++word) {
      std::uint64_t merged = 0;
      for (const PriorityBitmap* bitmap : preempt_scratch_) {
        merged |= bitmap->bits[word];
      }
      for (std::uint64_t rest = merged; rest != 0; rest &= rest - 1) {
        const MachineId::ValueType id =
            static_cast<MachineId::ValueType>(word * 64) +
            static_cast<MachineId::ValueType>(std::countr_zero(rest));
        const Machine machine = machines_[id];
        if (CouldPreemptFor(machine, spec, job.priority())) {
          target = machine.id();
          break;
        }
      }
    }
  }
  if (target.valid()) {
    Machine machine = machines_[target.value()];
    std::vector<JobId> victims;
    NETBATCH_CHECK(
        PreemptionPlan(machine, spec, job.priority(), victims) &&
            !victims.empty(),
        "preemption feasibility filter disagreed with the plan");
    for (JobId victim_id : victims) {
      Job victim = jobs_->at(victim_id);
      RemoveRunningIndexed(machine, victim);
      machine.Release(victim.spec().cores,
                      suspended_holds_memory_ ? 0 : victim.spec().memory_mb);
      machine.AddSuspended(victim_id);
      ++suspended_count_;
      busy_cores_ -= victim.spec().cores;
      victim.OnSuspended(now);
      ReindexFree(machine);
      if (observer_ != nullptr) observer_->OnJobSuspended(victim);
    }
    StartOn(job, machine, now);
    result.outcome = PlaceOutcome::kStarted;
    result.machine = machine.id();
    result.suspended = std::move(victims);
    return result;
  }

  // Step 3: wait in the pool queue (unless the caller is probing for an
  // immediate start).
  if (!allow_queue) {
    result.outcome = PlaceOutcome::kNotEligible;
    return result;
  }
  Enqueue(job, now);
  result.outcome = PlaceOutcome::kQueued;
  return result;
}

void PhysicalPool::SuspendRunning(Job job, Ticks now) {
  NETBATCH_CHECK(job.state() == JobState::kRunning && job.pool() == id_,
                 "suspending a job not running in this pool");
  Machine machine = MachineById(job.machine());
  RemoveRunningIndexed(machine, job);
  machine.Release(job.spec().cores,
                  suspended_holds_memory_ ? 0 : job.spec().memory_mb);
  machine.AddSuspended(job.id());
  ++suspended_count_;
  busy_cores_ -= job.spec().cores;
  job.OnSuspended(now);
  ReindexFree(machine);
  if (observer_ != nullptr) observer_->OnJobSuspended(job);
}

bool PhysicalPool::TryResume(Job job, Ticks now) {
  NETBATCH_CHECK(job.state() == JobState::kSuspended && job.pool() == id_,
                 "resuming a job not suspended in this pool");
  Machine machine = MachineById(job.machine());
  if (!machine.online()) return false;
  if (!machine.Fits(job.spec().cores,
                    suspended_holds_memory_ ? 0 : job.spec().memory_mb)) {
    return false;
  }
  ResumeOn(job, machine, now);
  return true;
}

void PhysicalPool::RemoveFromQueue(JobId job) {
  // Contains first: an id the arena has never seen must fail as a queue
  // miss, not as at()'s unknown-id abort. The link tag alone cannot tell
  // this pool's queue from another pool's (they share one arena), so the
  // job's own state and pool must agree too.
  NETBATCH_CHECK(jobs_->Contains(job), "job not in this wait queue");
  const Job waiting = jobs_->at(job);
  NETBATCH_CHECK(waiting.state() == JobState::kWaiting && waiting.pool() == id_,
                 "job not in this wait queue");
  UnlinkWaiting(waiting);
}

MachineId PhysicalPool::DetachSuspended(Job job) {
  NETBATCH_CHECK(job.state() == JobState::kSuspended,
                 "detaching a non-suspended job");
  Machine machine = MachineById(job.machine());
  machine.RemoveSuspended(job.id());
  --suspended_count_;
  if (suspended_holds_memory_) {
    machine.Release(0, job.spec().memory_mb);
    ReindexFree(machine);
  }
  return machine.id();
}

JobId PhysicalPool::ScheduleNextOn(Machine machine, Ticks now) {
  // Best suspended job parked on this machine that fits again. Equal
  // priorities resume the longest-suspended job first (total accumulated
  // suspension, settled spells plus the current one) — breaking ties by
  // registry order would make the suspension-time tail (Fig. 2) an artifact
  // of insertion order and starve repeatedly-preempted jobs.
  JobId best_suspended;
  workload::Priority best_suspended_prio = 0;
  Ticks best_suspended_for = -1;
  for (JobId id : machine.suspended()) {
    const Job& job = jobs_->at(id);
    const std::int32_t need_cores = job.spec().cores;
    const std::int64_t need_mem =
        suspended_holds_memory_ ? 0 : job.spec().memory_mb;
    if (!machine.Fits(need_cores, need_mem)) continue;
    // suspend_ticks() settles only on resume; the current spell runs from
    // the suspension transition to now.
    const Ticks suspended_for =
        job.suspend_ticks() + (now - job.last_transition_time());
    if (!best_suspended.valid() || job.priority() > best_suspended_prio ||
        (job.priority() == best_suspended_prio &&
         suspended_for > best_suspended_for)) {
      best_suspended = id;
      best_suspended_prio = job.priority();
      best_suspended_for = suspended_for;
    }
  }

  // Best waiting job in the pool queue that fits this machine. Entries are
  // ordered (priority desc, FIFO), so the first fit is the best fit.
  JobId best_waiting;
  workload::Priority best_waiting_prio = 0;
  // Gate on both demand minima: a machine with idle cores but exhausted
  // memory (or vice versa) cannot start any waiting job, so don't walk the
  // queue for it. The minima come from different jobs, so passing the gate
  // doesn't guarantee a fit — it only prunes certain misses.
  std::uint32_t best_waiting_slot = JobArena::kNoSlot;
  if (waiting_count_ > 0 && machine.cores_free() >= MinWaitingCores() &&
      machine.memory_free_mb() >= MinWaitingMemoryFloor()) {
    for (const WaitClass& cls : wait_classes_) {
      for (std::uint32_t slot = cls.head; slot != JobArena::kNoSlot;
           slot = jobs_->NextOnList(slot)) {
        const workload::JobSpec& spec = Job(jobs_, slot).spec();
        if (machine.Fits(spec.cores, spec.memory_mb)) {
          best_waiting_slot = slot;
          best_waiting = spec.id;
          best_waiting_prio = cls.priority;
          break;
        }
      }
      if (best_waiting.valid()) break;
    }
  }

  // With host-level resumption, the machine's own suspended work resumes
  // before anything is dispatched from the pool queue; otherwise strict
  // priority order applies (suspended wins ties: resuming loses no work).
  if (best_suspended.valid() &&
      (local_resume_first_ || !best_waiting.valid() ||
       best_suspended_prio >= best_waiting_prio)) {
    ResumeOn(jobs_->at(best_suspended), machine, now);
    return best_suspended;
  }
  if (best_waiting.valid()) {
    const Job job(jobs_, best_waiting_slot);
    UnlinkWaiting(job);
    StartOn(job, machine, now);
    return best_waiting;
  }
  return JobId();
}

std::vector<JobId> PhysicalPool::Backfill(MachineId machine_id, Ticks now) {
  Machine machine = MachineById(machine_id);
  if (!machine.online()) return {};
  std::vector<JobId> scheduled;
  while (true) {
    const JobId job = ScheduleNextOn(machine, now);
    if (!job.valid()) break;
    scheduled.push_back(job);
  }
  return scheduled;
}

std::vector<JobId> PhysicalPool::EvictMachine(MachineId machine_id,
                                              Ticks now) {
  (void)now;
  Machine machine = MachineById(machine_id);
  NETBATCH_CHECK(machine.online(), "evicting an already-offline machine");
  std::vector<JobId> evicted;
  while (!machine.running().empty()) {
    const JobId id = machine.running().front();
    const Job job = jobs_->at(id);
    RemoveRunningIndexed(machine, job);
    machine.Release(job.spec().cores, job.spec().memory_mb);
    busy_cores_ -= job.spec().cores;
    evicted.push_back(id);
  }
  while (!machine.suspended().empty()) {
    const JobId id = machine.suspended().front();
    const Job job = jobs_->at(id);
    machine.RemoveSuspended(id);
    --suspended_count_;
    if (suspended_holds_memory_) machine.Release(0, job.spec().memory_mb);
    evicted.push_back(id);
  }
  machine.set_online(false);
  capacity_classes_.OnOnlineChanged(machine, false);
  ReindexFree(machine);  // offline: drops out of the free-capacity index
  return evicted;
}

std::vector<JobId> PhysicalPool::RepairMachine(MachineId machine_id,
                                               Ticks now) {
  Machine machine = MachineById(machine_id);
  NETBATCH_CHECK(!machine.online(), "repairing an online machine");
  machine.set_online(true);
  capacity_classes_.OnOnlineChanged(machine, true);
  ReindexFree(machine);
  return Backfill(machine_id, now);
}

std::vector<JobId> PhysicalPool::KillJob(Job job, Ticks now,
                                         bool complete_by_twin) {
  NETBATCH_CHECK(job.pool() == id_, "killing a job parked in another pool");
  const auto finish = [&](Job victim) {
    if (complete_by_twin) {
      victim.OnCompletedByTwin(now);
    } else {
      victim.OnKilled(now);
    }
  };
  std::vector<JobId> scheduled;
  switch (job.state()) {
    case JobState::kRunning: {
      Machine machine = MachineById(job.machine());
      RemoveRunningIndexed(machine, job);
      machine.Release(job.spec().cores, job.spec().memory_mb);
      busy_cores_ -= job.spec().cores;
      ReindexFree(machine);
      finish(job);
      scheduled = Backfill(machine.id(), now);
      break;
    }
    case JobState::kWaiting:
      RemoveFromQueue(job.id());
      finish(job);
      break;
    case JobState::kSuspended: {
      const MachineId machine = DetachSuspended(job);
      finish(job);
      scheduled = Backfill(machine, now);
      break;
    }
    default:
      NETBATCH_CHECK(false, "killing a job in a terminal or transit state");
  }
  return scheduled;
}

std::vector<JobId> PhysicalPool::OnJobCompleted(Job job, Ticks now) {
  NETBATCH_CHECK(job.state() == JobState::kRunning,
                 "completing a non-running job");
  Machine machine = MachineById(job.machine());
  RemoveRunningIndexed(machine, job);
  machine.Release(job.spec().cores, job.spec().memory_mb);
  busy_cores_ -= job.spec().cores;
  ReindexFree(machine);
  job.OnCompleted(now);
  return Backfill(machine.id(), now);
}

void PhysicalPool::RestoreRunning(Job job) {
  NETBATCH_CHECK(job.state() == JobState::kRunning && job.pool() == id_,
                 "restore-running job is not running in this pool");
  Machine machine = MachineById(job.machine());
  machine.Claim(job.spec().cores, job.spec().memory_mb);
  AddRunningIndexed(machine, job);
  ReindexFree(machine);
  busy_cores_ += job.spec().cores;
}

void PhysicalPool::RestoreSuspended(Job job) {
  NETBATCH_CHECK(job.state() == JobState::kSuspended && job.pool() == id_,
                 "restore-suspended job is not suspended in this pool");
  Machine machine = MachineById(job.machine());
  if (suspended_holds_memory_) {
    machine.Claim(0, job.spec().memory_mb);
  }
  machine.AddSuspended(job.id());
  ++suspended_count_;
  ReindexFree(machine);
}

void PhysicalPool::RestoreWaiting(Job job) {
  NETBATCH_CHECK(job.state() == JobState::kWaiting && job.pool() == id_,
                 "restore-waiting job is not waiting in this pool");
  // Tail appends in snapshot order (the snapshot emits the queue in
  // priority-desc FIFO order) rebuild the exact relative order.
  LinkWaiting(job);
}

void PhysicalPool::RestoreOffline(MachineId machine_id) {
  Machine machine = MachineById(machine_id);
  NETBATCH_CHECK(machine.online(), "machine restored offline twice");
  machine.set_online(false);
  capacity_classes_.OnOnlineChanged(machine, false);
  ReindexFree(machine);
}

void PhysicalPool::AppendJobsInRestoreOrder(std::vector<JobId>& out) const {
  for (const Machine machine : machines_) {
    for (const JobId id : machine.running()) out.push_back(id);
    for (const JobId id : machine.suspended()) out.push_back(id);
  }
  for (const WaitClass& cls : wait_classes_) {
    for (const JobId id : JobList(jobs_, cls.head, cls.count)) {
      out.push_back(id);
    }
  }
}

void PhysicalPool::AppendOfflineMachines(std::vector<MachineId>& out) const {
  for (const Machine machine : machines_) {
    if (!machine.online()) out.push_back(machine.id());
  }
}

void PhysicalPool::AuditInvariants(Ticks now, InvariantSink& sink) const {
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) sink.Report(InvariantViolation{now, id_, what, MachineId()});
  };
  const auto check_machine = [&](bool ok, const std::string& what,
                                 MachineId machine) {
    if (!ok) sink.Report(InvariantViolation{now, id_, what, machine});
  };
  std::int64_t busy = 0;
  std::size_t suspended = 0;
  std::size_t with_running = 0;
  for (const Machine& machine : machines_) {
    std::int32_t cores_claimed = 0;
    std::int64_t memory_claimed = 0;
    std::int32_t lowest_priority = Machine::kNoRunningPriority;
    for (JobId id : machine.running()) {
      const Job& job = jobs_->at(id);
      check(job.state() == JobState::kRunning,
            "running registry holds non-running job");
      check(job.machine() == machine.id(), "machine mismatch");
      cores_claimed += job.spec().cores;
      memory_claimed += job.spec().memory_mb;
      lowest_priority = std::min(lowest_priority, job.priority());
    }
    for (JobId id : machine.suspended()) {
      const Job& job = jobs_->at(id);
      check(job.state() == JobState::kSuspended,
            "suspended registry holds non-suspended job");
      if (suspended_holds_memory_) memory_claimed += job.spec().memory_mb;
    }
    check(machine.cores_free() == machine.cores_total() - cores_claimed,
          "core accounting out of sync");
    check(machine.memory_free_mb() ==
              machine.memory_total_mb() - memory_claimed,
          "memory accounting out of sync");
    // Running-class summary: lowest priority and total reclaimable cores
    // must match the running registry it aggregates.
    check_machine(machine.lowest_running_priority() == lowest_priority,
                  "running-class summary priority out of sync", machine.id());
    std::int32_t class_cores = 0;
    std::int64_t class_memory = 0;
    machine.ReclaimableBelow(Machine::kNoRunningPriority, class_cores,
                             class_memory);
    check_machine(class_cores == cores_claimed,
                  "running-class summary cores out of sync", machine.id());
    // Preemptible registry: a machine appears exactly under its lowest
    // running priority, and only when something runs on it.
    if (lowest_priority != Machine::kNoRunningPriority) {
      ++with_running;
      const auto it = preemptible_.find(lowest_priority);
      const std::size_t word = machine.id().value() / 64;
      const std::uint64_t bit = std::uint64_t{1}
                                << (machine.id().value() % 64);
      check_machine(it != preemptible_.end() && !it->second.bits.empty() &&
                        (it->second.bits[word] & bit) != 0,
                    "preemptible registry missing machine", machine.id());
    }
    busy += cores_claimed;
    suspended += machine.suspended().size();
  }
  std::size_t preemptible_entries = 0;
  for (const auto& [priority, bitmap] : preemptible_) {
    std::size_t members = 0;
    for (const std::uint64_t word : bitmap.bits) {
      members += static_cast<std::size_t>(std::popcount(word));
    }
    check(members == bitmap.count, "preemptible class count out of sync");
    preemptible_entries += members;
  }
  check(preemptible_entries == with_running,
        "preemptible registry holds stray machines");
  free_index_.Audit(machines_, [&](MachineId machine, const char* what) {
    check_machine(false, what, machine);
  });
  capacity_classes_.Audit(
      machines_, [&](const char* what) { check(false, what); });
  check(busy == busy_cores_, "pool busy-core counter out of sync");
  check(suspended == suspended_count_, "pool suspended counter out of sync");
  std::vector<std::int32_t> cores_count(waiting_cores_count_.size(), 0);
  std::vector<std::int32_t> memory_count(waiting_memory_count_.size(), 0);
  std::size_t waiting = 0;
  for (std::size_t c = 0; c < wait_classes_.size(); ++c) {
    const WaitClass& cls = wait_classes_[c];
    check(c == 0 || wait_classes_[c - 1].priority > cls.priority,
          "wait classes out of priority order");
    std::uint32_t members = 0;
    std::uint32_t prev = JobArena::kNoSlot;
    for (std::uint32_t slot = cls.head; slot != JobArena::kNoSlot;
         slot = jobs_->NextOnList(slot)) {
      const Job job(jobs_, slot);
      check(jobs_->OnList(slot, JobArena::kWaitingList, cls.head) &&
                jobs_->PrevOnList(slot) == prev,
            "wait queue links out of sync");
      check(job.state() == JobState::kWaiting,
            "wait queue holds non-waiting job");
      check(job.pool() == id_, "wait queue holds foreign job");
      check(job.priority() == cls.priority,
            "wait queue job filed under the wrong priority");
      const std::size_t cores = static_cast<std::size_t>(job.spec().cores);
      if (cores < cores_count.size()) ++cores_count[cores];
      ++memory_count[MemoryBucket(job.spec().memory_mb)];
      prev = slot;
      ++members;
    }
    check(members == cls.count && prev == cls.tail,
          "wait class count or tail out of sync");
    waiting += members;
  }
  check(waiting == waiting_count_, "wait queue length out of sync");
  check(cores_count == waiting_cores_count_ &&
            memory_count == waiting_memory_count_,
        "wait-queue demand summaries out of sync");
}

void PhysicalPool::CheckInvariants() const {
  FailFastSink sink;
  AuditInvariants(0, sink);
}

}  // namespace netbatch::cluster
