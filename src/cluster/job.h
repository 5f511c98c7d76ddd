// The runtime state of one job inside the simulation, stored column-wise.
//
// Job state lives in a JobArena: one parallel vector ("column") per field,
// indexed by a dense slot. `Job` is a 16-byte view — {arena, slot} — with
// the exact accessor/transition API the old fat object had, so scheduling
// code reads naturally while audits, sampling, and metrics stream cache-line
//-packed columns instead of chasing per-object pointers. Views are values:
// copying one aliases the same slot, and binding `const Job&` to an arena
// lookup gives the usual read-only discipline (mutators are non-const).
//
// Job owns the lifecycle accounting behind every paper metric:
//   completion time  = completion - submit
//   wait time        = total time in (virtual or physical) queues   (c1)
//   suspend time     = total time in suspended state                (c2)
//   resched waste    = execution progress discarded by restarts     (c3)
// and the identity  completion - submit = wait + suspend + executed
// (+ in-transit restart overhead), which tests assert.
//
// The arena also owns the id index (dense vector for small ids, hash map
// for sparse ids past the dense cap), the guarded reclamation free-list
// shared by both id ranges, and the intrusive next/prev links that thread
// each machine's running/suspended registries and each pool's wait queue
// through job slots — so after Reserve() there is no per-job or
// per-membership allocation at all.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/event_queue.h"
#include "workload/job_spec.h"

namespace netbatch::cluster {

enum class JobState {
  kPending,    // submitted, not yet accepted by any pool queue/machine
  kWaiting,    // in a physical pool's wait queue
  kRunning,    // executing on a machine
  kSuspended,  // preempted, parked on its machine
  kInTransit,  // being moved to another pool (restart overhead)
  kCompleted,
  kRejected,   // no candidate pool has an eligible machine
  kKilled,     // duplicate cancelled because its twin finished first
};

const char* ToString(JobState state);

class JobArena;
class JobList;

class Job {
 public:
  Job(JobArena* arena, std::uint32_t slot) : arena_(arena), slot_(slot) {}

  const workload::JobSpec& spec() const;
  JobId id() const;
  workload::Priority priority() const;
  JobState state() const;

  // --- location ---------------------------------------------------------
  PoolId pool() const;
  MachineId machine() const;
  void set_pool(PoolId pool);

  // --- lifecycle transitions (engine calls these) ------------------------
  // Every transition takes the current simulated time and keeps the
  // accounting identity intact.
  void OnSubmitted(Ticks now);
  void OnEnqueued(Ticks now, PoolId pool);
  void OnStarted(Ticks now, MachineId machine, double speed);
  void OnSuspended(Ticks now);
  void OnResumed(Ticks now);
  void OnCompleted(Ticks now);
  void OnRejected(Ticks now);
  // Restart: discards un-checkpointed progress (counted as rescheduling
  // waste) and leaves the job in transit to `target` pool. The paper's
  // baseline restarts "from the beginning" (checkpoint_interval = 0);
  // a positive interval models periodic checkpointing (cf. Condor in the
  // paper's related work): progress is kept in multiples of the interval,
  // in work units at unit speed.
  void OnRestart(Ticks now, PoolId target, Ticks checkpoint_interval = 0);
  // Duplication extension (paper §5): terminal transitions for the
  // twin-race. OnKilled cancels this job because its twin won; valid from
  // any non-terminal state. OnCompletedByTwin finishes this job using its
  // twin's result, settling whatever state it was parked in.
  void OnKilled(Ticks now);
  void OnCompletedByTwin(Ticks now);

  // --- execution progress -------------------------------------------------
  // Work left, in ticks at unit speed.
  Ticks remaining_work() const;
  // Speed of the machine the job is (or was last) running on.
  double run_speed() const;
  // Ticks of wall-clock needed to finish on a machine with `speed`.
  Ticks TicksToCompletion(double speed) const {
    const auto ticks = static_cast<Ticks>(
        std::ceil(static_cast<double>(remaining_work()) / speed));
    return ticks > 0 ? ticks : 1;
  }

  // --- accounting ---------------------------------------------------------
  Ticks submit_time() const { return spec().submit_time; }
  Ticks completion_time() const;
  Ticks wait_ticks() const;
  Ticks suspend_ticks() const;
  Ticks executed_ticks() const;
  // Wall-clock run time of the current attempt (the progress a restart
  // would discard); used by least-waste preemption-victim selection.
  Ticks attempt_executed_ticks() const;
  Ticks resched_waste_ticks() const;
  Ticks transit_ticks() const;
  std::int32_t suspend_count() const;
  std::int32_t restart_count() const;
  bool ever_suspended() const { return suspend_count() > 0; }

  // --- duplication extension ----------------------------------------------
  // A duplicate is a shadow copy racing its original in another pool; it is
  // excluded from job-level metrics (its outcome is credited to the
  // original, its discarded execution to the original's rescheduling waste).
  bool is_duplicate() const;
  void MarkDuplicateOf(JobId original);
  JobId twin() const;
  void set_twin(JobId twin);
  // Wall-clock execution discarded when this job's race (or a killed twin)
  // resolved; the metrics layer folds it into rescheduling waste.
  Ticks extra_waste_ticks() const;
  void AddExtraWaste(Ticks waste);

  // When the current state was entered (observers use this as the event
  // timestamp, since observer hooks carry no clock).
  Ticks last_transition_time() const;

  // --- event bookkeeping ----------------------------------------------------
  // Generation guard: every transition bumps it. Typed events carry the
  // generation current when they were scheduled as their stamp, so the
  // dispatcher invalidates stale completion / timeout / delivery events
  // with the single integer compare below — an unchanged generation also
  // implies an unchanged state, since no transition leaves it untouched.
  std::uint64_t generation() const;
  bool GenerationIs(std::uint64_t stamp) const { return generation() == stamp; }
  // Slot-reuse guard (JobArena reclamation): a freshly constructed job
  // occupying a reclaimed slot starts its generation above every stamp the
  // slot's previous occupant ever handed out, so a stale timer for the old
  // job can never match the new one.
  void EnsureGenerationAtLeast(std::uint64_t floor);
  // Handle of the in-flight completion event, kept so preemption/eviction/
  // twin-resolution can remove it from the heap eagerly (memory stays
  // proportional to live events; staleness would be caught anyway).
  sim::EventSeq pending_event() const;
  void set_pending_event(sim::EventSeq seq);

  // Arena plumbing (benchmarks and column-walking audits).
  std::uint32_t slot() const { return slot_; }

 private:
  void SettleWaitingTime(Ticks now);
  void SettleRunProgress(Ticks now);
  void SettleAnyState(Ticks now);
  void Transition(JobState next);

  JobArena* arena_;
  std::uint32_t slot_;
};

// Struct-of-arrays storage for every job in a simulation or serving core.
//
// Reclamation (daemon path only): a simulation retains every job until the
// run ends — metrics walk the full table — but a long-running daemon must
// reclaim terminal jobs or grow without bound. EnableReclamation() turns on
// guarded slot reuse: Erase(id) frees the id's index entry (dense or
// sparse — both ranges feed the same free list) and parks the slot; the
// next Create reuses it, seeding the new job's generation above every stamp
// the old occupant handed out so stale timers can never match the reused
// slot. The simulator never enables this, so sweep artifacts are untouched.
// With reclamation on, iteration may still visit erased-but-not-yet-reused
// slots (stale terminal jobs); the cluster-wide terminal-ledger audit is
// skipped in that mode.
class JobArena {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  Job Create(workload::JobSpec spec) {
    const JobId id = spec.id;
    if (reclaim_enabled_ && !free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      const std::uint64_t generation_floor = generation_[slot] + 1;
      ResetSlot(slot, std::move(spec));
      if (generation_[slot] < generation_floor) {
        generation_[slot] = generation_floor;
      }
      IndexSlot(id, slot);
      return Job(this, slot);
    }
    const auto slot = static_cast<std::uint32_t>(spec_.size());
    IndexSlot(id, slot);
    AppendSlot(std::move(spec));
    return Job(this, slot);
  }

  // Views are values, so the const overload hands out the same (mutable)
  // view type; read-only use is expressed by binding `const Job&` at the
  // call site, exactly as with the old object table.
  Job at(JobId id) const {
    return Job(const_cast<JobArena*>(this), SlotOf(id));
  }

  // Whether `id` names a job in this arena. The serving layer uses this to
  // turn bad client ids into error responses instead of at()'s abort.
  bool Contains(JobId id) const {
    const JobId::ValueType v = id.value();
    if (v < kDenseCap) return v < dense_.size() && dense_[v] != kNoSlot;
    return sparse_.contains(id);
  }

  // Pre-sizes the id index AND every column for `n` jobs with ids 0..n-1
  // (the common trace shape), so nothing — columns included — reallocates
  // mid-run: after Reserve(n), creating up to n jobs performs no heap
  // allocation at all (specs with candidate-pool lists aside). Safe to call
  // with jobs already present.
  void Reserve(std::size_t n) {
    if (n < kDenseCap && n > dense_.size()) dense_.resize(n, kNoSlot);
    spec_.reserve(n);
    state_.reserve(n);
    pool_.reserve(n);
    machine_.reserve(n);
    run_speed_.reserve(n);
    remaining_work_.reserve(n);
    state_since_.reserve(n);
    completion_time_.reserve(n);
    attempt_executed_.reserve(n);
    attempt_work_.reserve(n);
    wait_ticks_.reserve(n);
    suspend_ticks_.reserve(n);
    executed_ticks_.reserve(n);
    resched_waste_ticks_.reserve(n);
    transit_ticks_.reserve(n);
    suspend_count_.reserve(n);
    restart_count_.reserve(n);
    is_duplicate_.reserve(n);
    twin_.reserve(n);
    extra_waste_ticks_.reserve(n);
    generation_.reserve(n);
    pending_event_.reserve(n);
    link_next_.reserve(n);
    link_prev_.reserve(n);
    link_list_.reserve(n);
  }

  // --- reclamation (daemon path only; see class comment) --------------------

  void EnableReclamation() { reclaim_enabled_ = true; }
  bool reclaim_enabled() const { return reclaim_enabled_; }

  // Frees `id`'s slot for reuse by a later Create. The slot's columns stay
  // intact (views live in the current dispatch remain readable) until the
  // slot is actually reused; callers must only erase terminal jobs after
  // the dispatch that retired them has fully unwound.
  void Erase(JobId id) {
    NETBATCH_CHECK(reclaim_enabled_, "Erase without EnableReclamation");
    std::uint32_t slot = kNoSlot;
    const JobId::ValueType v = id.value();
    if (v < dense_.size()) {
      slot = dense_[v];
      NETBATCH_CHECK(slot != kNoSlot, "erasing unknown job id");
      dense_[v] = kNoSlot;
    } else {
      slot = SparseSlot(id);
      sparse_.erase(id);
    }
    free_slots_.push_back(slot);
    ++reclaimed_count_;
  }

  // Generation floors of the parked free slots, bottom of the reuse stack
  // first — the serializable form of the free list. Slot indices mean
  // nothing across processes; only the floors and their LIFO order must
  // survive a snapshot, so that a WAL-replayed Create reuses a slot at
  // exactly the generation the live run's Create handed out (stale-timer
  // stamps in replayed records would otherwise never match).
  void AppendFreeSlotGenerations(std::vector<std::uint64_t>& out) const {
    for (const std::uint32_t slot : free_slots_) {
      out.push_back(generation_[slot]);
    }
  }

  // Re-creates one parked slot carrying only its generation floor, in the
  // same order AppendFreeSlotGenerations emitted (bottom first) so the
  // restored stack pops in the live order. The slot is unreachable by id
  // (its spec holds the invalid sentinel) until a Create reuses it.
  void RestoreFreeSlot(std::uint64_t generation) {
    NETBATCH_CHECK(reclaim_enabled_,
                   "RestoreFreeSlot without EnableReclamation");
    const auto slot = static_cast<std::uint32_t>(spec_.size());
    AppendSlot(workload::JobSpec{});
    state_[slot] = JobState::kKilled;  // shaped like a genuinely erased slot
    generation_[slot] = generation;
    free_slots_.push_back(slot);
  }

  // Jobs currently reachable by id (size() minus free slots).
  std::size_t live_size() const { return spec_.size() - free_slots_.size(); }
  std::uint64_t reclaimed_count() const { return reclaimed_count_; }
  std::size_t free_slot_count() const { return free_slots_.size(); }

  std::size_t size() const { return spec_.size(); }

  // Iteration yields views over every slot in creation order — with
  // reclamation on this includes erased-but-not-reused slots, matching the
  // old deque semantics.
  class const_iterator {
   public:
    const_iterator(const JobArena* arena, std::uint32_t slot)
        : arena_(arena), slot_(slot) {}
    Job operator*() const {
      return Job(const_cast<JobArena*>(arena_), slot_);
    }
    const_iterator& operator++() {
      ++slot_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return slot_ == other.slot_;
    }
    bool operator!=(const const_iterator& other) const {
      return slot_ != other.slot_;
    }

   private:
    const JobArena* arena_;
    std::uint32_t slot_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<std::uint32_t>(spec_.size()));
  }

  // --- intrusive lists ------------------------------------------------------
  // Every job sits on at most one list at a time — a machine's running or
  // suspended registry, or a pool's wait queue — threaded through the link
  // columns. The list's owner keeps only its head/tail slots (and any
  // count it wants); the arena does the surgery. Appends go to the tail and
  // unlinks keep the remaining order, so a list walks in arrival order.
  // `link_list_` tags which kind of list a slot is on.
  static constexpr std::uint8_t kNoList = 0;
  static constexpr std::uint8_t kRunningList = 1;
  static constexpr std::uint8_t kSuspendedList = 2;
  static constexpr std::uint8_t kWaitingList = 3;

  // Whether `slot` is on a `list`-kind list headed by `head`. A mid-list
  // slot is only reachable from the head that owns it, so this is the cheap
  // whole-list membership guard; callers that own several lists of one
  // kind confirm the owner from the job's own columns.
  bool OnList(std::uint32_t slot, std::uint8_t list,
              std::uint32_t head) const {
    return link_list_[slot] == list &&
           (link_prev_[slot] != kNoSlot || head == slot);
  }

  void LinkTail(std::uint32_t slot, std::uint8_t list, std::uint32_t& head,
                std::uint32_t& tail) {
    NETBATCH_CHECK(link_list_[slot] == kNoList,
                   "job already on an intrusive list");
    link_prev_[slot] = tail;
    link_next_[slot] = kNoSlot;
    link_list_[slot] = list;
    if (tail == kNoSlot) {
      head = slot;
    } else {
      link_next_[tail] = slot;
    }
    tail = slot;
  }

  // Callers check membership (OnList) first.
  void Unlink(std::uint32_t slot, std::uint32_t& head, std::uint32_t& tail) {
    const std::uint32_t prev = link_prev_[slot];
    const std::uint32_t next = link_next_[slot];
    if (prev == kNoSlot) {
      head = next;
    } else {
      link_next_[prev] = next;
    }
    if (next == kNoSlot) {
      tail = prev;
    } else {
      link_prev_[next] = prev;
    }
    link_next_[slot] = kNoSlot;
    link_prev_[slot] = kNoSlot;
    link_list_[slot] = kNoList;
  }

  std::uint32_t NextOnList(std::uint32_t slot) const {
    return link_next_[slot];
  }
  std::uint32_t PrevOnList(std::uint32_t slot) const {
    return link_prev_[slot];
  }

  // --- checkpoint/restore (service layer) -----------------------------------
  // Column image of one job: everything AppendSlot initializes except the
  // spec (carried separately), the pending simulator event (the daemon uses
  // timers, not the event heap) and the intrusive list links (the pool
  // restore rebuilds those).
  struct RestoreImage {
    JobState state = JobState::kPending;
    PoolId pool;
    MachineId machine;
    double run_speed = 1.0;
    Ticks remaining_work = 0;
    Ticks state_since = 0;
    Ticks completion_time = -1;
    Ticks attempt_executed = 0;
    Ticks attempt_work = 0;
    Ticks wait_ticks = 0;
    Ticks suspend_ticks = 0;
    Ticks executed_ticks = 0;
    Ticks resched_waste_ticks = 0;
    Ticks transit_ticks = 0;
    std::int32_t suspend_count = 0;
    std::int32_t restart_count = 0;
    std::uint8_t is_duplicate = 0;
    JobId twin;
    Ticks extra_waste_ticks = 0;
    std::uint64_t generation = 0;
  };

  RestoreImage CaptureImage(JobId id) const {
    const std::uint32_t slot = SlotOf(id);
    RestoreImage image;
    image.state = state_[slot];
    image.pool = pool_[slot];
    image.machine = machine_[slot];
    image.run_speed = run_speed_[slot];
    image.remaining_work = remaining_work_[slot];
    image.state_since = state_since_[slot];
    image.completion_time = completion_time_[slot];
    image.attempt_executed = attempt_executed_[slot];
    image.attempt_work = attempt_work_[slot];
    image.wait_ticks = wait_ticks_[slot];
    image.suspend_ticks = suspend_ticks_[slot];
    image.executed_ticks = executed_ticks_[slot];
    image.resched_waste_ticks = resched_waste_ticks_[slot];
    image.transit_ticks = transit_ticks_[slot];
    image.suspend_count = suspend_count_[slot];
    image.restart_count = restart_count_[slot];
    image.is_duplicate = is_duplicate_[slot];
    image.twin = twin_[slot];
    image.extra_waste_ticks = extra_waste_ticks_[slot];
    image.generation = generation_[slot];
    return image;
  }

  // Re-materializes a job from a captured image into a fresh arena slot.
  // The generation is written verbatim — recovery runs in a new process,
  // so no stale timer stamps from a previous occupant can exist — keeping
  // WAL-replayed timer records matchable against the restored job.
  Job RestoreJob(workload::JobSpec spec, const RestoreImage& image) {
    Job job = Create(std::move(spec));
    const std::uint32_t slot = job.slot();
    state_[slot] = image.state;
    pool_[slot] = image.pool;
    machine_[slot] = image.machine;
    run_speed_[slot] = image.run_speed;
    remaining_work_[slot] = image.remaining_work;
    state_since_[slot] = image.state_since;
    completion_time_[slot] = image.completion_time;
    attempt_executed_[slot] = image.attempt_executed;
    attempt_work_[slot] = image.attempt_work;
    wait_ticks_[slot] = image.wait_ticks;
    suspend_ticks_[slot] = image.suspend_ticks;
    executed_ticks_[slot] = image.executed_ticks;
    resched_waste_ticks_[slot] = image.resched_waste_ticks;
    transit_ticks_[slot] = image.transit_ticks;
    suspend_count_[slot] = image.suspend_count;
    restart_count_[slot] = image.restart_count;
    is_duplicate_[slot] = image.is_duplicate;
    twin_[slot] = image.twin;
    extra_waste_ticks_[slot] = image.extra_waste_ticks;
    generation_[slot] = image.generation;
    return job;
  }

  // Resident bytes of every column plus the id index and free list —
  // capacity, not size, so reserved-but-unused slots are charged too.
  // Shallow: a spec's candidate-pool vector is not followed.
  std::size_t MemoryBytes() const {
    return ColumnBytes(spec_) + ColumnBytes(state_) + ColumnBytes(pool_) +
           ColumnBytes(machine_) + ColumnBytes(run_speed_) +
           ColumnBytes(remaining_work_) + ColumnBytes(state_since_) +
           ColumnBytes(completion_time_) + ColumnBytes(attempt_executed_) +
           ColumnBytes(attempt_work_) + ColumnBytes(wait_ticks_) +
           ColumnBytes(suspend_ticks_) + ColumnBytes(executed_ticks_) +
           ColumnBytes(resched_waste_ticks_) + ColumnBytes(transit_ticks_) +
           ColumnBytes(suspend_count_) + ColumnBytes(restart_count_) +
           ColumnBytes(is_duplicate_) + ColumnBytes(twin_) +
           ColumnBytes(extra_waste_ticks_) + ColumnBytes(generation_) +
           ColumnBytes(pending_event_) + ColumnBytes(link_next_) +
           ColumnBytes(link_prev_) + ColumnBytes(link_list_) +
           ColumnBytes(dense_) + ColumnBytes(free_slots_) +
           sparse_.size() * (sizeof(std::pair<JobId, std::uint32_t>) +
                             2 * sizeof(void*));
  }

 private:
  friend class Job;
  friend class JobList;

  // Ids below this resolve through the dense vector (worst case 64 MiB of
  // index, covering a Reserve(10M) run with room to spare); anything above
  // falls back to the hash map.
  static constexpr JobId::ValueType kDenseCap = 1u << 24;

  template <typename T>
  static std::size_t ColumnBytes(const std::vector<T>& column) {
    return column.capacity() * sizeof(T);
  }

  std::uint32_t SlotOf(JobId id) const {
    const JobId::ValueType v = id.value();
    if (v < dense_.size()) {
      const std::uint32_t slot = dense_[v];
      NETBATCH_CHECK(slot != kNoSlot, "unknown job id");
      return slot;
    }
    return SparseSlot(id);
  }

  void IndexSlot(JobId id, std::uint32_t slot) {
    const JobId::ValueType v = id.value();
    if (v < kDenseCap) {
      if (v >= dense_.size()) dense_.resize(v + 1, kNoSlot);
      NETBATCH_CHECK(dense_[v] == kNoSlot, "duplicate job id");
      dense_[v] = slot;
    } else {
      NETBATCH_CHECK(!sparse_.contains(id), "duplicate job id");
      sparse_.emplace(id, slot);
    }
  }

  std::uint32_t SparseSlot(JobId id) const {
    const auto it = sparse_.find(id);
    NETBATCH_CHECK(it != sparse_.end(), "unknown job id");
    return it->second;
  }

  void AppendSlot(workload::JobSpec spec) {
    const Ticks runtime = spec.runtime;
    spec_.push_back(std::move(spec));
    state_.push_back(JobState::kPending);
    pool_.emplace_back();
    machine_.emplace_back();
    run_speed_.push_back(1.0);
    remaining_work_.push_back(runtime);
    state_since_.push_back(0);
    completion_time_.push_back(-1);
    attempt_executed_.push_back(0);
    attempt_work_.push_back(0);
    wait_ticks_.push_back(0);
    suspend_ticks_.push_back(0);
    executed_ticks_.push_back(0);
    resched_waste_ticks_.push_back(0);
    transit_ticks_.push_back(0);
    suspend_count_.push_back(0);
    restart_count_.push_back(0);
    is_duplicate_.push_back(0);
    twin_.emplace_back();
    extra_waste_ticks_.push_back(0);
    generation_.push_back(0);
    pending_event_.push_back(sim::kNoEvent);
    link_next_.push_back(kNoSlot);
    link_prev_.push_back(kNoSlot);
    link_list_.push_back(kNoList);
  }

  // Reinitializes a reclaimed slot to a fresh job's state — everything
  // AppendSlot writes except the generation, which Create floors above the
  // previous occupant's.
  void ResetSlot(std::uint32_t slot, workload::JobSpec spec) {
    const Ticks runtime = spec.runtime;
    spec_[slot] = std::move(spec);
    state_[slot] = JobState::kPending;
    pool_[slot] = PoolId();
    machine_[slot] = MachineId();
    run_speed_[slot] = 1.0;
    remaining_work_[slot] = runtime;
    state_since_[slot] = 0;
    completion_time_[slot] = -1;
    attempt_executed_[slot] = 0;
    attempt_work_[slot] = 0;
    wait_ticks_[slot] = 0;
    suspend_ticks_[slot] = 0;
    executed_ticks_[slot] = 0;
    resched_waste_ticks_[slot] = 0;
    transit_ticks_[slot] = 0;
    suspend_count_[slot] = 0;
    restart_count_[slot] = 0;
    is_duplicate_[slot] = 0;
    twin_[slot] = JobId();
    extra_waste_ticks_[slot] = 0;
    generation_[slot] = 0;
    pending_event_[slot] = sim::kNoEvent;
    link_next_[slot] = kNoSlot;
    link_prev_[slot] = kNoSlot;
    link_list_[slot] = kNoList;
  }

  // One vector per Job field; all share slot indexing.
  std::vector<workload::JobSpec> spec_;
  std::vector<JobState> state_;
  std::vector<PoolId> pool_;
  std::vector<MachineId> machine_;
  std::vector<double> run_speed_;
  std::vector<Ticks> remaining_work_;
  std::vector<Ticks> state_since_;  // when the current state was entered
  std::vector<Ticks> completion_time_;
  std::vector<Ticks> attempt_executed_;  // wall-clock of the current attempt
  std::vector<Ticks> attempt_work_;      // work units of the current attempt
  std::vector<Ticks> wait_ticks_;
  std::vector<Ticks> suspend_ticks_;
  std::vector<Ticks> executed_ticks_;
  std::vector<Ticks> resched_waste_ticks_;
  std::vector<Ticks> transit_ticks_;
  std::vector<std::int32_t> suspend_count_;
  std::vector<std::int32_t> restart_count_;
  std::vector<std::uint8_t> is_duplicate_;
  std::vector<JobId> twin_;
  std::vector<Ticks> extra_waste_ticks_;
  std::vector<std::uint64_t> generation_;
  std::vector<sim::EventSeq> pending_event_;
  // Intrusive list links (see the list API above).
  std::vector<std::uint32_t> link_next_;
  std::vector<std::uint32_t> link_prev_;
  std::vector<std::uint8_t> link_list_;

  std::vector<std::uint32_t> dense_;  // id.value() -> slot, kNoSlot if absent
  std::unordered_map<JobId, std::uint32_t> sparse_;  // ids >= kDenseCap
  bool reclaim_enabled_ = false;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t reclaimed_count_ = 0;
};

// Read-only range over one intrusive list, yielding JobIds head to tail.
class JobList {
 public:
  JobList(const JobArena* jobs, std::uint32_t head, std::size_t count)
      : jobs_(jobs), head_(head), count_(count) {}

  class const_iterator {
   public:
    const_iterator(const JobArena* jobs, std::uint32_t slot)
        : jobs_(jobs), slot_(slot) {}
    JobId operator*() const { return jobs_->spec_[slot_].id; }
    const_iterator& operator++() {
      slot_ = jobs_->link_next_[slot_];
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return slot_ == other.slot_;
    }
    bool operator!=(const const_iterator& other) const {
      return slot_ != other.slot_;
    }

   private:
    const JobArena* jobs_;
    std::uint32_t slot_;
  };
  const_iterator begin() const { return const_iterator(jobs_, head_); }
  const_iterator end() const {
    return const_iterator(jobs_, JobArena::kNoSlot);
  }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  JobId front() const {
    NETBATCH_CHECK(head_ != JobArena::kNoSlot, "front() of empty registry");
    return jobs_->spec_[head_].id;
  }

 private:
  const JobArena* jobs_;
  std::uint32_t head_;
  std::size_t count_;
};

// --- Job view accessors (one indexed column load each) ----------------------

inline const workload::JobSpec& Job::spec() const {
  return arena_->spec_[slot_];
}
inline JobId Job::id() const { return arena_->spec_[slot_].id; }
inline workload::Priority Job::priority() const {
  return arena_->spec_[slot_].priority;
}
inline JobState Job::state() const { return arena_->state_[slot_]; }
inline PoolId Job::pool() const { return arena_->pool_[slot_]; }
inline MachineId Job::machine() const { return arena_->machine_[slot_]; }
inline void Job::set_pool(PoolId pool) { arena_->pool_[slot_] = pool; }
inline Ticks Job::remaining_work() const {
  return arena_->remaining_work_[slot_];
}
inline double Job::run_speed() const { return arena_->run_speed_[slot_]; }
inline Ticks Job::completion_time() const {
  return arena_->completion_time_[slot_];
}
inline Ticks Job::wait_ticks() const { return arena_->wait_ticks_[slot_]; }
inline Ticks Job::suspend_ticks() const {
  return arena_->suspend_ticks_[slot_];
}
inline Ticks Job::executed_ticks() const {
  return arena_->executed_ticks_[slot_];
}
inline Ticks Job::attempt_executed_ticks() const {
  return arena_->attempt_executed_[slot_];
}
inline Ticks Job::resched_waste_ticks() const {
  return arena_->resched_waste_ticks_[slot_];
}
inline Ticks Job::transit_ticks() const {
  return arena_->transit_ticks_[slot_];
}
inline std::int32_t Job::suspend_count() const {
  return arena_->suspend_count_[slot_];
}
inline std::int32_t Job::restart_count() const {
  return arena_->restart_count_[slot_];
}
inline bool Job::is_duplicate() const {
  return arena_->is_duplicate_[slot_] != 0;
}
inline void Job::MarkDuplicateOf(JobId original) {
  arena_->is_duplicate_[slot_] = 1;
  arena_->twin_[slot_] = original;
}
inline JobId Job::twin() const { return arena_->twin_[slot_]; }
inline void Job::set_twin(JobId twin) { arena_->twin_[slot_] = twin; }
inline Ticks Job::extra_waste_ticks() const {
  return arena_->extra_waste_ticks_[slot_];
}
inline void Job::AddExtraWaste(Ticks waste) {
  arena_->extra_waste_ticks_[slot_] += waste;
}
inline Ticks Job::last_transition_time() const {
  return arena_->state_since_[slot_];
}
inline std::uint64_t Job::generation() const {
  return arena_->generation_[slot_];
}
inline void Job::EnsureGenerationAtLeast(std::uint64_t floor) {
  if (arena_->generation_[slot_] < floor) arena_->generation_[slot_] = floor;
}
inline sim::EventSeq Job::pending_event() const {
  return arena_->pending_event_[slot_];
}
inline void Job::set_pending_event(sim::EventSeq seq) {
  arena_->pending_event_[slot_] = seq;
}

}  // namespace netbatch::cluster
