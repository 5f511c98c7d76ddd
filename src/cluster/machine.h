// A single compute host, stored column-wise in a MachineArena.
//
// Machines track their free cores/memory and the sets of running and
// suspended jobs. Suspension at the host level is the paper's core
// mechanism: a preempted job stays bound to its machine (optionally holding
// memory) until it is resumed there or rescheduled away (§2.2).
//
// Like Job (cluster/job.h), `Machine` is a 16-byte view over parallel
// columns — totals, free resources, speed, owner, online bit — indexed by
// the machine's id, which doubles as its slot (pool machine ids are dense
// by construction). The running/suspended registries are intrusive doubly-
// linked lists threaded through JobArena's link columns: a job is on at
// most one machine list, so membership costs two uint32 links and one tag
// byte per job, with zero allocation per add/remove. Appends go to the
// tail and unlinks preserve order, so iteration yields exactly the
// arrival-order sequence the old per-machine vectors held — placement
// decisions (victim order, eviction order) stay bit-identical.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/job.h"
#include "common/check.h"
#include "common/ids.h"

namespace netbatch::cluster {

class MachineArena;

class Machine {
 public:
  Machine(MachineArena* arena, std::uint32_t slot)
      : arena_(arena), slot_(slot) {}

  MachineId id() const { return MachineId(slot_); }
  PoolId pool() const;
  // Owning business group (paper §2.2); -1 = unowned.
  std::int32_t owner() const;
  std::int32_t cores_total() const;
  std::int64_t memory_total_mb() const;
  double speed() const;

  std::int32_t cores_free() const;
  std::int64_t memory_free_mb() const;
  std::int32_t cores_busy() const { return cores_total() - cores_free(); }

  // Outage state: an offline machine accepts no placements (its jobs were
  // evicted when it failed) until repair brings it back.
  bool online() const;
  void set_online(bool online);

  // Whether this machine could ever run the job (capacity, not availability).
  bool Eligible(std::int32_t cores, std::int64_t memory_mb) const {
    return cores_total() >= cores && memory_total_mb() >= memory_mb;
  }

  // Whether the job fits right now.
  bool Fits(std::int32_t cores, std::int64_t memory_mb) const {
    return cores_free() >= cores && memory_free_mb() >= memory_mb;
  }

  // Resource claim/release. `Claim` aborts if resources are unavailable
  // (placement logic must check Fits() first).
  void Claim(std::int32_t cores, std::int64_t memory_mb);
  void Release(std::int32_t cores, std::int64_t memory_mb);

  // Running/suspended job registries (order = arrival order on host).
  // AddRunning/RemoveRunning also maintain the per-priority running-class
  // summary below, so callers pass the job's priority and resource demand.
  JobList running() const;
  JobList suspended() const;
  void AddRunning(JobId job, std::int32_t priority, std::int32_t cores,
                  std::int64_t memory_mb);
  void RemoveRunning(JobId job, std::int32_t priority, std::int32_t cores,
                     std::int64_t memory_mb);
  void AddSuspended(JobId job);
  void RemoveSuspended(JobId job);

  // --- preemptible-priority summary ---------------------------------------
  // Aggregates the running jobs by priority so the pool's preemption step
  // can skip machines that cannot yield without touching their job lists.

  // Sentinel "no running work" priority — above every real priority.
  static constexpr std::int32_t kNoRunningPriority =
      std::numeric_limits<std::int32_t>::max();

  // Priority of the machine's lowest-priority running job (the best victim
  // class); kNoRunningPriority when nothing runs here.
  std::int32_t lowest_running_priority() const;

  // Total cores/memory held by running jobs with priority strictly below
  // `priority` — exactly what a preemption at that priority could reclaim.
  void ReclaimableBelow(std::int32_t priority, std::int32_t& cores,
                        std::int64_t& memory_mb) const;

 private:
  MachineArena* arena_;
  std::uint32_t slot_;
};

// Struct-of-arrays storage for one pool's machines. Machine ids are dense
// (assigned by Add in order), so id == slot. The per-priority running-class
// summaries live as pooled singly-linked nodes (sorted ascending by
// priority, a handful per machine) in a shared node vector with a free
// list — no allocation per class churn once the pool warms up.
class MachineArena {
 public:
  MachineArena(PoolId pool, JobArena& jobs) : pool_(pool), jobs_(&jobs) {}

  PoolId pool() const { return pool_; }
  const JobArena& jobs() const { return *jobs_; }

  void Reserve(std::size_t n) {
    owner_.reserve(n);
    cores_total_.reserve(n);
    memory_total_mb_.reserve(n);
    speed_.reserve(n);
    cores_free_.reserve(n);
    memory_free_mb_.reserve(n);
    online_.reserve(n);
    run_head_.reserve(n);
    run_tail_.reserve(n);
    run_count_.reserve(n);
    susp_head_.reserve(n);
    susp_tail_.reserve(n);
    susp_count_.reserve(n);
    class_head_.reserve(n);
  }

  // Appends a machine; its id is the next dense slot.
  MachineId Add(std::int32_t cores, std::int64_t memory_mb, double speed,
                std::int32_t owner = -1 /* workload::kNoOwner */);

  std::size_t size() const { return cores_total_.size(); }
  bool empty() const { return cores_total_.empty(); }

  // Views are values; read-only use binds `const Machine&` at the call
  // site (see JobArena::at for the rationale).
  Machine at(MachineId id) const {
    NETBATCH_CHECK(id.valid() && id.value() < size(),
                   "machine id out of range");
    return Machine(const_cast<MachineArena*>(this), id.value());
  }
  Machine operator[](std::size_t slot) const {
    return Machine(const_cast<MachineArena*>(this),
                   static_cast<std::uint32_t>(slot));
  }

  class const_iterator {
   public:
    const_iterator(const MachineArena* arena, std::uint32_t slot)
        : arena_(arena), slot_(slot) {}
    Machine operator*() const {
      return Machine(const_cast<MachineArena*>(arena_), slot_);
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
    const MachineArena* arena_;
    std::uint32_t slot_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<std::uint32_t>(size()));
  }

  // Resident bytes of every column plus the class-node pool (capacity, not
  // size — reserved slots are charged too).
  std::size_t MemoryBytes() const {
    return ColumnBytes(owner_) + ColumnBytes(cores_total_) +
           ColumnBytes(memory_total_mb_) + ColumnBytes(speed_) +
           ColumnBytes(cores_free_) + ColumnBytes(memory_free_mb_) +
           ColumnBytes(online_) + ColumnBytes(run_head_) +
           ColumnBytes(run_tail_) + ColumnBytes(run_count_) +
           ColumnBytes(susp_head_) + ColumnBytes(susp_tail_) +
           ColumnBytes(susp_count_) + ColumnBytes(class_head_) +
           ColumnBytes(class_nodes_) + ColumnBytes(class_free_);
  }

 private:
  friend class Machine;

  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  struct ClassNode {
    std::int32_t priority = 0;
    std::int32_t jobs = 0;
    std::int32_t cores = 0;
    std::int64_t memory_mb = 0;
    std::uint32_t next = kNoNode;
  };

  template <typename T>
  static std::size_t ColumnBytes(const std::vector<T>& column) {
    return column.capacity() * sizeof(T);
  }

  // Running-class summary maintenance (sorted ascending by priority).
  void AddRunningClass(std::uint32_t machine, std::int32_t priority,
                       std::int32_t cores, std::int64_t memory_mb);
  void RemoveRunningClass(std::uint32_t machine, std::int32_t priority,
                          std::int32_t cores, std::int64_t memory_mb);

  // Registry membership on the job arena's intrusive lists. `running`
  // selects the registry; appends go to the tail (old push_back order).
  void LinkJob(std::uint32_t machine, JobId job, bool running);
  void UnlinkJob(std::uint32_t machine, JobId job, bool running);

  PoolId pool_;
  JobArena* jobs_;

  std::vector<std::int32_t> owner_;
  std::vector<std::int32_t> cores_total_;
  std::vector<std::int64_t> memory_total_mb_;
  std::vector<double> speed_;
  std::vector<std::int32_t> cores_free_;
  std::vector<std::int64_t> memory_free_mb_;
  std::vector<std::uint8_t> online_;
  // Running/suspended registries: head/tail job slots + member count.
  std::vector<std::uint32_t> run_head_;
  std::vector<std::uint32_t> run_tail_;
  std::vector<std::uint32_t> run_count_;
  std::vector<std::uint32_t> susp_head_;
  std::vector<std::uint32_t> susp_tail_;
  std::vector<std::uint32_t> susp_count_;
  // Per-machine head of its running-class list in the pooled nodes below.
  std::vector<std::uint32_t> class_head_;
  std::vector<ClassNode> class_nodes_;
  std::vector<std::uint32_t> class_free_;
};

// --- Machine view accessors (one indexed column load each) ------------------

inline PoolId Machine::pool() const { return arena_->pool_; }
inline std::int32_t Machine::owner() const { return arena_->owner_[slot_]; }
inline std::int32_t Machine::cores_total() const {
  return arena_->cores_total_[slot_];
}
inline std::int64_t Machine::memory_total_mb() const {
  return arena_->memory_total_mb_[slot_];
}
inline double Machine::speed() const { return arena_->speed_[slot_]; }
inline std::int32_t Machine::cores_free() const {
  return arena_->cores_free_[slot_];
}
inline std::int64_t Machine::memory_free_mb() const {
  return arena_->memory_free_mb_[slot_];
}
inline bool Machine::online() const { return arena_->online_[slot_] != 0; }
inline void Machine::set_online(bool online) {
  arena_->online_[slot_] = online ? 1 : 0;
}
inline JobList Machine::running() const {
  return JobList(arena_->jobs_, arena_->run_head_[slot_],
                 arena_->run_count_[slot_]);
}
inline JobList Machine::suspended() const {
  return JobList(arena_->jobs_, arena_->susp_head_[slot_],
                 arena_->susp_count_[slot_]);
}
inline std::int32_t Machine::lowest_running_priority() const {
  const std::uint32_t head = arena_->class_head_[slot_];
  return head == MachineArena::kNoNode ? kNoRunningPriority
                                       : arena_->class_nodes_[head].priority;
}
inline void Machine::ReclaimableBelow(std::int32_t priority,
                                      std::int32_t& cores,
                                      std::int64_t& memory_mb) const {
  cores = 0;
  memory_mb = 0;
  for (std::uint32_t node = arena_->class_head_[slot_];
       node != MachineArena::kNoNode;
       node = arena_->class_nodes_[node].next) {
    const MachineArena::ClassNode& cls = arena_->class_nodes_[node];
    if (cls.priority >= priority) break;
    cores += cls.cores;
    memory_mb += cls.memory_mb;
  }
}

}  // namespace netbatch::cluster
