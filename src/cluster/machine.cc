#include "cluster/machine.h"

namespace netbatch::cluster {

MachineId MachineArena::Add(std::int32_t cores, std::int64_t memory_mb,
                            double speed, std::int32_t owner) {
  NETBATCH_CHECK(cores > 0, "machine needs at least one core");
  NETBATCH_CHECK(memory_mb > 0, "machine needs memory");
  NETBATCH_CHECK(speed > 0, "machine speed must be positive");
  owner_.push_back(owner);
  cores_total_.push_back(cores);
  memory_total_mb_.push_back(memory_mb);
  speed_.push_back(speed);
  cores_free_.push_back(cores);
  memory_free_mb_.push_back(memory_mb);
  online_.push_back(1);
  run_head_.push_back(JobArena::kNoSlot);
  run_tail_.push_back(JobArena::kNoSlot);
  run_count_.push_back(0);
  susp_head_.push_back(JobArena::kNoSlot);
  susp_tail_.push_back(JobArena::kNoSlot);
  susp_count_.push_back(0);
  class_head_.push_back(kNoNode);
  return MachineId(static_cast<MachineId::ValueType>(size() - 1));
}

void MachineArena::LinkJob(std::uint32_t machine, JobId job, bool running) {
  JobArena& jobs = *jobs_;
  const std::uint32_t slot = jobs.at(job).slot();
  if (running) {
    jobs.LinkTail(slot, JobArena::kRunningList, run_head_[machine],
                  run_tail_[machine]);
    ++run_count_[machine];
  } else {
    jobs.LinkTail(slot, JobArena::kSuspendedList, susp_head_[machine],
                  susp_tail_[machine]);
    ++susp_count_[machine];
  }
}

void MachineArena::UnlinkJob(std::uint32_t machine, JobId job, bool running) {
  JobArena& jobs = *jobs_;
  const std::uint32_t slot = jobs.at(job).slot();
  std::uint32_t& head = running ? run_head_[machine] : susp_head_[machine];
  std::uint32_t& tail = running ? run_tail_[machine] : susp_tail_[machine];
  NETBATCH_CHECK(
      jobs.OnList(slot,
                  running ? JobArena::kRunningList : JobArena::kSuspendedList,
                  head),
      "job not registered on machine");
  jobs.Unlink(slot, head, tail);
  --(running ? run_count_ : susp_count_)[machine];
}

void MachineArena::AddRunningClass(std::uint32_t machine, std::int32_t priority,
                                   std::int32_t cores,
                                   std::int64_t memory_mb) {
  // Walk the (short, ascending) class list to the insertion point. Indices,
  // not pointers: emplace_back below may reallocate class_nodes_.
  std::uint32_t prev = kNoNode;
  std::uint32_t cur = class_head_[machine];
  while (cur != kNoNode && class_nodes_[cur].priority < priority) {
    prev = cur;
    cur = class_nodes_[cur].next;
  }
  if (cur == kNoNode || class_nodes_[cur].priority != priority) {
    std::uint32_t node;
    if (!class_free_.empty()) {
      node = class_free_.back();
      class_free_.pop_back();
    } else {
      node = static_cast<std::uint32_t>(class_nodes_.size());
      class_nodes_.emplace_back();
    }
    class_nodes_[node] = ClassNode{priority, 0, 0, 0, cur};
    if (prev == kNoNode) {
      class_head_[machine] = node;
    } else {
      class_nodes_[prev].next = node;
    }
    cur = node;
  }
  ClassNode& cls = class_nodes_[cur];
  ++cls.jobs;
  cls.cores += cores;
  cls.memory_mb += memory_mb;
}

void MachineArena::RemoveRunningClass(std::uint32_t machine,
                                      std::int32_t priority,
                                      std::int32_t cores,
                                      std::int64_t memory_mb) {
  std::uint32_t* link = &class_head_[machine];
  while (*link != kNoNode && class_nodes_[*link].priority < priority) {
    link = &class_nodes_[*link].next;
  }
  NETBATCH_CHECK(*link != kNoNode && class_nodes_[*link].priority == priority,
                 "running-class summary missing the job's priority");
  ClassNode& cls = class_nodes_[*link];
  --cls.jobs;
  cls.cores -= cores;
  cls.memory_mb -= memory_mb;
  NETBATCH_CHECK(cls.jobs >= 0 && cls.cores >= 0 && cls.memory_mb >= 0,
                 "running-class summary went negative");
  if (cls.jobs == 0) {
    const std::uint32_t node = *link;
    *link = cls.next;
    class_free_.push_back(node);
  }
}

void Machine::Claim(std::int32_t cores, std::int64_t memory_mb) {
  MachineArena& a = *arena_;
  NETBATCH_CHECK(
      a.cores_free_[slot_] >= cores && a.memory_free_mb_[slot_] >= memory_mb,
      "claiming more resources than free");
  a.cores_free_[slot_] -= cores;
  a.memory_free_mb_[slot_] -= memory_mb;
}

void Machine::Release(std::int32_t cores, std::int64_t memory_mb) {
  MachineArena& a = *arena_;
  a.cores_free_[slot_] += cores;
  a.memory_free_mb_[slot_] += memory_mb;
  NETBATCH_CHECK(a.cores_free_[slot_] <= a.cores_total_[slot_] &&
                     a.memory_free_mb_[slot_] <= a.memory_total_mb_[slot_],
                 "released more resources than were claimed");
}

void Machine::AddRunning(JobId job, std::int32_t priority, std::int32_t cores,
                         std::int64_t memory_mb) {
  arena_->LinkJob(slot_, job, /*running=*/true);
  arena_->AddRunningClass(slot_, priority, cores, memory_mb);
}

void Machine::RemoveRunning(JobId job, std::int32_t priority,
                            std::int32_t cores, std::int64_t memory_mb) {
  arena_->UnlinkJob(slot_, job, /*running=*/true);
  arena_->RemoveRunningClass(slot_, priority, cores, memory_mb);
}

void Machine::AddSuspended(JobId job) {
  arena_->LinkJob(slot_, job, /*running=*/false);
}

void Machine::RemoveSuspended(JobId job) {
  arena_->UnlinkJob(slot_, job, /*running=*/false);
}

}  // namespace netbatch::cluster
