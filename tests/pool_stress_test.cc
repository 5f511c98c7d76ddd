// Randomized stress / property tests of the physical pool: after every
// operation the pool's resource-conservation invariants must hold, and
// every job must end in a legal state.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <utility>

#include "cluster/pool.h"
#include "common/rng.h"

namespace netbatch::cluster {
namespace {

workload::JobSpec RandomSpec(Rng& rng, JobId::ValueType id) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.cores = static_cast<std::int32_t>(rng.UniformInt(1, 8));
  spec.memory_mb = rng.UniformInt(256, 16384);
  spec.runtime = MinutesToTicks(rng.UniformInt(1, 500));
  spec.priority = rng.Bernoulli(0.3) ? workload::kHighPriority
                                     : workload::kLowPriority;
  return spec;
}

using StressParam = std::tuple<bool, bool, std::uint64_t>;

std::string StressName(const ::testing::TestParamInfo<StressParam>& info) {
  const auto [holds, local, seed] = info.param;
  return std::string(holds ? "holdmem" : "swapmem") +
         (local ? "_localresume" : "_priresume") + "_seed" +
         std::to_string(seed);
}

class PoolStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(PoolStressTest, InvariantsSurviveRandomOperationSequences) {
  const auto [holds_memory, local_resume, seed] = GetParam();
  Rng rng(seed);

  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  for (MachineId::ValueType m = 0; m < 6; ++m) {
    machines.Add(static_cast<std::int32_t>(rng.UniformInt(2, 16)),
                 rng.UniformInt(4096, 65536), 1.0);
  }
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, holds_memory,
                    local_resume);

  std::vector<JobId> live;  // running, waiting or suspended in this pool
  JobId::ValueType next_id = 0;
  Ticks now = 0;

  for (int step = 0; step < 3000; ++step) {
    now += rng.UniformInt(1, 300);
    const double action = rng.NextDouble();
    if (action < 0.5) {
      // Submit a new job.
      Job job = jobs.Create(RandomSpec(rng, next_id++));
      job.OnSubmitted(now);
      const PlaceResult result = pool.TryPlace(job, now);
      if (result.outcome != PlaceOutcome::kNotEligible) {
        live.push_back(job.id());
      }
    } else if (action < 0.8 && !live.empty()) {
      // Complete a random running job.
      const std::size_t pick = rng.UniformIndex(live.size());
      Job job = jobs.at(live[pick]);
      if (job.state() == JobState::kRunning) {
        pool.OnJobCompleted(job, now);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (!live.empty()) {
      // Detach-and-restart a random suspended job, or dequeue a waiter.
      const std::size_t pick = rng.UniformIndex(live.size());
      Job job = jobs.at(live[pick]);
      if (job.state() == JobState::kSuspended) {
        pool.DetachSuspended(job);
        job.OnRestart(now, PoolId(0));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (job.state() == JobState::kWaiting && rng.Bernoulli(0.5)) {
        pool.RemoveFromQueue(job.id());
        job.OnRestart(now, PoolId(0));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    if (step % 64 == 0) pool.CheckInvariants();
  }
  pool.CheckInvariants();

  // Drain: complete everything still running, restart everything parked.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < live.size();) {
      Job job = jobs.at(live[i]);
      if (job.state() == JobState::kRunning) {
        now += 1;
        pool.OnJobCompleted(job, now);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
      } else {
        ++i;
      }
    }
  }
  pool.CheckInvariants();
  // Whatever remains is legally parked (waiting for capacity that random
  // completions never freed in the right shape).
  for (JobId id : live) {
    const JobState state = jobs.at(id).state();
    EXPECT_TRUE(state == JobState::kWaiting || state == JobState::kSuspended)
        << ToString(state);
  }
}

// --- wait-queue differential test -------------------------------------------
// The pool's intrusive per-priority wait queue against the ordered map it
// replaced, keyed (-priority, enqueue seq): highest priority first, FIFO
// within a priority. Machines are owned by a group no job belongs to, so
// nothing is ever preempted and every backfill pick comes from the queue —
// which makes each pick predictable from the model alone.

using WaitModel = std::map<std::pair<workload::Priority, std::uint64_t>, JobId>;

class WaitQueueDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

workload::JobSpec QueueSpec(Rng& rng, JobId::ValueType id) {
  static constexpr workload::Priority kPriorities[] = {0, 3, 5, 10};
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.cores = static_cast<std::int32_t>(rng.UniformInt(1, 6));
  spec.memory_mb = rng.UniformInt(256, 12000);
  spec.runtime = MinutesToTicks(rng.UniformInt(1, 500));
  spec.priority = kPriorities[rng.UniformIndex(4)];
  spec.owner = 0;
  return spec;
}

// The queue jobs a backfill of a machine with `cores`/`memory_mb` free
// starts, in order: repeatedly the first model entry that fits.
std::vector<JobId> PredictBackfill(const WaitModel& model, const JobArena& jobs,
                                   std::int32_t cores, std::int64_t memory_mb) {
  std::vector<JobId> picks;
  WaitModel left = model;
  for (bool found = true; found;) {
    found = false;
    for (auto it = left.begin(); it != left.end(); ++it) {
      const workload::JobSpec& spec = jobs.at(it->second).spec();
      if (spec.cores <= cores && spec.memory_mb <= memory_mb) {
        picks.push_back(it->second);
        cores -= spec.cores;
        memory_mb -= spec.memory_mb;
        left.erase(it);
        found = true;
        break;
      }
    }
  }
  return picks;
}

std::vector<JobId> ModelOrder(const WaitModel& model) {
  std::vector<JobId> ids;
  for (const auto& [key, id] : model) ids.push_back(id);
  return ids;
}

// The wait-queue suffix of the pool's canonical restore order.
std::vector<JobId> QueueOrder(const PhysicalPool& pool) {
  std::vector<JobId> ids;
  pool.AppendJobsInRestoreOrder(ids);
  const auto waiting = static_cast<std::ptrdiff_t>(pool.QueueLength());
  return std::vector<JobId>(ids.end() - waiting, ids.end());
}

MachineArena QueueMachines(JobArena& jobs) {
  MachineArena machines(PoolId(0), jobs);
  for (int m = 0; m < 4; ++m) machines.Add(8, 16384, 1.0, /*owner=*/1);
  return machines;
}

TEST_P(WaitQueueDiffTest, MatchesOrderedMapModel) {
  Rng rng(GetParam());
  JobArena jobs;
  PhysicalPool pool(PoolId(0), QueueMachines(jobs), jobs,
                    /*suspended_holds_memory=*/true);
  WaitModel model;
  std::uint64_t seq = 0;
  std::vector<JobId> running;
  JobId::ValueType next_id = 0;
  Ticks now = 0;

  const auto place = [&](Job job) {
    const PlaceResult result = pool.TryPlace(job, now);
    ASSERT_NE(result.outcome, PlaceOutcome::kNotEligible);
    ASSERT_TRUE(result.suspended.empty());
    if (result.outcome == PlaceOutcome::kQueued) {
      model.emplace(std::pair(-job.priority(), seq++), job.id());
    } else {
      running.push_back(job.id());
    }
  };

  for (int step = 0; step < 4000; ++step) {
    now += rng.UniformInt(1, 60);
    const double action = rng.NextDouble();
    if (action < 0.45) {
      Job job = jobs.Create(QueueSpec(rng, next_id++));
      job.OnSubmitted(now);
      place(job);
    } else if (action < 0.7 && !model.empty()) {
      // Dequeue the head, a middle entry, or the tail, then re-place the
      // job the way wait-timeout rescheduling re-submits it.
      auto it = model.begin();
      switch (rng.UniformIndex(3)) {
        case 0:
          break;
        case 1:
          std::advance(it, static_cast<std::ptrdiff_t>(model.size() / 2));
          break;
        default:
          it = std::prev(model.end());
      }
      Job job = jobs.at(it->second);
      pool.RemoveFromQueue(job.id());
      model.erase(it);
      job.OnRestart(now, PoolId(0));
      place(job);
    } else if (!running.empty()) {
      // Complete a running job: its machine backfills from the queue.
      const std::size_t pick = rng.UniformIndex(running.size());
      Job job = jobs.at(running[pick]);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      const Machine machine = pool.MachineById(job.machine());
      const std::vector<JobId> expected = PredictBackfill(
          model, jobs, machine.cores_free() + job.spec().cores,
          machine.memory_free_mb() + job.spec().memory_mb);
      const std::vector<JobId> started = pool.OnJobCompleted(job, now);
      ASSERT_EQ(started, expected) << "step " << step;
      for (const JobId id : started) {
        running.push_back(id);
        std::erase_if(model, [id](const auto& e) { return e.second == id; });
      }
    } else {
      // A job waits only when nothing fits and every completion backfills,
      // so no waiter fits any machine: an explicit backfill starts nothing.
      const MachineId machine(
          static_cast<MachineId::ValueType>(rng.UniformIndex(4)));
      EXPECT_TRUE(pool.Backfill(machine, now).empty()) << "step " << step;
    }
    ASSERT_EQ(pool.QueueLength(), model.size()) << "step " << step;
    ASSERT_EQ(QueueOrder(pool), ModelOrder(model)) << "step " << step;
    if (step % 128 == 0) pool.CheckInvariants();
  }
  pool.CheckInvariants();
  ASSERT_GT(model.size(), 0u);

  // Restore round trip: re-materialize every parked job in a fresh arena
  // in the canonical order; the rebuilt queue must read back identically.
  std::vector<JobId> order;
  pool.AppendJobsInRestoreOrder(order);
  JobArena restored_jobs;
  PhysicalPool restored(PoolId(0), QueueMachines(restored_jobs),
                        restored_jobs, /*suspended_holds_memory=*/true);
  for (const JobId id : order) {
    const Job job = restored_jobs.RestoreJob(jobs.at(id).spec(),
                                             jobs.CaptureImage(id));
    if (job.state() == JobState::kRunning) {
      restored.RestoreRunning(job);
    } else {
      restored.RestoreWaiting(job);
    }
  }
  restored.CheckInvariants();
  std::vector<JobId> restored_order;
  restored.AppendJobsInRestoreOrder(restored_order);
  EXPECT_EQ(restored_order, order);
  EXPECT_EQ(QueueOrder(restored), ModelOrder(model));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitQueueDiffTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

INSTANTIATE_TEST_SUITE_P(
    Semantics, PoolStressTest,
    ::testing::Combine(::testing::Bool(),  // suspended_holds_memory
                       ::testing::Bool(),  // local_resume_first
                       ::testing::Values(1u, 2u, 3u)),
    StressName);

}  // namespace
}  // namespace netbatch::cluster
