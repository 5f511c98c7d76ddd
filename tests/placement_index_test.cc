// Tests for the incremental placement index and the fixes that rode along
// with it: (1) a churn fuzz test asserting the incremental indexes always
// match a from-scratch rebuild (AuditInvariants re-derives every index from
// machine state) while TryPlace keeps the historical first-eligible-machine
// order; (2) the preemption-victim PoolObserver hook; (3) the memory-aware
// backfill gate; (4) the cross-site widening of both paper selectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/pool.h"
#include "cluster/simulation.h"
#include "common/rng.h"
#include "core/policies.h"
#include "core/pool_selector.h"
#include "sched/round_robin.h"

namespace netbatch::cluster {
namespace {

// Collects violations instead of aborting, so a test can assert "no
// violations" with a readable failure message.
class CollectSink final : public InvariantSink {
 public:
  void Report(const InvariantViolation& violation) override {
    violations.push_back(violation);
  }
  std::string Describe() const {
    std::string out;
    for (const InvariantViolation& v : violations) {
      out += v.what;
      out += "; ";
    }
    return out;
  }
  std::vector<InvariantViolation> violations;
};

workload::JobSpec Spec(JobId::ValueType id, std::int32_t cores,
                       std::int64_t memory_mb,
                       workload::Priority priority = workload::kLowPriority) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.cores = cores;
  spec.memory_mb = memory_mb;
  spec.runtime = MinutesToTicks(30);
  spec.priority = priority;
  return spec;
}

// ---------------------------------------------------------------------------
// Index-consistency fuzz: random churn across every mutation path, with the
// full audit (which rebuilds each index from machine state and diffs it
// against the incremental one) after every single operation, plus an
// independent re-derivation of the placement decision.
// ---------------------------------------------------------------------------

using FuzzParam = std::tuple<bool, bool, std::uint64_t>;

std::string FuzzName(const ::testing::TestParamInfo<FuzzParam>& info) {
  const auto [holds, local, seed] = info.param;
  return std::string(holds ? "holdmem" : "swapmem") +
         (local ? "_localresume" : "_priresume") + "_seed" +
         std::to_string(seed);
}

class PlacementIndexFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

// Reference model of the pre-index TryPlace: a linear scan over machines in
// id order. Returns the machine the job must land on (and whether landing
// needs preemption), or nullopt when the job must queue.
struct RefPlacement {
  MachineId machine;
  bool preempts = false;
};

std::optional<RefPlacement> ReferencePlace(const PhysicalPool& pool,
                                           const JobArena& jobs,
                                           const workload::JobSpec& spec,
                                           workload::Priority priority,
                                           bool holds_memory) {
  // Step 1: first online machine with free resources.
  for (const Machine& m : pool.machines()) {
    if (m.online() && m.Fits(spec.cores, spec.memory_mb)) {
      return RefPlacement{m.id(), false};
    }
  }
  // Step 2: first machine where suspending all strictly-lower-priority
  // running work makes room.
  for (const Machine& m : pool.machines()) {
    if (!m.online() || !m.Eligible(spec.cores, spec.memory_mb)) continue;
    if (m.owner() != workload::kNoOwner && m.owner() != spec.owner) continue;
    std::int32_t core_gain = 0;
    std::int64_t memory_gain = 0;
    for (JobId id : m.running()) {
      const Job& job = jobs.at(id);
      if (job.priority() >= priority) continue;
      core_gain += job.spec().cores;
      if (!holds_memory) memory_gain += job.spec().memory_mb;
    }
    if (m.cores_free() + core_gain >= spec.cores &&
        m.memory_free_mb() + memory_gain >= spec.memory_mb) {
      return RefPlacement{m.id(), true};
    }
  }
  return std::nullopt;
}

TEST_P(PlacementIndexFuzzTest, IncrementalIndexMatchesRebuildUnderChurn) {
  const auto [holds_memory, local_resume, seed] = GetParam();
  Rng rng(seed);

  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  for (int m = 0; m < 8; ++m) {
    machines.Add(static_cast<std::int32_t>(rng.UniformInt(2, 16)),
                 rng.UniformInt(4096, 65536), 1.0);
  }
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, holds_memory,
                    local_resume);

  std::unordered_map<JobId::ValueType, Ticks> submitted_at;
  // Jobs pulled off a machine (evict/detach) but not yet restarted: their
  // state still reads running/suspended while the registries no longer hold
  // them, so the reference derivation below must skip them.
  std::unordered_set<JobId::ValueType> in_limbo;

  const auto audit = [&](Ticks now, int step, const char* op) {
    CollectSink sink;
    pool.AuditInvariants(now, sink);
    ASSERT_TRUE(sink.violations.empty())
        << "step " << step << " after " << op << ": " << sink.Describe();

    // Arena-vs-reference: re-derive every machine's registries from the job
    // columns alone (state + machine id) and diff them against the intrusive
    // lists threaded through the arena, counts and resources included.
    std::vector<std::vector<JobId>> ref_running(pool.machines().size());
    std::vector<std::vector<JobId>> ref_suspended(pool.machines().size());
    for (const Job& job : jobs) {
      if (in_limbo.contains(job.id().value())) continue;
      if (job.state() == JobState::kRunning) {
        ref_running[job.machine().value()].push_back(job.id());
      } else if (job.state() == JobState::kSuspended) {
        ref_suspended[job.machine().value()].push_back(job.id());
      }
    }
    const auto sorted = [](std::vector<JobId> v) {
      std::sort(v.begin(), v.end(),
                [](JobId a, JobId b) { return a.value() < b.value(); });
      return v;
    };
    for (const Machine& m : pool.machines()) {
      std::vector<JobId> run;
      for (JobId id : m.running()) run.push_back(id);
      std::vector<JobId> susp;
      for (JobId id : m.suspended()) susp.push_back(id);
      ASSERT_EQ(run.size(), m.running().size())
          << "step " << step << " after " << op << ": machine "
          << m.id().value() << " running-list walk disagrees with its count";
      ASSERT_EQ(susp.size(), m.suspended().size())
          << "step " << step << " after " << op << ": machine "
          << m.id().value() << " suspended-list walk disagrees with its count";
      ASSERT_EQ(sorted(run), sorted(ref_running[m.id().value()]))
          << "step " << step << " after " << op << ": machine "
          << m.id().value() << " running list diverged from job state";
      ASSERT_EQ(sorted(susp), sorted(ref_suspended[m.id().value()]))
          << "step " << step << " after " << op << ": machine "
          << m.id().value() << " suspended list diverged from job state";
      std::int32_t cores_used = 0;
      std::int64_t memory_used = 0;
      for (JobId id : run) {
        const Job& job = jobs.at(id);
        cores_used += job.spec().cores;
        memory_used += job.spec().memory_mb;
      }
      if (holds_memory) {
        for (JobId id : susp) memory_used += jobs.at(id).spec().memory_mb;
      }
      ASSERT_EQ(m.cores_free(), m.cores_total() - cores_used)
          << "step " << step << " after " << op << ": machine "
          << m.id().value() << " free cores diverged from registry sum";
      ASSERT_EQ(m.memory_free_mb(), m.memory_total_mb() - memory_used)
          << "step " << step << " after " << op << ": machine "
          << m.id().value() << " free memory diverged from registry sum";
    }

    // Accounting identity: a completed job's wall-clock lifetime — from the
    // tick it was submitted to the tick it completed — splits exactly into
    // the four accounted states.
    for (const Job& job : jobs) {
      if (job.state() != JobState::kCompleted) continue;
      ASSERT_EQ(job.completion_time() - submitted_at[job.id().value()],
                job.wait_ticks() + job.suspend_ticks() + job.executed_ticks() +
                    job.transit_ticks())
          << "step " << step << " after " << op << ": accounting identity "
          << "broken for job " << job.id().value();
    }
  };

  std::vector<JobId> live;  // running, waiting or suspended in this pool
  JobId::ValueType next_id = 0;
  Ticks now = 0;
  constexpr workload::Priority kPriorities[] = {workload::kLowPriority, 5,
                                                workload::kHighPriority};

  const auto place = [&](Job job, int step) {
    const auto expected = ReferencePlace(pool, jobs, job.spec(),
                                         job.priority(), holds_memory);
    const PlaceResult result = pool.TryPlace(job, now);
    if (expected.has_value()) {
      ASSERT_EQ(result.outcome, PlaceOutcome::kStarted) << "step " << step;
      ASSERT_EQ(result.machine, expected->machine)
          << "step " << step << ": index diverged from linear scan order";
      ASSERT_EQ(!result.suspended.empty(), expected->preempts)
          << "step " << step;
    } else {
      ASSERT_NE(result.outcome, PlaceOutcome::kStarted) << "step " << step;
    }
    if (result.outcome != PlaceOutcome::kNotEligible) live.push_back(job.id());
  };

  for (int step = 0; step < 2000; ++step) {
    now += rng.UniformInt(1, 300);
    const double action = rng.NextDouble();
    if (action < 0.40) {
      // Submit a fresh job.
      workload::JobSpec spec =
          Spec(next_id++, static_cast<std::int32_t>(rng.UniformInt(1, 8)),
               rng.UniformInt(256, 16384),
               kPriorities[rng.UniformIndex(3)]);
      Job job = jobs.Create(spec);
      job.OnSubmitted(now);
      submitted_at[job.id().value()] = now;
      place(job, step);
      audit(now, step, "place");
    } else if (action < 0.65 && !live.empty()) {
      // Complete a random running job (frees resources, backfills).
      const std::size_t pick = rng.UniformIndex(live.size());
      Job job = jobs.at(live[pick]);
      if (job.state() == JobState::kRunning) {
        pool.OnJobCompleted(job, now);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        audit(now, step, "complete");
      }
    } else if (action < 0.75 && !live.empty()) {
      // Kill a random job in whatever state it is parked.
      const std::size_t pick = rng.UniformIndex(live.size());
      Job job = jobs.at(live[pick]);
      pool.KillJob(job, now);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      audit(now, step, "kill");
    } else if (action < 0.85) {
      // Fail a random online machine, then resubmit everything it dropped.
      const MachineId id(static_cast<MachineId::ValueType>(
          rng.UniformIndex(pool.machines().size())));
      if (!pool.machines()[id.value()].online()) continue;
      const std::vector<JobId> evicted = pool.EvictMachine(id, now);
      for (JobId jid : evicted) in_limbo.insert(jid.value());
      audit(now, step, "evict");
      for (JobId jid : evicted) {
        std::erase(live, jid);
        Job job = jobs.at(jid);
        job.OnRestart(now, PoolId(0));
        in_limbo.erase(jid.value());
        place(job, step);
        audit(now, step, "evict-resubmit");
      }
    } else if (action < 0.92) {
      // Repair a random offline machine (backfills it).
      std::vector<MachineId> offline;
      for (const Machine& m : pool.machines()) {
        if (!m.online()) offline.push_back(m.id());
      }
      if (offline.empty()) continue;
      pool.RepairMachine(offline[rng.UniformIndex(offline.size())], now);
      audit(now, step, "repair");
    } else if (!live.empty()) {
      // Reschedule: detach a suspended job or dequeue a waiter, restart it,
      // and place it again from scratch.
      const std::size_t pick = rng.UniformIndex(live.size());
      Job job = jobs.at(live[pick]);
      if (job.state() == JobState::kSuspended) {
        const MachineId machine = pool.DetachSuspended(job);
        in_limbo.insert(job.id().value());
        pool.Backfill(machine, now);
        audit(now, step, "detach");
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        job.OnRestart(now, PoolId(0));
        in_limbo.erase(job.id().value());
        place(job, step);
        audit(now, step, "detach-resubmit");
      } else if (job.state() == JobState::kWaiting) {
        pool.RemoveFromQueue(job.id());
        audit(now, step, "dequeue");
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        job.OnRestart(now, PoolId(0));
        place(job, step);
        audit(now, step, "dequeue-resubmit");
      }
    }
  }

  // Drain running work; whatever remains must be legally parked.
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
  audit(now, -1, "drain");
  for (JobId id : live) {
    const JobState state = jobs.at(id).state();
    EXPECT_TRUE(state == JobState::kWaiting || state == JobState::kSuspended)
        << ToString(state);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, PlacementIndexFuzzTest,
    ::testing::Combine(::testing::Bool(),  // suspended_holds_memory
                       ::testing::Bool(),  // local_resume_first
                       ::testing::Values(11u, 12u, 13u)),
    FuzzName);

// The index must preserve first-fit-by-id, not switch to best-fit: a later
// machine with a tighter fit must not steal the placement.
TEST(PlacementOrderTest, FirstFitPrefersLowestMachineId) {
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  machines.Add(16, 65536, 1.0);
  machines.Add(4, 8192, 1.0);  // tight fit
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, false);

  Job job = jobs.Create(Spec(0, 4, 8192));
  job.OnSubmitted(0);
  const PlaceResult result = pool.TryPlace(job, 0);
  ASSERT_EQ(result.outcome, PlaceOutcome::kStarted);
  EXPECT_EQ(result.machine, MachineId(0));
}

// Preemption must target the first machine in id order that can yield, even
// when a later machine could yield more cheaply.
TEST(PlacementOrderTest, PreemptionPrefersLowestMachineId) {
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  for (int m = 0; m < 3; ++m) {
    machines.Add(4, 16384, 1.0);
  }
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, false);

  // Machine 0: high-priority work (cannot yield). Machines 1, 2: low.
  for (JobId::ValueType j = 0; j < 3; ++j) {
    Job job = jobs.Create(Spec(j, 4, 1024,
                                j == 0 ? workload::kHighPriority
                                       : workload::kLowPriority));
    job.OnSubmitted(0);
    ASSERT_EQ(pool.TryPlace(job, 0).outcome, PlaceOutcome::kStarted);
  }

  Job preemptor = jobs.Create(Spec(10, 4, 1024, workload::kHighPriority));
  preemptor.OnSubmitted(5);
  const PlaceResult result = pool.TryPlace(preemptor, 5);
  ASSERT_EQ(result.outcome, PlaceOutcome::kStarted);
  EXPECT_EQ(result.machine, MachineId(1));
  ASSERT_EQ(result.suspended.size(), 1u);
  EXPECT_EQ(result.suspended[0], JobId(1));
}

// ---------------------------------------------------------------------------
// Preemption-victim observer hook (the blind spot: victims used to bypass
// the PoolObserver entirely).
// ---------------------------------------------------------------------------

class RecordingPoolObserver final : public PoolObserver {
 public:
  void OnJobStarted(const Job& job) override {
    events.emplace_back("started", job.id());
  }
  void OnJobResumed(const Job& job) override {
    events.emplace_back("resumed", job.id());
  }
  void OnJobEnqueued(const Job& job) override {
    events.emplace_back("enqueued", job.id());
  }
  void OnJobSuspended(const Job& job) override {
    suspended_states.push_back(job.state());
    events.emplace_back("suspended", job.id());
  }
  std::vector<std::pair<std::string, JobId>> events;
  std::vector<JobState> suspended_states;
};

TEST(PoolObserverTest, PreemptionVictimsFireOnJobSuspended) {
  JobArena jobs;
  RecordingPoolObserver observer;
  MachineArena machines(PoolId(0), jobs);
  machines.Add(4, 16384, 1.0);
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, false, true,
                    &observer);

  Job victim_a = jobs.Create(Spec(0, 2, 1024));
  Job victim_b = jobs.Create(Spec(1, 2, 1024));
  victim_a.OnSubmitted(0);
  victim_b.OnSubmitted(0);
  ASSERT_EQ(pool.TryPlace(victim_a, 0).outcome, PlaceOutcome::kStarted);
  ASSERT_EQ(pool.TryPlace(victim_b, 0).outcome, PlaceOutcome::kStarted);
  observer.events.clear();

  Job preemptor = jobs.Create(Spec(2, 4, 1024, workload::kHighPriority));
  preemptor.OnSubmitted(10);
  const PlaceResult result = pool.TryPlace(preemptor, 10);
  ASSERT_EQ(result.outcome, PlaceOutcome::kStarted);
  ASSERT_EQ(result.suspended.size(), 2u);

  // Both victims notified, each already in kSuspended (bookkeeping settled
  // before the hook), and all before the preemptor's own start event.
  ASSERT_EQ(observer.events.size(), 3u);
  EXPECT_EQ(observer.events[0],
            (std::pair<std::string, JobId>{"suspended", JobId(0)}));
  EXPECT_EQ(observer.events[1],
            (std::pair<std::string, JobId>{"suspended", JobId(1)}));
  EXPECT_EQ(observer.events[2],
            (std::pair<std::string, JobId>{"started", JobId(2)}));
  for (const JobState state : observer.suspended_states) {
    EXPECT_EQ(state, JobState::kSuspended);
  }
}

// Simulation-level counterpart: every preemption in a full run reaches
// SimulationObserver::OnJobSuspended exactly once.
class CountingSimObserver final : public SimulationObserver {
 public:
  void OnJobSuspended(const Job& job) override {
    (void)job;
    ++suspended;
  }
  void OnJobEvicted(const Job& job) override {
    (void)job;
    ++evicted;
  }
  void OnJobKilled(const Job& job) override {
    (void)job;
    ++killed;
  }
  int suspended = 0;
  int evicted = 0;
  int killed = 0;
};

TEST(SimulationObserverTest, PreemptionsReachObservers) {
  workload::JobSpec low = Spec(0, 4, 1024);
  low.submit_time = 0;
  low.runtime = MinutesToTicks(100);
  workload::JobSpec high =
      Spec(1, 4, 1024, workload::kHighPriority);
  high.submit_time = MinutesToTicks(10);
  high.runtime = MinutesToTicks(20);
  const workload::Trace trace({low, high});

  ClusterConfig config;
  PoolConfig pool;
  pool.machine_groups.push_back(
      {.count = 1, .cores = 4, .memory_mb = 16384, .speed = 1.0});
  config.pools.push_back(pool);

  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  NetBatchSimulation sim(config, trace, scheduler, policy);
  CountingSimObserver observer;
  sim.AddObserver(&observer);
  sim.Run();

  EXPECT_EQ(observer.suspended, 1);
  EXPECT_EQ(sim.preemption_count(), 1u);
  EXPECT_EQ(observer.evicted, 0);
  EXPECT_EQ(observer.killed, 0);
}

// ---------------------------------------------------------------------------
// Memory-aware backfill gate: the gate must stay conservative — a queue
// whose minimum-core and minimum-memory demands come from different jobs
// must still be walked when the machine could satisfy the combination.
// ---------------------------------------------------------------------------

TEST(BackfillGateTest, MemoryGateDoesNotSkipSchedulableWork) {
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  machines.Add(4, 4096, 1.0);
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, false);

  // Hog takes the whole machine; two jobs queue behind it. The queue's
  // core minimum (1) comes from the memory-heavy job, its memory minimum
  // (512) from the 2-core job — passing the gate must not imply a fit,
  // and failing jobs must not block the fitting one behind them.
  Job hog = jobs.Create(Spec(0, 4, 4096));
  hog.OnSubmitted(0);
  ASSERT_EQ(pool.TryPlace(hog, 0).outcome, PlaceOutcome::kStarted);
  Job memory_heavy = jobs.Create(Spec(1, 1, 32768));  // never fits: 32 GB
  Job small = jobs.Create(Spec(2, 2, 512));
  memory_heavy.OnSubmitted(1);
  small.OnSubmitted(2);
  ASSERT_EQ(pool.TryPlace(memory_heavy, 1).outcome, PlaceOutcome::kNotEligible);
  ASSERT_EQ(pool.TryPlace(small, 2).outcome, PlaceOutcome::kQueued);
  Job medium = jobs.Create(Spec(3, 1, 2048));
  medium.OnSubmitted(3);
  ASSERT_EQ(pool.TryPlace(medium, 3).outcome, PlaceOutcome::kQueued);

  const std::vector<JobId> scheduled =
      pool.OnJobCompleted(hog, MinutesToTicks(30));
  // Queue order is FIFO: small (id 2) then medium (id 3); both fit.
  ASSERT_EQ(scheduled.size(), 2u);
  EXPECT_EQ(scheduled[0], JobId(2));
  EXPECT_EQ(scheduled[1], JobId(3));
  EXPECT_EQ(jobs.at(JobId(2)).state(), JobState::kRunning);
  EXPECT_EQ(jobs.at(JobId(3)).state(), JobState::kRunning);
}

TEST(BackfillGateTest, MemoryExhaustedMachineStartsNothing) {
  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  machines.Add(64, 4096, 1.0);
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, false);

  // Hog claims all memory but leaves 62 idle cores.
  Job hog = jobs.Create(Spec(0, 2, 4096));
  hog.OnSubmitted(0);
  ASSERT_EQ(pool.TryPlace(hog, 0).outcome, PlaceOutcome::kStarted);
  for (JobId::ValueType j = 1; j <= 16; ++j) {
    Job waiter = jobs.Create(Spec(j, 1, 2048));
    waiter.OnSubmitted(j);
    ASSERT_EQ(pool.TryPlace(waiter, j).outcome, PlaceOutcome::kQueued);
  }

  // Free cores abound but the memory gate (min waiting demand 2048 MB >
  // 0 MB free) correctly proves no waiting job can start.
  EXPECT_TRUE(pool.Backfill(MachineId(0), 100).empty());
  EXPECT_EQ(pool.QueueLength(), 16u);
  CollectSink sink;
  pool.AuditInvariants(100, sink);
  EXPECT_TRUE(sink.violations.empty()) << sink.Describe();
}

// ---------------------------------------------------------------------------
// Cross-site widening must work for both paper selectors (the random
// selector used to ignore the flag).
// ---------------------------------------------------------------------------

enum class SelectorKind { kLowestUtilization, kRandom };

class CrossSiteBothSelectorsTest
    : public ::testing::TestWithParam<SelectorKind> {};

TEST_P(CrossSiteBothSelectorsTest, CrossSiteEscapesCandidateRestriction) {
  std::unique_ptr<core::PoolSelector> in_site;
  std::unique_ptr<core::PoolSelector> cross_site;
  if (GetParam() == SelectorKind::kLowestUtilization) {
    in_site = std::make_unique<core::LowestUtilizationSelector>(
        true, /*cross_site=*/false);
    cross_site = std::make_unique<core::LowestUtilizationSelector>(
        true, /*cross_site=*/true);
  } else {
    in_site = std::make_unique<core::RandomSelector>(7u, /*cross_site=*/false);
    cross_site = std::make_unique<core::RandomSelector>(7u, /*cross_site=*/true);
  }

  ClusterConfig config;
  for (int p = 0; p < 3; ++p) {
    PoolConfig pool;
    pool.machine_groups.push_back(
        {.count = 1, .cores = 4, .memory_mb = 16384, .speed = 1.0});
    config.pools.push_back(pool);
  }
  // Pool 0 fully busy for the whole probe window.
  workload::JobSpec busy = Spec(0, 4, 1024);
  busy.submit_time = 0;
  busy.runtime = MinutesToTicks(1000);
  busy.candidate_pools = {PoolId(0)};
  const workload::Trace trace({busy});

  sched::RoundRobinScheduler scheduler;
  core::NoResPolicy policy;
  NetBatchSimulation sim(config, trace, scheduler, policy);
  sim.simulator().ScheduleAt(MinutesToTicks(5), [&] {
    workload::JobSpec probe_spec = Spec(99, 1, 1024);
    probe_spec.candidate_pools = {PoolId(0)};
    JobArena probe_table;
    Job probe = probe_table.Create(probe_spec);
    probe.OnSubmitted(0);
    probe.set_pool(PoolId(0));
    // Restricted to its saturated home pool, the in-site selector has
    // nowhere to go; the cross-site variant must find an idle pool.
    EXPECT_FALSE(in_site->Select(probe, PoolId(0), sim).has_value());
    const auto target = cross_site->Select(probe, PoolId(0), sim);
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, PoolId(0));
  });
  sim.Run();
}

INSTANTIATE_TEST_SUITE_P(Selectors, CrossSiteBothSelectorsTest,
                         ::testing::Values(SelectorKind::kLowestUtilization,
                                           SelectorKind::kRandom),
                         [](const ::testing::TestParamInfo<SelectorKind>& i) {
                           return i.param == SelectorKind::kLowestUtilization
                                      ? std::string("LowestUtilization")
                                      : std::string("Random");
                         });

}  // namespace
}  // namespace netbatch::cluster
