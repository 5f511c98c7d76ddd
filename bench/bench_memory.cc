// Memory-footprint benchmark for the SoA cluster core (BENCH_memory.json):
// resident bytes per machine at 1M machines, resident bytes per job slot at
// 10M reserved slots, and — the arena contract — the number of heap
// allocations performed after Reserve by job creation (must be zero for
// specs without candidate-pool lists) and by a pool's wait queue (must be
// zero: it is threaded through the arena's link columns).
//
// Run it on a quiet host and read four lines: wait_queue, machines, jobs,
// totals. The wait-queue phase runs first and needs little memory; the
// others need ~2.4 GB. The global operator new override counts allocations
// only while g_count is set, so the counters isolate the measured loops
// from everything around them.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cluster/job.h"
#include "cluster/machine.h"
#include "cluster/pool.h"
#include "common/check.h"
#include "common/time.h"

static unsigned long long g_allocs = 0;
static unsigned long long g_alloc_bytes = 0;
static bool g_count = false;

void* operator new(std::size_t size) {
  if (g_count) {
    ++g_allocs;
    g_alloc_bytes += size;
  }
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

static long RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  long total = 0, rss = 0;
  if (f) {
    if (std::fscanf(f, "%ld %ld", &total, &rss) != 2) rss = 0;
    std::fclose(f);
  }
  return rss * 4096L;
}

using namespace netbatch;
using namespace netbatch::cluster;

// N enqueue/remove cycles over one saturated pool after Reserve: every
// submit waits (two priority classes, every core count a machine has), and
// the oldest waiter leaves the queue the way wait-timeout rescheduling
// takes it. Returns the allocations the cycles performed.
static unsigned long long WaitQueueAllocations(std::size_t cycles) {
  constexpr std::size_t kMachines = 4;
  constexpr std::int32_t kCores = 8;
  constexpr std::size_t kWindow = 1000;  // jobs waiting at once
  JobArena jobs;
  jobs.Reserve(cycles + kMachines);
  MachineArena machines(PoolId(0), jobs);
  for (std::size_t m = 0; m < kMachines; ++m) machines.Add(kCores, 32768, 1.0);
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, true);
  // High-priority work fills every core, so nothing later starts or
  // preempts.
  for (std::size_t m = 0; m < kMachines; ++m) {
    workload::JobSpec spec;
    spec.id = JobId(static_cast<JobId::ValueType>(cycles + m));
    spec.cores = kCores;
    spec.runtime = 1000;
    spec.priority = workload::kHighPriority;
    Job job = jobs.Create(std::move(spec));
    job.OnSubmitted(0);
    pool.TryPlace(job, 0);
  }
  g_allocs = 0;
  g_count = true;
  for (std::size_t j = 0; j < cycles; ++j) {
    const auto now = static_cast<Ticks>(j);
    workload::JobSpec spec;
    spec.id = JobId(static_cast<JobId::ValueType>(j));
    spec.cores = static_cast<std::int32_t>(1 + j % kCores);
    spec.memory_mb = 1024;
    spec.runtime = 1000;
    spec.priority =
        j % 2 == 0 ? workload::kLowPriority : workload::kHighPriority;
    Job job = jobs.Create(std::move(spec));
    job.OnSubmitted(now);
    pool.TryPlace(job, now);
    if (j >= kWindow) {
      Job oldest = jobs.at(JobId(static_cast<JobId::ValueType>(j - kWindow)));
      pool.RemoveFromQueue(oldest.id());
      oldest.OnRestart(now, PoolId(0));
    }
  }
  g_count = false;
  NETBATCH_CHECK(pool.QueueLength() == kWindow, "probe jobs failed to queue");
  pool.CheckInvariants();
  return g_allocs;
}

int main() {
  constexpr std::size_t kWaitCycles = 1'000'000;
  const unsigned long long wait_allocs = WaitQueueAllocations(kWaitCycles);
  std::printf("wait_queue: cycles=%zu, allocs_after_reserve=%llu\n",
              kWaitCycles, wait_allocs);
  std::fflush(stdout);

  const long rss0 = RssBytes();

  // --- 1M machines in pools of 40k (the paper's pool scale) ---------------
  constexpr std::size_t kMachines = 1'000'000;
  constexpr std::size_t kPerPool = 40'000;
  JobArena dummy_jobs;
  std::vector<std::unique_ptr<PhysicalPool>> pools;
  for (std::size_t base = 0; base < kMachines; base += kPerPool) {
    const PoolId pool_id(static_cast<PoolId::ValueType>(base / kPerPool));
    MachineArena machines(pool_id, dummy_jobs);
    machines.Reserve(kPerPool);
    for (std::size_t m = 0; m < kPerPool; ++m) {
      machines.Add(8, 32768, 1.0);
    }
    pools.push_back(std::make_unique<PhysicalPool>(
        pool_id, std::move(machines), dummy_jobs, true));
  }
  const long rss_machines = RssBytes();
  std::printf("machines: %zu, bytes=%ld, bytes/machine=%.1f\n", kMachines,
              rss_machines - rss0,
              double(rss_machines - rss0) / double(kMachines));

  // --- 10M job slots ------------------------------------------------------
  constexpr std::size_t kJobs = 10'000'000;
  JobArena jobs;
  jobs.Reserve(kJobs);
  g_allocs = 0;
  g_alloc_bytes = 0;
  g_count = true;
  for (std::size_t j = 0; j < kJobs; ++j) {
    workload::JobSpec spec;
    spec.id = JobId(static_cast<JobId::ValueType>(j));
    spec.submit_time = static_cast<Ticks>(j);
    spec.runtime = 1000;
    jobs.Create(std::move(spec));
  }
  g_count = false;
  const long rss_jobs = RssBytes();
  std::printf(
      "jobs: %zu, bytes=%ld, bytes/job=%.1f, allocs_after_reserve=%llu, "
      "alloc_bytes=%llu\n",
      kJobs, rss_jobs - rss_machines,
      double(rss_jobs - rss_machines) / double(kJobs), g_allocs,
      g_alloc_bytes);

  // Self-accounted column bytes, for cross-checking the RSS deltas.
  unsigned long long arena_machine_bytes = 0;
  for (const auto& pool : pools) {
    arena_machine_bytes += pool->machines().MemoryBytes();
  }
  std::printf("arena_bytes_machines=%llu, arena_bytes_jobs=%zu\n",
              arena_machine_bytes, jobs.MemoryBytes());
  std::printf("total_bytes=%ld\n", rss_jobs - rss0);
  return 0;
}
