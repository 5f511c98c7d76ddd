#include "cluster/simulation.h"

#include <algorithm>

#include "common/distributions.h"

namespace netbatch::cluster {

namespace {

// Builders for the typed POD events the engine schedules. The stamp is the
// job's generation at scheduling time; Dispatch drops the event when the
// generations no longer match (the job transitioned meanwhile).
sim::Event JobEvent(EventKind kind, const Job& job) {
  sim::Event event;
  event.kind = static_cast<std::uint16_t>(kind);
  event.job = job.id();
  event.stamp = job.generation();
  return event;
}

sim::Event MachineEvent(EventKind kind, PoolId pool, MachineId machine) {
  sim::Event event;
  event.kind = static_cast<std::uint16_t>(kind);
  event.pool = pool;
  event.machine = machine;
  return event;
}

// FIFO lanes of the simulator's event queue. Both streams are scheduled in
// time order, so neither needs the heap: the trace is sorted by
// (submit_time, id), and every wait timeout fires one fixed policy
// threshold after a clock that never goes backwards.
constexpr std::size_t kArrivalLane = 0;
constexpr std::size_t kWaitTimeoutLane = 1;

sim::Event TickEvent(EventKind kind) {
  sim::Event event;
  event.kind = static_cast<std::uint16_t>(kind);
  return event;
}

}  // namespace

sched::CoreOptions NetBatchSimulation::CoreOptionsFrom(
    const SimulationOptions& options) {
  sched::CoreOptions core_options;
  core_options.restart_overhead = options.restart_overhead;
  core_options.checkpoint_interval = options.checkpoint_interval;
  core_options.transfer_matrix = options.transfer_matrix;
  core_options.dispatch_mode = options.dispatch_mode;
  core_options.audit_on_transitions = options.audit_on_transitions;
  return core_options;
}

NetBatchSimulation::NetBatchSimulation(const ClusterConfig& config,
                                       const workload::Trace& trace,
                                       InitialScheduler& scheduler,
                                       ReschedulingPolicy& policy,
                                       SimulationOptions options)
    : options_(std::move(options)),
      core_(config, scheduler, policy, /*host=*/*this,
            CoreOptionsFrom(options_)),
      outage_rng_(options_.outages.seed) {
  sim_.set_dispatcher(this);
  // Size the job index and the arrival lane for the trace up front so
  // neither reallocates mid-run (duplicates spill past this; that growth is
  // rare). The heap itself only ever holds the in-flight completions,
  // restarts, outages and ticks.
  core_.ReserveJobs(trace.size());
  sim_.ReserveLane(kArrivalLane, trace.size());
  // The core registered the cluster gauges in its constructor; adding the
  // sim gauges here keeps the registry's snapshot order unchanged.
  pending_events_ = &core_.counters().GetGauge("sim.pending_events");
  fired_events_ = &core_.counters().GetGauge("sim.fired_events");
  for (const workload::JobSpec& spec : trace.jobs()) {
    core_.AdmitJob(spec);
  }
  total_jobs_ = trace.size();
}

void NetBatchSimulation::Run() {
  for (const Job& job : core_.jobs()) {
    sim_.ScheduleFifoAt(kArrivalLane, job.submit_time(),
                        JobEvent(EventKind::kSubmit, job));
  }
  if (options_.outages.mtbf_minutes > 0) {
    NETBATCH_CHECK(options_.outages.mttr_minutes > 0,
                   "outage repair time must be positive");
    for (std::size_t p = 0; p < core_.PoolCount(); ++p) {
      const PoolId pool_id(static_cast<PoolId::ValueType>(p));
      for (const Machine& machine : core_.pool(pool_id).machines()) {
        ScheduleNextFailure(pool_id, machine.id());
      }
    }
  }
  if (options_.sampling_enabled && !core_.observers().empty()) {
    sim_.ScheduleAt(Ticks{0}, TickEvent(EventKind::kSampleTick));
  }
  if (options_.audit_period > 0) {
    sim_.ScheduleAt(Ticks{0}, TickEvent(EventKind::kAuditTick));
  }
  sim_.RunToCompletion();
  NETBATCH_CHECK(AllJobsFinished(),
                 "simulation ended with unfinished jobs");
  // Leave the gauges describing the end-of-run state even when no sampler
  // ran (sampling disabled or no observers attached).
  SampleGauges(sim_.Now());
}

void NetBatchSimulation::Dispatch(const sim::Event& event) {
  switch (static_cast<EventKind>(event.kind)) {
    case EventKind::kSubmit:
      core_.Submit(event.job, sim_.Now());
      break;
    case EventKind::kCompletion:
      core_.Complete(event.job, event.stamp, sim_.Now());
      break;
    case EventKind::kWaitTimeout:
      core_.OnWaitTimeout(event.job, event.stamp, sim_.Now());
      break;
    case EventKind::kRestartDelivery:
      core_.DeliverRestart(event.job, event.stamp, event.pool, sim_.Now());
      break;
    case EventKind::kMachineFailure:
      OnMachineFailure(event.pool, event.machine);
      break;
    case EventKind::kMachineRepair:
      OnMachineRepair(event.pool, event.machine);
      break;
    case EventKind::kSampleTick:
      OnSampleTick();
      break;
    case EventKind::kAuditTick:
      OnAuditTick();
      break;
    default:
      NETBATCH_CHECK(false, "unknown event kind");
  }
}

// ---- sched::CoreHost ------------------------------------------------------

void NetBatchSimulation::ArmCompletion(Job job, Ticks duration) {
  const sim::EventSeq seq =
      sim_.ScheduleAfter(duration, JobEvent(EventKind::kCompletion, job));
  job.set_pending_event(seq);
}

void NetBatchSimulation::CancelCompletion(Job job) {
  sim_.Cancel(job.pending_event());
  job.set_pending_event(sim::kNoEvent);
}

void NetBatchSimulation::ArmWaitTimeout(Job job, Ticks threshold) {
  sim_.ScheduleFifoAfter(kWaitTimeoutLane, threshold,
                         JobEvent(EventKind::kWaitTimeout, job));
}

void NetBatchSimulation::ScheduleRestartDelivery(Job job, PoolId target,
                                                 Ticks overhead) {
  sim::Event event = JobEvent(EventKind::kRestartDelivery, job);
  event.pool = target;
  sim_.ScheduleAfter(overhead, event);
}

void NetBatchSimulation::OnJobTerminal(const Job& job) {
  (void)job;
  if (AllJobsFinished()) {
    // Everything is finished; any residual events are generation-guarded
    // no-ops, so the loop can stop immediately.
    sim_.RequestStop();
  }
}

// ---- engine-owned periodic work -------------------------------------------

void NetBatchSimulation::OnSampleTick() {
  const Ticks now = sim_.Now();
  SampleGauges(now);
  for (SimulationObserver* obs : core_.observers()) obs->OnSample(now, *this);
  // Stop sampling once the last job settled (the loop is about to stop).
  if (AllJobsFinished()) return;
  sim_.ScheduleAfter(options_.sample_period,
                     TickEvent(EventKind::kSampleTick));
}

void NetBatchSimulation::OnAuditTick() {
  RunPeriodicAudit();
  if (AllJobsFinished()) return;
  sim_.ScheduleAfter(options_.audit_period, TickEvent(EventKind::kAuditTick));
}

void NetBatchSimulation::RunPeriodicAudit() {
  core_.counters().GetCounter("audit.runs").Increment();
  FailFastSink sink;
  AuditInvariants(sink);
}

void NetBatchSimulation::SampleGauges(Ticks now) {
  core_.RefreshGauges(now);
  pending_events_->Set(static_cast<std::int64_t>(sim_.PendingEvents()));
  fired_events_->Set(static_cast<std::int64_t>(sim_.FiredEvents()));
}

// ---- failure injection ----------------------------------------------------

void NetBatchSimulation::ScheduleNextFailure(PoolId pool, MachineId machine) {
  const double uptime_minutes =
      SampleExponential(outage_rng_, 1.0 / options_.outages.mtbf_minutes);
  sim_.ScheduleAfter(
      std::max<Ticks>(1, static_cast<Ticks>(uptime_minutes * kTicksPerMinute)),
      MachineEvent(EventKind::kMachineFailure, pool, machine));
}

void NetBatchSimulation::OnMachineFailure(PoolId pool_id, MachineId machine) {
  core_.FailMachine(pool_id, machine, sim_.Now());
  const double downtime_minutes =
      SampleExponential(outage_rng_, 1.0 / options_.outages.mttr_minutes);
  sim_.ScheduleAfter(
      std::max<Ticks>(1,
                      static_cast<Ticks>(downtime_minutes * kTicksPerMinute)),
      MachineEvent(EventKind::kMachineRepair, pool_id, machine));
}

void NetBatchSimulation::OnMachineRepair(PoolId pool_id, MachineId machine) {
  core_.RepairMachine(pool_id, machine, sim_.Now());
  ScheduleNextFailure(pool_id, machine);
}

// ---- invariants -----------------------------------------------------------

void NetBatchSimulation::AuditInvariants(InvariantSink& sink) const {
  const Ticks now = sim_.Now();
  core_.AuditInvariants(sink, now);
  // The trace-total bound is engine knowledge: the core admits jobs one at a
  // time and never learns how many the trace holds.
  if (!(core_.completed_count() + core_.rejected_count() <= total_jobs_)) {
    sink.Report(InvariantViolation{
        now, PoolId(), "terminal counters exceed total trace jobs",
        MachineId()});
  }
}

void NetBatchSimulation::CheckInvariants() const {
  FailFastSink sink;
  AuditInvariants(sink);
}

}  // namespace netbatch::cluster
