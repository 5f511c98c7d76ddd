// The flat run description the INI config-file loader (runner/config_file)
// and netbatch_cli's single-run mode fill in, and its bridge into the sweep
// API. Runs themselves go through runner/sweep.h: SpecFromConfig turns a
// config into an `ExperimentSpec` for RunSingle / RunSpec / RunSweep.
#pragma once

#include <string>

#include "runner/sweep.h"

namespace netbatch::runner {

struct ExperimentConfig {
  Scenario scenario;
  InitialSchedulerKind scheduler = InitialSchedulerKind::kRoundRobin;
  // Staleness of the utilization snapshot used by the utilization-based
  // initial scheduler (0 = perfectly fresh information).
  Ticks scheduler_staleness = 0;
  core::PolicyKind policy = core::PolicyKind::kNoRes;
  core::PolicyOptions policy_options;
  cluster::SimulationOptions sim_options;
};

// Bridges an ExperimentConfig into the sweep API. The spec's replication
// seed is the scenario's workload seed, so a config-file run replays the
// trace that seed generates.
ExperimentSpec SpecFromConfig(const ExperimentConfig& config,
                              std::string scenario_name = "custom");

}  // namespace netbatch::runner
