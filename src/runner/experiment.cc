#include "runner/experiment.h"

#include <utility>

namespace netbatch::runner {

ExperimentSpec SpecFromConfig(const ExperimentConfig& config,
                              std::string scenario_name) {
  ExperimentSpec spec;
  spec.scenario_name = std::move(scenario_name);
  spec.scenario = config.scenario;
  spec.seed = config.scenario.workload.seed;
  spec.scheduler = config.scheduler;
  spec.scheduler_staleness = config.scheduler_staleness;
  spec.policy = config.policy;
  spec.policy_options = config.policy_options;
  spec.sim_options = config.sim_options;
  return spec;
}

}  // namespace netbatch::runner
