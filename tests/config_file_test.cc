// Tests for the INI-style experiment config loader.
#include <gtest/gtest.h>

#include <sstream>

#include "runner/config_file.h"

namespace netbatch::runner {
namespace {

LoadedExperiment Load(const std::string& text) {
  std::istringstream in(text);
  return LoadExperiment(in);
}

TEST(ConfigFileTest, DefaultsWhenEmpty) {
  const LoadedExperiment loaded = Load("");
  EXPECT_EQ(loaded.policy_name, "NoRes");
  EXPECT_EQ(loaded.config.scheduler, InitialSchedulerKind::kRoundRobin);
  EXPECT_EQ(loaded.config.scenario.cluster.pools.size(), 20u);
}

TEST(ConfigFileTest, ParsesFullExperimentSection) {
  const LoadedExperiment loaded = Load(R"(
# a comment
[experiment]
scenario   = high        ; inline comment
scale      = 0.5
seed       = 7
scheduler  = util
staleness_min = 15
policy     = ResSusWaitRand
threshold_min = 45
overhead_min  = 5
checkpoint_min = 30
)");
  EXPECT_EQ(loaded.policy_name, "ResSusWaitRand");
  EXPECT_EQ(loaded.config.scheduler, InitialSchedulerKind::kUtilization);
  EXPECT_EQ(loaded.config.scheduler_staleness, MinutesToTicks(15));
  EXPECT_EQ(loaded.config.policy_options.wait_threshold, MinutesToTicks(45));
  EXPECT_EQ(loaded.config.sim_options.restart_overhead, MinutesToTicks(5));
  EXPECT_EQ(loaded.config.sim_options.checkpoint_interval,
            MinutesToTicks(30));
  // scenario=high halves capacity relative to normal at the same scale.
  const auto normal_cores = NormalLoadScenario(0.5).cluster.TotalCores();
  EXPECT_LT(loaded.config.scenario.cluster.TotalCores(), normal_cores);
}

TEST(ConfigFileTest, ParsesOutagesSection) {
  const LoadedExperiment loaded = Load(R"(
[experiment]
scenario = normal
[outages]
mtbf_min = 10080
mttr_min = 120
)");
  EXPECT_DOUBLE_EQ(loaded.config.sim_options.outages.mtbf_minutes, 10080.0);
  EXPECT_DOUBLE_EQ(loaded.config.sim_options.outages.mttr_minutes, 120.0);
}

TEST(ConfigFileTest, UnknownKeyAborts) {
  EXPECT_DEATH(Load("[experiment]\ntypo_key = 1\n"), "unknown key");
  // There is one simulation engine and no `shards` key: an INI that still
  // sets it must abort rather than run as if the key were honoured.
  EXPECT_DEATH(Load("[experiment]\nshards = 4\n"), "unknown key");
}

TEST(ConfigFileTest, UnknownSectionAborts) {
  EXPECT_DEATH(Load("[nonsense]\nx = 1\n"), "unknown config section");
}

TEST(ConfigFileTest, KeyOutsideSectionAborts) {
  EXPECT_DEATH(Load("x = 1\n"), "outside any");
}

TEST(ConfigFileTest, MalformedValueAborts) {
  EXPECT_DEATH(Load("[experiment]\nscale = fast\n"), "not a number");
  EXPECT_DEATH(Load("[experiment]\nseed = 1.5\n"), "not an integer");
}

TEST(ConfigFileTest, UnknownScenarioAborts) {
  EXPECT_DEATH(Load("[experiment]\nscenario = mega\n"), "unknown scenario");
}

}  // namespace
}  // namespace netbatch::runner
