#include "runner/config_file.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/check.h"
#include "runner/parse.h"

namespace netbatch::runner {
namespace {

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

// Strips an inline comment introduced by " ;" or " #".
std::string_view StripInlineComment(std::string_view text) {
  for (std::size_t i = 1; i < text.size(); ++i) {
    if ((text[i] == ';' || text[i] == '#') &&
        (text[i - 1] == ' ' || text[i - 1] == '\t')) {
      return text.substr(0, i);
    }
  }
  return text;
}

double ParseDouble(std::string_view value) {
  const std::string copy(value);
  char* end = nullptr;
  const double parsed = std::strtod(copy.c_str(), &end);
  NETBATCH_CHECK(end == copy.c_str() + copy.size() && !copy.empty(),
                 "config value is not a number");
  return parsed;
}

std::int64_t ParseInt(std::string_view value) {
  std::int64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  NETBATCH_CHECK(ec == std::errc{} && ptr == value.data() + value.size(),
                 "config value is not an integer");
  return parsed;
}

}  // namespace

LoadedExperiment LoadExperiment(std::istream& in) {
  LoadedExperiment loaded;
  ExperimentConfig& config = loaded.config;

  std::string scenario = "normal";
  double scale = 0.25;
  std::uint64_t seed = 42;

  std::string section;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view view = Trim(line);
    if (view.empty() || view.front() == '#' || view.front() == ';') continue;
    if (view.front() == '[') {
      NETBATCH_CHECK(view.back() == ']', "unterminated section header");
      section = std::string(Trim(view.substr(1, view.size() - 2)));
      NETBATCH_CHECK(section == "experiment" || section == "outages",
                     "unknown config section");
      continue;
    }
    const std::size_t eq = view.find('=');
    NETBATCH_CHECK(eq != std::string_view::npos,
                   "config line is not key = value");
    const std::string key(Trim(view.substr(0, eq)));
    const std::string value(
        Trim(StripInlineComment(Trim(view.substr(eq + 1)))));
    NETBATCH_CHECK(!section.empty(), "key outside any [section]");

    if (section == "experiment") {
      if (key == "scenario") {
        scenario = value;
      } else if (key == "scale") {
        scale = ParseDouble(value);
      } else if (key == "seed") {
        seed = static_cast<std::uint64_t>(ParseInt(value));
      } else if (key == "scheduler") {
        NETBATCH_CHECK(value == "rr" || value == "util",
                       "scheduler must be rr or util");
        config.scheduler = value == "rr"
                               ? InitialSchedulerKind::kRoundRobin
                               : InitialSchedulerKind::kUtilization;
      } else if (key == "staleness_min") {
        config.scheduler_staleness = MinutesToTicks(ParseInt(value));
      } else if (key == "policy") {
        loaded.policy_name = value;
      } else if (key == "threshold_min") {
        config.policy_options.wait_threshold = MinutesToTicks(ParseInt(value));
      } else if (key == "overhead_min") {
        config.sim_options.restart_overhead = MinutesToTicks(ParseInt(value));
      } else if (key == "checkpoint_min") {
        config.sim_options.checkpoint_interval =
            MinutesToTicks(ParseInt(value));
      } else {
        NETBATCH_CHECK(false, "unknown key in [experiment]: " + key);
      }
    } else {  // outages
      if (key == "mtbf_min") {
        config.sim_options.outages.mtbf_minutes = ParseDouble(value);
      } else if (key == "mttr_min") {
        config.sim_options.outages.mttr_minutes = ParseDouble(value);
      } else {
        NETBATCH_CHECK(false, "unknown key in [outages]: " + key);
      }
    }
  }

  config.scenario = ResolveScenario(scenario, scale, seed);
  return loaded;
}

LoadedExperiment LoadExperimentFile(const std::string& path) {
  std::ifstream in(path);
  NETBATCH_CHECK(static_cast<bool>(in), "cannot open config file: " + path);
  return LoadExperiment(in);
}

// ---- workload presets ------------------------------------------------------

namespace {

// Shortest decimal form that round-trips exactly through strtod.
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

template <typename T>
std::string JoinInts(const std::vector<T>& values) {
  std::string out;
  for (const T& v : values) {
    if (!out.empty()) out += ",";
    out += std::to_string(v);
  }
  return out;
}

std::string JoinDoubles(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ",";
    out += FormatDouble(v);
  }
  return out;
}

std::string JoinPools(const std::vector<PoolId>& pools) {
  std::string out;
  for (PoolId p : pools) {
    if (!out.empty()) out += ",";
    out += std::to_string(p.value());
  }
  return out;
}

// Splits a comma-separated list; an empty value yields an empty list.
std::vector<std::string_view> SplitList(std::string_view value) {
  std::vector<std::string_view> items;
  while (!value.empty()) {
    const std::size_t comma = value.find(',');
    items.push_back(Trim(value.substr(0, comma)));
    if (comma == std::string_view::npos) break;
    value.remove_prefix(comma + 1);
  }
  return items;
}

std::vector<double> ParseDoubleList(std::string_view value) {
  std::vector<double> parsed;
  for (std::string_view item : SplitList(value)) {
    parsed.push_back(ParseDouble(item));
  }
  return parsed;
}

std::vector<std::int32_t> ParseInt32List(std::string_view value) {
  std::vector<std::int32_t> parsed;
  for (std::string_view item : SplitList(value)) {
    parsed.push_back(static_cast<std::int32_t>(ParseInt(item)));
  }
  return parsed;
}

std::vector<PoolId> ParsePoolList(std::string_view value) {
  std::vector<PoolId> parsed;
  for (std::string_view item : SplitList(value)) {
    parsed.emplace_back(static_cast<PoolId::ValueType>(ParseInt(item)));
  }
  return parsed;
}

void WriteRuntimeModel(std::ostream& out, const char* section,
                       const workload::RuntimeModel& model) {
  out << "[" << section << "]\n"
      << "lognormal_mu = " << FormatDouble(model.lognormal_mu) << "\n"
      << "lognormal_sigma = " << FormatDouble(model.lognormal_sigma) << "\n"
      << "tail_probability = " << FormatDouble(model.tail_probability) << "\n"
      << "tail_alpha = " << FormatDouble(model.tail_alpha) << "\n"
      << "min_minutes = " << FormatDouble(model.min_minutes) << "\n"
      << "max_minutes = " << FormatDouble(model.max_minutes) << "\n";
}

void SetRuntimeKey(workload::RuntimeModel& model, const std::string& section,
                   const std::string& key, std::string_view value) {
  if (key == "lognormal_mu") {
    model.lognormal_mu = ParseDouble(value);
  } else if (key == "lognormal_sigma") {
    model.lognormal_sigma = ParseDouble(value);
  } else if (key == "tail_probability") {
    model.tail_probability = ParseDouble(value);
  } else if (key == "tail_alpha") {
    model.tail_alpha = ParseDouble(value);
  } else if (key == "min_minutes") {
    model.min_minutes = ParseDouble(value);
  } else if (key == "max_minutes") {
    model.max_minutes = ParseDouble(value);
  } else {
    NETBATCH_CHECK(false, "unknown key in [" + section + "]: " + key);
  }
}

}  // namespace

void WriteWorkloadPreset(std::ostream& out,
                         const workload::GeneratorConfig& config) {
  out << "# NetBatchSim workload preset (runner/config_file.h). Usable\n"
         "# anywhere a scenario name is accepted, e.g. --scenario=<this file>.\n"
         "[workload]\n"
      << "seed = " << config.seed << "\n"
      << "duration_ticks = " << config.duration << "\n"
      << "num_pools = " << config.num_pools << "\n"
      << "low_jobs_per_minute = " << FormatDouble(config.low_jobs_per_minute)
      << "\n"
      << "diurnal_amplitude = " << FormatDouble(config.diurnal_amplitude)
      << "\n"
      << "core_choices = " << JoinInts(config.core_choices) << "\n"
      << "core_weights = " << JoinDoubles(config.core_weights) << "\n"
      << "high_core_choices = " << JoinInts(config.high_core_choices) << "\n"
      << "high_core_weights = " << JoinDoubles(config.high_core_weights)
      << "\n"
      << "memory_per_core_mb_lo = " << config.memory_per_core_mb_lo << "\n"
      << "memory_per_core_mb_hi = " << config.memory_per_core_mb_hi << "\n"
      << "task_size = " << config.task_size << "\n\n";
  WriteRuntimeModel(out, "runtime.low", config.low_runtime);
  out << "\n";
  WriteRuntimeModel(out, "runtime.high", config.high_runtime);
  if (!config.sites.empty()) {
    out << "\n[sites]\n";
    for (const auto& site : config.sites) {
      out << "site = " << JoinPools(site) << "\n";
    }
  }
  for (const auto& burst : config.bursts) {
    out << "\n[burst]\n"
        << "priority = " << burst.priority << "\n"
        << "owner = " << burst.owner << "\n"
        << "jobs_per_minute_on = " << FormatDouble(burst.jobs_per_minute_on)
        << "\n"
        << "jobs_per_minute_off = " << FormatDouble(burst.jobs_per_minute_off)
        << "\n"
        << "mean_burst_minutes = " << FormatDouble(burst.mean_burst_minutes)
        << "\n"
        << "mean_gap_minutes = " << FormatDouble(burst.mean_gap_minutes)
        << "\n"
        << "target_pools = " << JoinPools(burst.target_pools) << "\n";
    for (const auto& window : burst.scheduled_bursts) {
      out << "window = " << FormatDouble(window.start_minute) << ","
          << FormatDouble(window.length_minutes) << "\n";
    }
  }
}

void WriteWorkloadPresetFile(const std::string& path,
                             const workload::GeneratorConfig& config) {
  std::ofstream out(path);
  NETBATCH_CHECK(static_cast<bool>(out),
                 "cannot open preset file for writing: " + path);
  WriteWorkloadPreset(out, config);
}

workload::GeneratorConfig LoadWorkloadPreset(std::istream& in) {
  workload::GeneratorConfig config;
  config.sites.clear();

  std::string section;
  std::string line;
  bool saw_workload = false;
  while (std::getline(in, line)) {
    std::string_view view = Trim(line);
    if (view.empty() || view.front() == '#' || view.front() == ';') continue;
    if (view.front() == '[') {
      NETBATCH_CHECK(view.back() == ']', "unterminated section header");
      section = std::string(Trim(view.substr(1, view.size() - 2)));
      if (section == "workload") {
        saw_workload = true;
      } else if (section == "burst") {
        config.bursts.emplace_back();
      } else {
        NETBATCH_CHECK(section == "runtime.low" || section == "runtime.high" ||
                           section == "sites",
                       "unknown preset section: " + section);
      }
      continue;
    }
    const std::size_t eq = view.find('=');
    NETBATCH_CHECK(eq != std::string_view::npos,
                   "preset line is not key = value");
    const std::string key(Trim(view.substr(0, eq)));
    const std::string value(
        Trim(StripInlineComment(Trim(view.substr(eq + 1)))));
    NETBATCH_CHECK(!section.empty(), "key outside any [section]");

    if (section == "workload") {
      if (key == "seed") {
        config.seed = static_cast<std::uint64_t>(ParseInt(value));
      } else if (key == "duration_ticks") {
        config.duration = ParseInt(value);
      } else if (key == "num_pools") {
        config.num_pools = static_cast<std::uint32_t>(ParseInt(value));
      } else if (key == "low_jobs_per_minute") {
        config.low_jobs_per_minute = ParseDouble(value);
      } else if (key == "diurnal_amplitude") {
        config.diurnal_amplitude = ParseDouble(value);
      } else if (key == "core_choices") {
        config.core_choices = ParseInt32List(value);
      } else if (key == "core_weights") {
        config.core_weights = ParseDoubleList(value);
      } else if (key == "high_core_choices") {
        config.high_core_choices = ParseInt32List(value);
      } else if (key == "high_core_weights") {
        config.high_core_weights = ParseDoubleList(value);
      } else if (key == "memory_per_core_mb_lo") {
        config.memory_per_core_mb_lo = ParseInt(value);
      } else if (key == "memory_per_core_mb_hi") {
        config.memory_per_core_mb_hi = ParseInt(value);
      } else if (key == "task_size") {
        config.task_size = static_cast<std::uint32_t>(ParseInt(value));
      } else {
        NETBATCH_CHECK(false, "unknown key in [workload]: " + key);
      }
    } else if (section == "runtime.low") {
      SetRuntimeKey(config.low_runtime, section, key, value);
    } else if (section == "runtime.high") {
      SetRuntimeKey(config.high_runtime, section, key, value);
    } else if (section == "sites") {
      NETBATCH_CHECK(key == "site", "unknown key in [sites]: " + key);
      config.sites.push_back(ParsePoolList(value));
    } else {  // burst
      workload::BurstStreamConfig& burst = config.bursts.back();
      if (key == "priority") {
        burst.priority = static_cast<workload::Priority>(ParseInt(value));
      } else if (key == "owner") {
        burst.owner = static_cast<workload::OwnerId>(ParseInt(value));
      } else if (key == "jobs_per_minute_on") {
        burst.jobs_per_minute_on = ParseDouble(value);
      } else if (key == "jobs_per_minute_off") {
        burst.jobs_per_minute_off = ParseDouble(value);
      } else if (key == "mean_burst_minutes") {
        burst.mean_burst_minutes = ParseDouble(value);
      } else if (key == "mean_gap_minutes") {
        burst.mean_gap_minutes = ParseDouble(value);
      } else if (key == "target_pools") {
        burst.target_pools = ParsePoolList(value);
      } else if (key == "window") {
        const std::vector<double> parts = ParseDoubleList(value);
        NETBATCH_CHECK(parts.size() == 2,
                       "burst window must be start_minute,length_minutes");
        burst.scheduled_bursts.push_back(
            {.start_minute = parts[0], .length_minutes = parts[1]});
      } else {
        NETBATCH_CHECK(false, "unknown key in [burst]: " + key);
      }
    }
  }
  NETBATCH_CHECK(saw_workload, "preset file has no [workload] section");
  return config;
}

workload::GeneratorConfig LoadWorkloadPresetFile(const std::string& path) {
  std::ifstream in(path);
  NETBATCH_CHECK(static_cast<bool>(in), "cannot open preset file: " + path);
  return LoadWorkloadPreset(in);
}

}  // namespace netbatch::runner
