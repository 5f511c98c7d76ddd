// nbbench — the benchmark's measuring binary.
//
//   nbbench sim   --presets=normal,high,highsusp --policy=ResSusWaitUtil ...
//   nbbench serve --mode=firehose|paced --netbatchd=<path> ...
//
// Each subcommand runs one workload for --seconds, checks its outputs, and
// prints one JSON object (raw samples, checks, provenance) as the last line
// of stdout. perfbench/run.py builds this binary, runs it, and aggregates.
// The exit code is 0 only when every output check passed.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "common/flags.h"

namespace nbbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ClockOverheadNs() {
  static const double overhead = [] {
    constexpr int kPairs = 200000;
    std::uint64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
      const std::uint64_t start = NowNs();
      total += NowNs() - start;
    }
    return static_cast<double>(total) / kPairs;
  }();
  return overhead;
}

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double ProcessCpuSeconds(pid_t pid) {
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  std::error_code error;
  double seconds = 0;
  for (const auto& task : std::filesystem::directory_iterator(tasks, error)) {
    std::ifstream in(task.path() / "schedstat");
    double ns = 0;
    if (in >> ns) seconds += ns / 1e9;
  }
  return seconds;
}

void Result::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) {
    ++failed_checks_;
    std::fprintf(stderr, "nbbench: CHECK FAILED %s: %s\n", name.c_str(),
                 detail.c_str());
  }
  checks_.push_back({name, ok, detail});
}

void RejectUnusedFlags(const netbatch::Flags& flags) {
  const auto unused = flags.UnusedFlags();
  if (!unused.empty()) {
    std::fprintf(stderr, "nbbench: unknown flag --%s\n",
                 unused.front().c_str());
    std::exit(2);
  }
}

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string SeriesMap(const std::map<std::string, std::vector<double>>& map) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : map) {
    out += (first ? "" : ", ") + Quote(name) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + Number(values[i]);
    }
    out += "]";
    first = false;
  }
  return out + "}";
}

}  // namespace

std::string Result::ToJson() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const CheckRecord& c = checks_[i];
    out += (i ? ", " : "") + std::string("{\"name\": ") + Quote(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + Quote(c.detail) + "}";
  }
  out += "], \"samples\": " + SeriesMap(samples_) +
         ", \"layers\": " + SeriesMap(layers_) + ", \"params\": {";
  bool first = true;
  for (const auto& [key, value] : params_) {
    out += (first ? "" : ", ") + Quote(key) + ": " + Quote(value);
    first = false;
  }
  return out + "}}";
}

}  // namespace nbbench

int main(int argc, char** argv) {
  const netbatch::Flags flags = netbatch::Flags::Parse(argc, argv);
  const std::string command =
      flags.positional().empty() ? "" : flags.positional().front();
  nbbench::Result result;
  result.Param("compiler", NBBENCH_COMPILER);
  result.Param("build_type", NBBENCH_BUILD_TYPE);
  result.Param("cxx_flags", NBBENCH_CXX_FLAGS);
  result.Param("nproc",
               std::to_string(std::thread::hardware_concurrency()));
  if (command == "sim") {
    nbbench::RunSimBench(flags, result);
  } else if (command == "serve") {
    nbbench::RunServeBench(flags, result);
  } else {
    std::fprintf(stderr, "usage: nbbench sim|serve [--flags]\n");
    return 2;
  }
  std::printf("%s\n", result.ToJson().c_str());
  return result.checks_passed() ? 0 : 1;
}
