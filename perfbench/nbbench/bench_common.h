// Shared plumbing of nbbench: the clock, percentiles, peak RSS, CPU time,
// and the one JSON object every subcommand prints as its last stdout line.
//
// nbbench reports raw samples; perfbench/run.py turns them into medians,
// quartiles and the benchmark's result line.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"

namespace nbbench {

// Monotonic wall clock (steady_clock) in nanoseconds.
std::uint64_t NowNs();

// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), in ns.
std::uint64_t ThreadCpuNs();

// CPU time all threads of `pid` have run, in seconds, summed from
// /proc/<pid>/task/*/schedstat (nanoseconds; time the hypervisor stole
// from a vCPU does not count). Returns 0 when unreadable.
double ProcessCpuSeconds(pid_t pid);

// What timing an empty section costs: the mean gap between two back-to-back
// NowNs() calls, measured once per process. Traced metrics subtract it per
// timed call so that a layer doing nothing reads ~0, not the clock's cost.
double ClockOverheadNs();

inline double NsToSeconds(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e9;
}

// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
// Returns 0 for an empty vector.
double Percentile(std::vector<double>& values, double q);

// VmHWM (peak resident set) of `pid` in MiB, read from /proc/<pid>/status;
// pid 0 reads this process. Returns 0 when the file cannot be read.
double PeakRssMb(pid_t pid);

// What one nbbench invocation measured and checked.
class Result {
 public:
  // An end-to-end sample (untraced measurement).
  void Sample(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }
  // A per-layer sample (traced measurement).
  void Layer(const std::string& metric, double value) {
    layers_[metric].push_back(value);
  }
  // One output check; a failed check marks the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  // Operations attempted and how many of them failed.
  void Attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Param(const std::string& key, const std::string& value) {
    params_[key] = value;
  }

  bool checks_passed() const { return failed_checks_ == 0; }
  std::string ToJson() const;

 private:
  struct CheckRecord {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<double>> layers_;
  std::vector<CheckRecord> checks_;
  std::size_t failed_checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::string> params_;
};

// Exits with status 2 when `flags` holds a flag no getter read (a typo'd
// flag must not silently fall back to a default).
void RejectUnusedFlags(const netbatch::Flags& flags);

// Subcommands: each reads its flags, measures, and records into `result`.
void RunSimBench(const netbatch::Flags& flags, Result& result);
void RunServeBench(const netbatch::Flags& flags, Result& result);

}  // namespace nbbench
