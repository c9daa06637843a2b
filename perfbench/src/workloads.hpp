#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Paper-scale input sizes (gen lubm --scale 500, gen uobm --scale 100).
inline constexpr std::uint32_t kLubmUniversities = 500;
inline constexpr std::uint32_t kUobmUniversities = 100;
/// Host budget: at most this many client threads, ingest threads,
/// workers or partitions per workload.
inline constexpr unsigned kThreads = 4;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;  // prepared closures and references
  std::string work_dir;  // work files (snapshots, trace output)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Run one workload: set up, measure for cfg.seconds, check every output.
[[nodiscard]] RunResult run_workload(const RunConfig& cfg);

/// Build the inputs a workload reads from cfg.data_dir, in a process of
/// their own so their memory never shows in the measured run:
///   "lubm" — the LUBM-500 closure snapshot (served workloads) and the
///            single-store reference for lubm-cluster;
///   "uobm" — the UOBM-100 reference closure for uobm-closure.
/// Returns false (with a message on stderr) on failure.
bool prepare(const std::string& what, const RunConfig& cfg);

}  // namespace perfbench
