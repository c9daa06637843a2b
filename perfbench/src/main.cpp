// perfbench — the parowl end-to-end benchmark program.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data-dir DIR --work-dir DIR
//       Measure one workload; the last stdout line is the JSON result
//       {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
//       with --trace 0, per-layer metrics with --trace 1.
//   perfbench prepare lubm|uobm --seed N --data-dir DIR
//       Build the closure snapshot / reference a workload reads.
//
// perfbench/run.py builds this program and calls both commands.

#include <charconv>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

void print_result(const perfbench::RunResult& r, bool trace) {
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : trace ? r.per_layer : r.end_to_end) {
    std::cout << (first ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data-dir DIR --work-dir DIR\n"
               "       perfbench prepare lubm|uobm --seed N --data-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  perfbench::RunConfig cfg;
  std::string what;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--workload" && has_value) {
        cfg.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        cfg.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        cfg.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        cfg.trace = std::stoi(argv[++i]) != 0;
      } else if (a == "--data-dir" && has_value) {
        cfg.data_dir = argv[++i];
      } else if (a == "--work-dir" && has_value) {
        cfg.work_dir = argv[++i];
      } else if (command == "prepare" && what.empty() && a[0] != '-') {
        what = a;
      } else {
        std::cerr << "unknown argument " << a << "\n";
        return usage();
      }
    }
    if (command == "prepare") {
      return !what.empty() && !cfg.data_dir.empty() &&
                     perfbench::prepare(what, cfg)
                 ? 0
                 : 1;
    }
    if (command != "run" || cfg.workload.empty() || cfg.data_dir.empty() ||
        cfg.work_dir.empty()) {
      return usage();
    }
    std::filesystem::create_directories(cfg.work_dir);
    const perfbench::RunResult r = perfbench::run_workload(cfg);
    for (const auto* list : {&r.end_to_end, &r.per_layer}) {
      for (const perfbench::Metric& m : *list) {
        if (!std::isfinite(m.value)) {
          std::cerr << "metric " << m.name << " is not finite\n";
          return 3;
        }
      }
    }
    print_result(r, cfg.trace);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
