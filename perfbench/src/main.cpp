// spi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//               [--spans FILE]
//
// Runs one closed-loop TCP workload and prints two lines on stdout: the
// run's environment record, then the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). Exits non-zero, printing no result, when a server or the
// proxy fails to start or no exchange completes.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::cerr << "spi_perfbench: " << message
            << "\nusage: spi_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\nworkloads:";
  for (const perfbench::WorkloadSpec& spec : perfbench::all_workloads()) {
    std::cerr << ' ' << spec.name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        return usage("unknown flag");
      }
    } catch (const std::exception&) {
      return usage("malformed number");
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (!spec) return usage("unknown workload");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  try {
    const perfbench::RunResult result = perfbench::run_workload(*spec, options);
    std::cout << "{\"environment\": " << result.environment << "}\n"
              << "{\"correct\": "
              << (result.mismatched_calls == 0 ? "true" : "false")
              << ", \"attempted\": " << result.attempted_calls
              << ", \"failed\": " << result.failed_calls
              << ", \"metrics\": " << result.metrics.to_json() << "}"
              << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "spi_perfbench: " << spec->name << ": " << error.what()
              << '\n';
    return 1;
  }
  return 0;
}
