/// \file main.cpp
/// perfbench: the stage-resolved end-to-end benchmark of dominosyn.
///
/// Usage: perfbench --workload table_cold|explore_warm|serve_mixed --seed N
///                  --seconds S --trace 0|1 --rundir DIR [--dominod PATH]
///
/// --dominod defaults to the daemon built alongside perfbench.
///
/// Prints human-readable lines, then one JSON line with the result: the
/// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload table_cold|explore_warm|serve_mixed --seed N\n"
               "                 --seconds S --trace 0|1 --rundir DIR [--dominod PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.dominod = PERFBENCH_DOMINOD;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--dominod") args.dominod = value;
    else if (flag == "--rundir") args.rundir = value;
    else return usage();
  }
  if (argc % 2 == 0 || args.rundir.empty() || !(args.seconds > 0)) return usage();

  perfbench::Result result;
  try {
    int rc = 0;
    if (args.workload == "table_cold") rc = perfbench::run_table_cold(args, result);
    else if (args.workload == "explore_warm") rc = perfbench::run_explore_warm(args, result);
    else if (args.workload == "serve_mixed") rc = perfbench::run_serve_mixed(args, result);
    else return usage();
    if (rc != 0) return rc;
    if (!args.trace) {
      // failed ÷ attempted, as the share that passed: a metric that is 0 on
      // a healthy run cannot carry a relative bound.
      result.metric("ok_pct",
                    100.0 * (1.0 - static_cast<double>(result.failed()) /
                                       static_cast<double>(std::max<std::size_t>(1, result.attempted()))),
                    "%");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("%s\n", result.json().c_str());
  return 0;
}
