// dqr_perfbench: runs one named workload for a fixed time, checks every
// answer, and prints one JSON result line (see README.md).
//
//   dqr_perfbench --workload paper_1d|grid_2d|explore_serve --seed N
//                 --seconds S --trace 0|1 [--corrupt-answer 1]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: dqr_perfbench --workload "
               "paper_1d|grid_2d|explore_serve --seed N --seconds S "
               "--trace 0|1 [--corrupt-answer 0|1]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dqr::perfbench::g_process_start = dqr::perfbench::Clock::now();
  dqr::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--corrupt-answer") {
      args.corrupt_answer = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  dqr::perfbench::Report report;
  int status = 0;
  if (args.workload == "paper_1d") {
    status = dqr::perfbench::RunPaper1d(args, &report);
  } else if (args.workload == "grid_2d") {
    status = dqr::perfbench::RunGrid2d(args, &report);
  } else if (args.workload == "explore_serve") {
    status = dqr::perfbench::RunExploreServe(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (status != 0) return status;
  dqr::perfbench::PrintReport(report);
  return report.correct ? 0 : 1;
}
