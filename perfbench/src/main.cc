// nokbench: the NoK benchmark driver.
//
//   nokbench --workload read_paged|read_bp|update_read --seed N
//            --seconds S --trace 0|1 --work-dir DIR [--smoke]
//
// Prints one JSON object on its last stdout line (report.h).  Exits
// non-zero, printing no result, when a workload cannot run.  perfbench's
// run.py builds this binary and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workload_common.h"

namespace {

bool ParseArgs(int argc, char** argv, nokbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  nokbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nokbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--smoke]\n");
    return 2;
  }
  nokbench::Report report;
  report.SetEnv("workload", args.workload);
  report.SetEnv("seed", static_cast<double>(args.seed));
  report.SetEnv("seconds", args.seconds);
  report.SetEnv("trace", args.trace ? 1.0 : 0.0);
  report.SetEnv("smoke", args.smoke ? 1.0 : 0.0);
  report.SetEnv("nproc", std::thread::hardware_concurrency());
  report.SetEnv("compiler", NOKBENCH_COMPILER);
  report.SetEnv("build_type", NOKBENCH_BUILD_TYPE);

  nok::Status status;
  if (args.workload == "read_paged") {
    status = nokbench::RunReadWorkload(args, nok::NavMode::kPaged, &report);
  } else if (args.workload == "read_bp") {
    status = nokbench::RunReadWorkload(args, nok::NavMode::kBp, &report);
  } else if (args.workload == "update_read") {
    status = nokbench::RunUpdateWorkload(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
