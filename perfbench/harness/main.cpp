//===-- perfbench/harness/main.cpp - Benchmark entry point ----------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Usage: perfbench --workload serve_cold|serve_warm|train_h100 --seed N
//                  --seconds S --trace 0|1 --slo-ms MS [--out-dir DIR]
//                  [--commit ID]
//
// Prints a context line (host CPUs, build type, SIMD, commit, seed),
// progress lines, and as its last line the result object. Exits 1 when
// an output check failed, 2 on bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_cold|serve_warm|train_h100 --seed N --seconds S "
               "--trace 0|1 --slo-ms MS [--out-dir DIR] [--commit ID]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Run;
  std::string Workload;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Workload = Value;
    } else if (Arg == "--seed") {
      Run.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
      if (!HaveSeed)
        usage("bad --seed");
    } else if (Arg == "--seconds") {
      Run.Seconds = std::strtod(Value.c_str(), &End);
      if (*End != '\0' || !(Run.Seconds > 0))
        usage("bad --seconds");
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        usage("bad --trace");
      Run.Trace = Value == "1";
    } else if (Arg == "--slo-ms") {
      Run.SloMs = std::strtod(Value.c_str(), &End);
      if (*End != '\0' || !(Run.SloMs > 0))
        usage("bad --slo-ms");
    } else if (Arg == "--out-dir") {
      Run.OutDir = Value;
    } else if (Arg == "--commit") {
      Run.Commit = Value;
    } else {
      usage(("unknown flag " + Arg).c_str());
    }
  }
  if (!HaveSeed)
    usage("--seed is required");
  if (!(Run.SloMs > 0))
    usage("--slo-ms is required");
  Run.Cpus = hostCpus();

  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
              "\"build_type\": \"%s\", \"simd\": %s, \"commit\": \"%s\", "
              "\"slo_ms\": %g, \"hidden\": 100}}\n",
              Workload.c_str(), (unsigned long long)Run.Seed, Run.Seconds,
              Run.Trace ? 1 : 0, Run.Cpus, PERFBENCH_BUILD_TYPE,
              PERFBENCH_SIMD ? "true" : "false", Run.Commit.c_str(), Run.SloMs);
  std::fflush(stdout);

  Outcome Out;
  if (Workload == "serve_cold")
    runServe(Run, /*Warm=*/false, Out);
  else if (Workload == "serve_warm")
    runServe(Run, /*Warm=*/true, Out);
  else if (Workload == "train_h100")
    runTrain(Run, Out);
  else
    usage("unknown --workload");

  printResult(Out, Run.Trace);
  return Out.correct() ? 0 : 1;
}
