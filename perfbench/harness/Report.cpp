//===-- perfbench/harness/Report.cpp - Metrics and result line ------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

void Outcome::fail(const std::string &Why) {
  Failures.push_back(Why);
  std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
}

double percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(Values.size())));
  Rank = std::clamp<size_t>(Rank, 1, Values.size());
  return Values[Rank - 1];
}

double median(std::vector<double> Values) {
  return percentile(std::move(Values), 0.5);
}

Tail tail(std::vector<double> Values, double Wanted) {
  Tail T;
  T.Samples = Values.size();
  if (Values.empty())
    return T;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  size_t Rank = static_cast<size_t>(std::ceil(Wanted * double(N)));
  if (N - Rank < 10)
    Rank = N >= 20 ? N - 10 : (N + 1) / 2;
  T.Percentile = double(Rank) / double(N);
  T.Value = Values[Rank - 1];
  T.Beyond = N - Rank;
  return T;
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

unsigned hostCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return 1;
}

void printResult(Outcome &Out, bool Traced) {
  // JSON has no NaN or infinity; a non-finite measurement is a failed
  // run, reported as 0.
  for (auto *Values : {&Out.EndToEnd, &Out.PerLayer})
    for (auto &[Name, Value] : *Values)
      if (!std::isfinite(Value)) {
        Out.fail(Name + " is not finite");
        Value = 0.0;
      }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Out.correct() ? "true" : "false",
              (unsigned long long)Out.Attempted,
              (unsigned long long)Out.Failed);
  const char *Sep = "";
  for (const auto &[Name, Value] : Traced ? Out.PerLayer : Out.EndToEnd) {
    std::printf("%s\"%s\": %.17g", Sep, Name.c_str(), Value);
    Sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace perfbench
