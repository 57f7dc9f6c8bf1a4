//===-- perfbench/harness/Report.h - Metrics and result line ----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statistics the benchmark reports (medians and the percentile
/// rule) and the result line: one JSON object with "correct",
/// "attempted", "failed" and "metrics" as the last line of standard
/// output. An untraced run reports its end-to-end metrics, a traced run
/// its per-layer metrics, each as a bare number by name. BENCHMARK.json
/// is the one list of metric names and units; perfbench/run.py checks
/// the names against it and adds the units.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Everything one run of one workload produced.
struct Outcome {
  uint64_t Attempted = 0; ///< Requests sent or training steps taken.
  uint64_t Failed = 0;    ///< Of those, the ones with a wrong result.
  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> Failures;
  std::map<std::string, double> EndToEnd;
  /// Layers a workload does not run stay absent (run.py reports 0).
  std::map<std::string, double> PerLayer;

  void fail(const std::string &Why);
  bool correct() const { return Failures.empty(); }
};

/// Value at nearest rank ceil(Q * N) of \p Values (unsorted is fine).
double percentile(std::vector<double> Values, double Q);
double median(std::vector<double> Values);

/// The tail percentile the sample supports: \p Wanted when at least
/// ten samples lie beyond it, else the highest percentile that has ten
/// beyond it (the median when fewer than twenty samples exist).
struct Tail {
  double Percentile = 0; ///< In [0, 1].
  double Value = 0;
  size_t Samples = 0;
  size_t Beyond = 0; ///< Samples ranked above the reported one.
};
Tail tail(std::vector<double> Values, double Wanted = 0.99);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Logical CPUs this process may run on (what `nproc` prints).
unsigned hostCpus();

/// Prints \p Out as the result line: end-to-end metrics when
/// \p Traced is false, per-layer metrics otherwise. A non-finite value
/// fails the run and prints as 0.
void printResult(Outcome &Out, bool Traced);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
