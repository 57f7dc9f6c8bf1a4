//===-- perfbench/harness/Workloads.h - The three workloads -----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_cold, serve_warm and train_h100 (perfbench/README.md says why
/// each exists and what it should move). All run the model at the
/// paper's width, hidden and embedding size 100, in this one process.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Report.h"

#include "eval/Experiments.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10; ///< Length of the timed window.
  bool Trace = false;  ///< Traced run: report per-layer metrics.
  /// Directory for span dumps and the training-loss ledger.
  std::string OutDir = ".";
  /// Identifies the code under test (commit or source digest); keys
  /// the training-loss ledger.
  std::string Commit = "unknown";
  unsigned Cpus = 1; ///< hostCpus(); caps every thread count.
  /// Latency limit behind slo_frac: per request (serve) or per
  /// optimizer step (train). run.py takes it from the workload's entry
  /// in BENCHMARK.json.
  double SloMs = 0;
};

/// The paper's width (hidden = embedding = 100); corpus and engine
/// seed stay at the ExperimentScale default so set-up work is the same
/// for every workload seed.
liger::ExperimentScale paperScale(const RunConfig &Run);

void runServe(const RunConfig &Run, bool Warm, Outcome &Out);
void runTrain(const RunConfig &Run, Outcome &Out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
