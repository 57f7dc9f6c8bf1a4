//===-- bench/epoch_throughput.cpp - Training throughput benchmark --------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end training throughput of the mini-batch epoch loop (not a
// paper table). Trains the same LIGER name-prediction model from the
// same seed in four modes:
//
//   per-sample           one graph per sample, serial (the baseline)
//   per-sample-threaded  per-sample graphs driven over the ThreadPool
//   batched              lockstep mini-batch graphs (Hooks.LossBatch),
//                        serial
//   batched-threaded     lockstep shard graphs driven over the ThreadPool
//
// and emits BENCH_epoch.json with samples/sec per mode, the speedup
// over the per-sample baseline, the peak live graph-node count per
// sample, and a determinism check within each family: the per-sample
// modes' final losses must be bitwise-identical at any thread count,
// and so must the batched modes'. The two families accumulate
// gradients in different orders, so they are not compared with each
// other.
//
// Usage: epoch_throughput [--smoke] [--repeats=N] [--methods=N]
//                         [--epochs=N] [--batch=N] [--hidden=N]
//                         [--threads=N] ...
// --threads sets the worker count of the two threaded modes; the
// default is the machine's core count capped at 4 (more workers than
// cores measures the OS scheduler, not the shard pipeline — pass
// --threads explicitly to oversubscribe on purpose). Each mode runs
// --repeats times (default 3) and reports the fastest; repeat losses
// must agree bitwise (same seed, deterministic loop). --smoke shrinks
// the corpus and epoch count for CI.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Training.h"
#include "models/Liger.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace liger;

namespace {

struct ModeConfig {
  const char *Name;
  bool Batched;
  size_t Threads;
};

struct ModeResult {
  const char *Name = "";
  bool Batched = false;
  size_t Threads = 0;
  double Seconds = 0;
  double SamplesPerSec = 0;
  double FinalLoss = 0;
};

LigerConfig modelConfig(const ExperimentScale &Scale) {
  LigerConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  return Config;
}

/// Trains a fresh same-seed model in one mode (one timed repeat).
ModeResult runModeOnce(const NameTask &Task, const ExperimentScale &Scale,
                       const ModeConfig &Mode) {
  LigerNamePredictor Net(Task.Joint, Task.Target, modelConfig(Scale),
                         Scale.Seed);
  NameModelHooks Hooks;
  Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
  Hooks.LossBatch = [&](const std::vector<const MethodSample *> &Group) {
    return Net.lossBatch(Group);
  };
  Hooks.Predict = [&](const MethodSample &S) { return Net.predict(S); };
  Hooks.Params = &Net.params();

  TrainOptions Options = Scale.trainOptions();
  Options.BatchedSamples = Mode.Batched;
  Options.Threads = Mode.Threads;
  Options.SelectBestOnValidation = false; // time the epoch loop only

  Stopwatch Timer;
  TrainResult Train = trainNameModel(Hooks, Task.Split.Train,
                                     std::vector<MethodSample>(), Options);
  ModeResult Result;
  Result.Name = Mode.Name;
  Result.Batched = Mode.Batched;
  Result.Threads = Mode.Threads;
  Result.Seconds = Timer.seconds();
  Result.SamplesPerSec =
      static_cast<double>(Task.Split.Train.size() * Options.Epochs) /
      Result.Seconds;
  Result.FinalLoss = Train.FinalTrainLoss;
  return Result;
}

/// Peak live graph nodes over one serial pass (loss + backward per
/// sample, arena reset between samples).
size_t measurePeakNodes(const NameTask &Task, const ExperimentScale &Scale) {
  LigerNamePredictor Net(Task.Joint, Task.Target, modelConfig(Scale),
                         Scale.Seed);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  GradSink Sink;
  for (const MethodSample &Sample : Task.Split.Train) {
    backward(Net.loss(Sample), Sink);
    Sink.clear();
    Arena.reset();
  }
  return Arena.peakLive();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  size_t Repeats = 3;
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--repeats=", 10) == 0)
      Repeats = std::max(1ul, std::strtoul(Argv[I] + 10, nullptr, 10));
    else
      Args.push_back(Argv[I]);
  }
  ExperimentScale Scale =
      ExperimentScale::fromArgs(static_cast<int>(Args.size()), Args.data());
  if (Smoke) {
    Scale.MethodsMed = 24;
    Scale.Epochs = 1;
    Scale.TargetPaths = 3;
    Scale.ExecutionsPerPath = 2;
  }
  // Default the threaded mode's worker count to the core count (capped
  // at 4): more workers than cores benchmarks the OS scheduler, not the
  // shard pipeline. An explicit --threads overrides.
  size_t Cores = std::max(1u, std::thread::hardware_concurrency());
  size_t PoolThreads =
      Scale.Threads > 1 ? Scale.Threads : std::min<size_t>(4, Cores);

  std::printf("building corpus (%zu methods)...\n", Scale.MethodsMed);
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  std::printf("train=%zu valid=%zu test=%zu, %zu epochs, batch %zu, "
              "%zu lockstep shards\n",
              Task.Split.Train.size(), Task.Split.Valid.size(),
              Task.Split.Test.size(), Scale.Epochs, Scale.BatchSize,
              Scale.LockstepShards);

  size_t PeakNodes = measurePeakNodes(Task, Scale);
  std::printf("peak live graph nodes per sample: %zu\n", PeakNodes);

  const ModeConfig Modes[] = {
      {"per-sample", false, 1},
      {"per-sample-threaded", false, PoolThreads},
      {"batched", true, 1},
      {"batched-threaded", true, PoolThreads},
  };

  // Repeats are interleaved round-robin across the modes (repeat 0 of
  // every mode, then repeat 1, ...) so slow drift on a noisy machine
  // penalizes every mode equally instead of whichever runs last; each
  // mode reports its fastest repeat. Every repeat trains the same seed
  // through the same deterministic loop, so a mode's final losses must
  // agree bitwise across repeats — a mismatch is fatal.
  const size_t NumModes = sizeof(Modes) / sizeof(Modes[0]);
  std::vector<ModeResult> Results(NumModes);
  for (size_t Rep = 0; Rep < Repeats; ++Rep) {
    for (size_t M = 0; M < NumModes; ++M) {
      ModeResult R = runModeOnce(Task, Scale, Modes[M]);
      if (Rep == 0) {
        Results[M] = R;
        continue;
      }
      if (R.FinalLoss != Results[M].FinalLoss) {
        std::fprintf(stderr,
                     "FATAL: %s repeat %zu final loss %.9g != %.9g\n",
                     R.Name, Rep, R.FinalLoss, Results[M].FinalLoss);
        return 1;
      }
      if (R.Seconds < Results[M].Seconds)
        Results[M] = R;
    }
  }
  for (const ModeResult &R : Results)
    std::printf("%-19s threads=%zu  %.2fs  %.1f samples/sec  "
                "final loss %.6f\n",
                R.Name, R.Threads, R.Seconds, R.SamplesPerSec, R.FinalLoss);

  // Within a family the modes reduce per-sample (or per-shard) sinks in
  // index order whatever the thread count — the batched shard partition
  // depends only on the batch size — so each family's losses must
  // agree bitwise. Each mode is checked against the first mode of its
  // own family.
  auto FamilyDeterministic = [&](bool Batched) {
    const ModeResult *First = nullptr;
    for (const ModeResult &R : Results) {
      if (R.Batched != Batched)
        continue;
      if (!First)
        First = &R;
      else if (R.FinalLoss != First->FinalLoss)
        return false;
    }
    return true;
  };
  bool PerSampleDeterministic = FamilyDeterministic(false);
  bool BatchedDeterministic = FamilyDeterministic(true);
  std::printf("per-sample determinism across thread counts: %s\n",
              PerSampleDeterministic ? "OK (bitwise)" : "FAILED");
  std::printf("batched determinism across thread counts: %s\n",
              BatchedDeterministic ? "OK (bitwise)" : "FAILED");

  FILE *F = std::fopen("BENCH_epoch.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_epoch.json\n");
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"train_samples\": %zu,\n", Task.Split.Train.size());
  std::fprintf(F, "  \"epochs\": %zu,\n", Scale.Epochs);
  std::fprintf(F, "  \"batch_size\": %zu,\n", Scale.BatchSize);
  std::fprintf(F, "  \"hidden\": %zu,\n", Scale.Hidden);
  std::fprintf(F, "  \"lockstep_shards\": %zu,\n", Scale.LockstepShards);
  std::fprintf(F, "  \"repeats\": %zu,\n", Repeats);
  std::fprintf(F, "  \"peak_graph_nodes\": %zu,\n", PeakNodes);
  std::fprintf(F, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(F, "  \"build_type\": \"%s\",\n", LIGER_BUILD_TYPE);
  std::fprintf(F, "  \"per_sample_deterministic_across_threads\": %s,\n",
               PerSampleDeterministic ? "true" : "false");
  std::fprintf(F, "  \"batched_deterministic_across_threads\": %s,\n",
               BatchedDeterministic ? "true" : "false");
  std::fprintf(F, "  \"configs\": [\n");
  for (size_t I = 0; I < Results.size(); ++I) {
    const ModeResult &R = Results[I];
    std::fprintf(F,
                 "    {\"mode\": \"%s\", \"threads\": %zu, "
                 "\"seconds\": %.3f, \"samples_per_sec\": %.2f, "
                 "\"final_loss\": %.9g, \"speedup_vs_per_sample\": %.3f}%s\n",
                 R.Name, R.Threads, R.Seconds, R.SamplesPerSec, R.FinalLoss,
                 Results.front().Seconds / R.Seconds,
                 I + 1 < Results.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote BENCH_epoch.json\n");
  return !(PerSampleDeterministic && BatchedDeterministic);
}
