//===-- eval/Training.h - Model-agnostic training loops ---------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Training and evaluation loops shared across LIGER, DYPRO, code2vec,
/// and code2seq. Models plug in through small hook structs (loss,
/// predict, parameter store), mirroring the paper's setup: Adam,
/// mini-batches, best-on-validation selection.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_EVAL_TRAINING_H
#define LIGER_EVAL_TRAINING_H

#include "eval/Metrics.h"
#include "models/Common.h"
#include "nn/Optim.h"

#include <functional>

namespace liger {

class ThreadPool;

/// Training configuration.
struct TrainOptions {
  size_t Epochs = 6;
  size_t BatchSize = 8;
  float LearningRate = 2e-3f;
  uint64_t Seed = 1;
  bool Verbose = false;
  /// Select the epoch with the best validation score (F1 or accuracy);
  /// requires a non-empty validation set.
  bool SelectBestOnValidation = true;
  /// Worker threads within a mini-batch, each building and
  /// differentiating whole shards (one sample each, or the
  /// LockstepShards shards under BatchedSamples). Results are
  /// bitwise-identical for any value: every shard's gradient lands in
  /// its own accumulator, and accumulators are reduced in shard
  /// (= sample) order on the calling thread. 0 or 1 = serial.
  size_t Threads = 1;
  /// Clip the global gradient norm before each Adam step (0 = off).
  float ClipNorm = 0.0f;
  /// Directory for crash-safe training checkpoints (empty = disabled;
  /// created on demand). "state.ckpt" holds the full training state —
  /// parameters, Adam moments and step count, shuffle-Rng state, epoch
  /// cursor, best-on-validation bookkeeping — written atomically after
  /// each checkpointed epoch; "best.ckpt" holds the best-on-validation
  /// parameters as an inference-ready params-only snapshot.
  std::string CheckpointDir;
  /// Write state.ckpt every N completed epochs (and always after the
  /// final one). Best-on-validation snapshots are written whenever the
  /// validation score improves, regardless of cadence.
  size_t CheckpointEveryEpochs = 1;
  /// Resume from CheckpointDir/state.ckpt when it exists; training
  /// then restarts at the first incomplete epoch and finishes bitwise
  /// identical to an uninterrupted run (for any Threads value). A
  /// missing state file starts a fresh run; a corrupt one is fatal.
  bool Resume = false;
  /// Optional hook called after every optimizer step with the 0-based
  /// epoch and the batch index within it (progress reporting; tests
  /// use it to kill a run mid-epoch).
  std::function<void(size_t Epoch, size_t Batch)> StepHook;
  /// The training loop splits every mini-batch into contiguous sample
  /// shards and builds each shard as one lockstep graph through the
  /// model's LossBatch hook (same-timestep samples share matmul-backed
  /// batch ops); a model without the hook has its Loss called on
  /// shards of one. By default a shard is one sample. BatchedSamples
  /// makes it LockstepShards-th of the mini-batch instead; it needs
  /// the hook and is ignored by models without one and by the
  /// classifier driver. Both shard sizes are deterministic, but they
  /// accumulate gradients in different orders, so they are not
  /// bitwise comparable with each other.
  bool BatchedSamples = false;
  /// Under BatchedSamples, the number of shards per mini-batch — the
  /// units the ThreadPool distributes when Threads > 1. The partition
  /// depends only on the batch size (never on Threads), and shard
  /// sinks are reduced in shard order on the calling thread, so
  /// losses, gradients, and final weights are bitwise-identical for
  /// any Threads value. Clamped to the batch size; 1 = one graph per
  /// mini-batch.
  size_t LockstepShards = 4;
};

/// Batched loss hook: per-sample mean losses for a group of samples,
/// built as one lockstep graph (see SeqDecoder::lossBatch).
using BatchLossFn =
    std::function<std::vector<Var>(const std::vector<const MethodSample *> &)>;

/// Hooks for a method-name prediction model.
struct NameModelHooks {
  std::function<Var(const MethodSample &)> Loss;
  /// Optional batched variant of Loss; when set, training builds every
  /// shard through it (TrainOptions::BatchedSamples).
  BatchLossFn LossBatch;
  /// Greedy name prediction. Must be safe to call concurrently: with
  /// Threads > 1, validation predicts on the training pool.
  std::function<std::vector<std::string>(const MethodSample &)> Predict;
  ParamStore *Params = nullptr;
};

/// Hooks for a classification model.
struct ClassModelHooks {
  std::function<Var(const MethodSample &)> Loss;
  std::function<int(const MethodSample &)> Predict;
  ParamStore *Params = nullptr;
};

/// Result of one training run.
struct TrainResult {
  double FinalTrainLoss = 0;
  double BestValidScore = 0; ///< F1 (names) or accuracy (classes).
  size_t BestEpoch = 0;
  double Seconds = 0;
  size_t StartEpoch = 0; ///< First epoch this run executed (resume).
  bool Resumed = false;  ///< Whether a state checkpoint was restored.
};

/// Evaluates a name model on \p Samples. With a \p Pool the
/// predictions run on its workers (each on the worker's default graph
/// arena, which is reset after every sample) and are scored in sample
/// order, so the scores equal the serial ones bitwise; Predict must
/// then be safe to call concurrently.
PrfScores evaluateNameModel(const NameModelHooks &Hooks,
                            const std::vector<MethodSample> &Samples,
                            ThreadPool *Pool = nullptr);

/// Trains a name model; restores the best-validation parameters.
TrainResult trainNameModel(const NameModelHooks &Hooks,
                           const std::vector<MethodSample> &Train,
                           const std::vector<MethodSample> &Valid,
                           const TrainOptions &Options);

/// Evaluates a classifier; \p NumClasses sizes the scorer.
struct ClassScores {
  double Accuracy = 0;
  double MacroF1 = 0;
};
ClassScores evaluateClassifier(const ClassModelHooks &Hooks,
                               const std::vector<MethodSample> &Samples,
                               size_t NumClasses);

/// Trains a classifier; restores the best-validation parameters.
TrainResult trainClassifier(const ClassModelHooks &Hooks,
                            const std::vector<MethodSample> &Train,
                            const std::vector<MethodSample> &Valid,
                            size_t NumClasses, const TrainOptions &Options);

} // namespace liger

#endif // LIGER_EVAL_TRAINING_H
