//===-- models/Liger.h - The LIGER blended model ----------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LIGER (§5): learns program embeddings from blended traces.
///
/// Encoder layers (Fig. 5):
///  1. Vocabulary embedding — one joint table over Ds ∪ Dd;
///  2. Fusion — a TreeLSTM embeds each statement via its AST; two
///     stacked RNNs embed each program state (f1 flattens object values
///     into primitive sequences, f2 folds per-variable vectors); an
///     attention network a1, queried by the running trace embedding
///     H^e_{i_j-1}, fuses the statement vector with the state vectors
///     of the accompanying concrete traces (uniform weights on the
///     first step, per the paper);
///  3. Executions embedding — RNN f3 folds fused step vectors into the
///     path embedding H^e_i;
///  4. Programs embedding — element-wise max pooling over paths.
///
/// Decoder: SeqDecoder attending over every H^e_{i_j} (method name
/// prediction). Classification replaces the decoder by a linear +
/// softmax head (§6.2).
///
/// The three §6.3 ablations are configuration switches:
/// UseStaticFeature, UseDynamicFeature, UseFusionAttention; an extra
/// MeanPoolPrograms switch ablates the pooling choice.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_LIGER_H
#define LIGER_MODELS_LIGER_H

#include "models/Common.h"
#include "models/Decoder.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace liger {

/// LIGER hyper-parameters and ablation switches.
struct LigerConfig {
  size_t EmbedDim = 32;   ///< Vocabulary embedding (paper: 100).
  size_t Hidden = 32;     ///< Recurrent hidden size (paper: 100).
  size_t AttnHidden = 32; ///< Attention MLP hidden size.
  CellKind Cell = CellKind::Gru;
  bool UseStaticFeature = true;   ///< §6.3.1 ablation when false.
  bool UseDynamicFeature = true;  ///< §6.3.2 ablation when false.
  bool UseFusionAttention = true; ///< §6.3.3 ablation when false.
  bool MeanPoolPrograms = false;  ///< Extra ablation: mean vs max pool.
  size_t MaxStepsPerTrace = 40;   ///< Truncate long blended traces.
  size_t MaxConcretePerPath = 5;  ///< Cap state traces fused per step.
  size_t MaxFlattenedValues = 12; ///< Cap attr(v) length fed to f1.
  size_t MaxDecodeLen = 8;
};

/// What the encoder reads of a method's traces. The one encoder walk
/// (models/EncoderWalk.h), which the autodiff LigerEncoder and the
/// forward-only LigerInference both run, reads traces only through the
/// two functions below and stateKey (models/StateTrie.h).

/// The part of one blended trace the encoder reads: its first Steps
/// steps, each fusing the states of its first NumConcrete concrete
/// traces.
struct PathExtent {
  size_t Steps = 0;
  size_t NumConcrete = 0;
};

/// The extent of \p Path under \p Config, or nullopt when the path
/// contributes no embedding (no statements without the dynamic feature;
/// no concrete traces in a dynamic-only configuration).
std::optional<PathExtent> pathExtent(const LigerConfig &Config,
                                     const BlendedTrace &Path);

/// The state concrete trace \p T of \p Path fuses at step \p J, or
/// null when that trace has ended or its state there is empty.
const ProgramState *fusedState(const BlendedTrace &Path, size_t T, size_t J);

/// Attention introspection for §6.1.2 (average fusion weight assigned
/// to the symbolic (static) feature vector), plus the state-embedding
/// work an encode took.
struct FusionStats {
  double StaticWeightSum = 0;
  size_t FusionSteps = 0;
  /// f1 + f2 graph steps taken on state-cache misses: one per distinct
  /// object-value or variable prefix of the encode (DESIGN.md §14.2).
  size_t StateCellSteps = 0;

  double staticMean() const {
    return FusionSteps == 0 ? 0.0 : StaticWeightSum / FusionSteps;
  }
};

/// Output of the LIGER encoder, over graph nodes (Var) in training and
/// arena floats in serving.
template <class Vec> struct LigerEncodingOf {
  Vec ProgramEmbedding{};
  /// Flattened step embeddings H^e_{i_j} of all blended traces (the
  /// decoder's attention memory).
  std::vector<Vec> StepMemory;
};
using LigerEncoding = LigerEncodingOf<Var>;

/// The encoder (layers 1–4).
class LigerEncoder {
public:
  LigerEncoder(ParamStore &Store, const Vocabulary &JointVocab,
               const LigerConfig &Config, Rng &R);

  /// Encodes one method's blended traces: the one-sample case of
  /// encodeBatch. When \p Stats is non-null, fusion attention weights
  /// and state cell steps are accumulated into it.
  LigerEncoding encode(const MethodTraces &Traces,
                       FusionStats *Stats = nullptr) const;

  /// Encodes a mini-batch of methods through the encoder walk
  /// (models/EncoderWalk.h) over graph nodes: every blended trace of
  /// every sample is one lane advanced in lockstep, each path attends
  /// over its own components, and all live lanes advance through one
  /// batched F3 step (RecurrentCell::stepBatch). Per-sample values do
  /// not depend on the batch: they are bitwise the one-sample values,
  /// and only node creation order — and so gradient accumulation order
  /// across lanes — follows the timestep-major schedule. State
  /// embeddings share one cache and one pair of prefix tries across the
  /// whole batch; \p Stats (optional) accumulates over every sample.
  std::vector<LigerEncoding>
  encodeBatch(const std::vector<const MethodTraces *> &Batch,
              FusionStats *Stats = nullptr) const;

  const LigerConfig &config() const { return Config; }

private:
  /// The graph executor of the encoder walk (defined in Liger.cpp).
  struct GraphExec;

  LigerConfig Config;
  const Vocabulary &Vocab;
  EmbeddingTable Embed;       ///< Layer 1 (joint Ds ∪ Dd).
  ChildSumTreeLstm StmtTree;  ///< Statement embedding.
  RecurrentCell F1;           ///< Object-value flattening RNN (Eq. 3).
  RecurrentCell F2;           ///< State RNN over variable embeddings.
  AttentionScorer A1;         ///< Fusion attention.
  RecurrentCell F3;           ///< Executions embedding RNN.
};

/// LIGER for method name prediction (encoder + attention decoder).
class LigerNamePredictor {
public:
  LigerNamePredictor(const Vocabulary &JointVocab,
                     const Vocabulary &TargetVocab,
                     const LigerConfig &Config, uint64_t Seed);

  /// Teacher-forced loss for one sample: lossBatch of a group of one.
  Var loss(const MethodSample &Sample) const;

  /// Teacher-forced losses for a mini-batch: encodeBatch, then
  /// SeqDecoder::lossBatch, so same-timestep lanes of the encoder and
  /// the decoder share batched cell steps. A sample's loss value does
  /// not depend on the group it is in.
  std::vector<Var>
  lossBatch(const std::vector<const MethodSample *> &Samples) const;

  /// Greedy prediction of name sub-tokens; \p Stats optionally receives
  /// fusion attention statistics.
  std::vector<std::string> predict(const MethodSample &Sample,
                                   FusionStats *Stats = nullptr) const;

  ParamStore &params() { return Store; }
  const LigerEncoder &encoder() const { return Encoder; }

private:
  ParamStore Store;
  Rng InitRng;
  LigerEncoder Encoder;
  SeqDecoder Decoder;
  const Vocabulary &TargetVocab;
};

/// LIGER for semantics classification (encoder + linear softmax head).
class LigerClassifier {
public:
  LigerClassifier(const Vocabulary &JointVocab, size_t NumClasses,
                  const LigerConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  int predict(const MethodSample &Sample) const;

  /// The program embedding itself (for embedding-space analyses).
  Tensor embed(const MethodTraces &Traces) const;

  ParamStore &params() { return Store; }

private:
  ParamStore Store;
  Rng InitRng;
  LigerEncoder Encoder;
  Linear Head;
};

} // namespace liger

#endif // LIGER_MODELS_LIGER_H
