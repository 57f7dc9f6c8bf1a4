//===-- models/Inference.h - Forward-only LIGER runtime ---------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The no-graph inference runtime: the one-sample encoder walk
/// (models/EncoderWalk.h) and a greedy decode over the shared forward
/// kernels (nn/InferOps.h), run directly against an immutable
/// WeightImage — no graph Nodes, no backward payloads kept alive, no
/// arena of parent arrays. The engine is the walk's scratch executor:
/// vectors are floats in a reusable per-engine ScratchArena that is
/// reset at the top of every request, and a cell step over lanes is one
/// cellStep per lane.
///
/// Because the walk is the training walk and the ops are the literal
/// functions the autodiff builders call, on the same inputs, the
/// embeddings and predictions are bitwise-identical to the
/// training-path forward (InferenceEquivalenceTest pins this across
/// cells and ablations).
///
/// Since parameters are frozen at serving time, the per-encode
/// statement/state embedding caches of the training path become
/// persistent, parameter-versioned caches here: statements are keyed
/// by their serialized head tree (Stmt pointers do not survive
/// re-parsing) and states by the same token-signature key the training
/// cache uses. Each slot also holds the fusion attention's key-side
/// projection of its embedding, computed once when the slot is filled.
/// Within one request, state-cache misses walk the shared f1/f2 prefix
/// tries over arena states, so each distinct object-value and variable
/// prefix runs exactly one cell step per request; a Stmt* memo in front
/// of the statement cache skips re-serializing head trees (DESIGN.md
/// §13.2).
///
/// An engine is single-threaded; serving spawns one per worker. It
/// borrows the WeightImage and vocabularies, which must outlive it.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_INFERENCE_H
#define LIGER_MODELS_INFERENCE_H

#include "models/Liger.h"
#include "nn/WeightImage.h"
#include "trace/Trace.h"
#include "trace/Vocabulary.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace liger {

/// Bump allocator over retained float blocks: alloc() hands out
/// pointers that stay valid until the next reset(), reset() recycles
/// every block without freeing, so steady-state requests perform no
/// heap allocation for tensor temporaries.
class ScratchArena {
public:
  float *alloc(size_t N);
  float *allocZeroed(size_t N);
  /// Recycles all blocks; previously returned pointers become invalid.
  void reset();
  /// Total floats reserved across blocks (capacity, not live use).
  size_t floatsReserved() const;

private:
  struct Block {
    std::vector<float> Data;
    size_t Used = 0;
  };
  std::vector<Block> Blocks;
  size_t Active = 0;
};

/// Forward-only inference over a frozen weight image.
class LigerInference {
public:
  struct CacheStats {
    uint64_t StmtHits = 0;
    uint64_t StmtMisses = 0;
    uint64_t StateHits = 0;
    uint64_t StateMisses = 0;
    /// f1 + f2 cell steps actually executed on state-cache misses.
    uint64_t StateCellSteps = 0;
  };

  /// \p Target may be null for encode-only / classifier images (then
  /// predictName() is unavailable). Binds every tensor the config
  /// implies; missing or mis-shaped tensors are fatal.
  LigerInference(const WeightImage &Image, const Vocabulary &JointVocab,
                 const Vocabulary *Target, const LigerConfig &Config);

  /// Program embedding (Config.Hidden floats, arena-owned: valid until
  /// the next encode/predict call on this engine).
  const float *encode(const MethodTraces &Traces);

  /// Greedy-decoded method-name subtokens (mirrors
  /// LigerNamePredictor::predict). When \p Embedding is non-null it
  /// receives the program embedding of the same encode.
  std::vector<std::string> predictName(const MethodTraces &Traces,
                                       std::vector<float> *Embedding =
                                           nullptr);

  /// Argmax class of the classification head (mirrors
  /// LigerClassifier::predict); only for images with "liger.head".
  int predictClass(const MethodTraces &Traces);
  bool hasClassifierHead() const { return Head.W != nullptr; }

  const Digest128 &paramVersion() const { return Version; }
  const CacheStats &cacheStats() const { return Stats; }
  const LigerConfig &config() const { return Config; }
  size_t arenaFloats() const { return Arena.floatsReserved(); }

private:
  struct LinearRef {
    size_t In = 0, Out = 0;
    const float *W = nullptr, *B = nullptr;
  };
  struct CellRef {
    CellKind Kind = CellKind::Gru;
    size_t In = 0, Hidden = 0;
    const float *Wx = nullptr, *Bx = nullptr, *Wh = nullptr; // packed
    LinearRef L1;                                            // Rnn
    const float *U1 = nullptr;                               // Rnn
  };
  struct AttnRef {
    size_t QueryDim = 0, KeyDim = 0, Hidden = 0;
    const float *W1 = nullptr, *B1 = nullptr, *W2 = nullptr, *B2 = nullptr;
  };
  struct St {
    const float *H = nullptr;
    const float *C = nullptr;
  };

  /// The encoder walk's scratch executor (defined in Inference.cpp).
  struct ScratchExec;

  void bind(const WeightImage &Image);
  LinearRef bindLinear(const WeightImage &Image, const std::string &Name,
                       size_t In, size_t Out) const;
  CellRef bindCell(const WeightImage &Image, const std::string &Name,
                   CellKind Kind, size_t In, size_t Hidden) const;
  AttnRef bindAttn(const WeightImage &Image, const std::string &Name,
                   size_t QueryDim, size_t KeyDim, size_t Hidden) const;

  const float *tokenEmbed(int Id) const;
  const float *linearApply(const LinearRef &L, const float *X);
  St cellInitial(const CellRef &Cell);
  St cellStep(const CellRef &Cell, const float *X, const St &Prev);
  /// The context of \p Query over \p Keys; \p Weights, when non-null,
  /// receives the arena-owned softmax weights.
  const float *attnContext(const AttnRef &Attn,
                           const std::vector<const float *> &Keys,
                           const float *KeyProj, const float *Query,
                           const float **Weights = nullptr);
  const float *attnKeyProj(const AttnRef &Attn,
                           const std::vector<const float *> &Keys);

  /// Fills a persistent cache slot: the embedding \p H, then (under
  /// fusion attention) its A1 key-side projection.
  const float *fillSlot(std::vector<float> &Slot, const float *H);

  St treeNode(const AstTree &Tree);
  /// The statement-cache slot of \p S's head tree.
  const float *embedStatement(const Stmt *S);
  /// Resets the arena and encodes \p Traces through the encoder walk.
  LigerEncodingOf<const float *> encodeRequest(const MethodTraces &Traces);
  std::vector<int> decodeGreedy(const float *ProgramEmbedding,
                                const std::vector<const float *> &Memory);

  LigerConfig Config;
  const Vocabulary &Vocab;
  const Vocabulary *TargetVocab = nullptr;
  Digest128 Version{};

  // Bound weights (raw pointers into the borrowed image).
  const float *Embed = nullptr; ///< [V x EmbedDim] joint table.
  struct {
    const float *Wx = nullptr, *Bx = nullptr, *Wh = nullptr;
  } TreeW; ///< Child-sum TreeLSTM weights, packed i/o/u/f.
  CellRef F1, F2, F3;
  AttnRef A1;
  struct {
    const float *TargetEmbed = nullptr; ///< [Vt x EmbedDim].
    LinearRef Init, Out;
    CellRef Cell;
    AttnRef Attn;
  } Dec;
  LinearRef Head; ///< Classifier head; W null when absent.

  ScratchArena Arena;
  CacheStats Stats;
  // Parameter-versioned persistent caches. A slot is the embedding
  // (Config.Hidden floats) followed, under fusion attention, by its A1
  // key projection (Config.AttnHidden floats). unordered_map never
  // moves a vector's heap buffer on rehash, so returned pointers stay
  // valid for the engine's lifetime.
  std::unordered_map<std::string, std::vector<float>> StmtCache;
  std::unordered_map<std::string, std::vector<float>> StateCache;
};

} // namespace liger

#endif // LIGER_MODELS_INFERENCE_H
