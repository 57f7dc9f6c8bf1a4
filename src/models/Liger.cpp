//===-- models/Liger.cpp - The LIGER blended model -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Liger.h"

#include "lang/AstTree.h"
#include "models/EncoderWalk.h"

#include <algorithm>
#include <unordered_map>

using namespace liger;

//===----------------------------------------------------------------------===//
// Trace reading
//===----------------------------------------------------------------------===//

std::optional<PathExtent> liger::pathExtent(const LigerConfig &Config,
                                            const BlendedTrace &Path) {
  if (!Config.UseDynamicFeature && Path.Symbolic.Steps.empty())
    return std::nullopt;
  if (Config.UseDynamicFeature && !Config.UseStaticFeature &&
      Path.Concrete.empty())
    return std::nullopt;
  PathExtent E;
  E.Steps = std::min(Path.Symbolic.Steps.size(), Config.MaxStepsPerTrace);
  E.NumConcrete =
      Config.UseDynamicFeature
          ? std::min(Path.Concrete.size(), Config.MaxConcretePerPath)
          : 0;
  return E;
}

const ProgramState *liger::fusedState(const BlendedTrace &Path, size_t T,
                                      size_t J) {
  const std::vector<ProgramState> &States = Path.Concrete[T].States;
  if (J >= States.size() || States[J].Values.empty())
    return nullptr;
  return &States[J];
}

//===----------------------------------------------------------------------===//
// LigerEncoder
//===----------------------------------------------------------------------===//

LigerEncoder::LigerEncoder(ParamStore &Store, const Vocabulary &JointVocab,
                           const LigerConfig &Cfg, Rng &R)
    : Config(Cfg), Vocab(JointVocab),
      Embed(Store, "liger.embed", JointVocab.size(), Cfg.EmbedDim, R),
      StmtTree(Store, "liger.stmt_tree", Cfg.EmbedDim, Cfg.Hidden, R),
      F1(Store, "liger.f1", Cfg.Cell, Cfg.EmbedDim, Cfg.EmbedDim, R),
      F2(Store, "liger.f2", Cfg.Cell, Cfg.EmbedDim, Cfg.Hidden, R),
      A1(Store, "liger.a1", Cfg.Hidden, Cfg.Hidden, Cfg.AttnHidden, R),
      F3(Store, "liger.f3", Cfg.Cell, Cfg.Hidden, Cfg.Hidden, R) {
  LIGER_CHECK(Cfg.UseStaticFeature || Cfg.UseDynamicFeature,
              "at least one feature dimension must be enabled");
}

/// The graph executor: vectors are autodiff nodes, a cell step over
/// lanes is one RecurrentCell::stepBatch. Statement and token caches
/// never cross samples. State embeddings DO share one batch-scoped cache
/// (and the walk one pair of prefix tries): the kind-tagged state key is
/// injective and f1/f2 are deterministic functions of their input
/// sequences and the parameters, so a state or prefix revisited by
/// another sample reuses a node with bitwise-identical value, and
/// per-sample loss values are unchanged. Gradient flow through a shared
/// node merges where per-sample caches would duplicate it, which only
/// gradient accumulation order can observe.
struct LigerEncoder::GraphExec {
  using Vec = Var;
  using State = RecState;

  const LigerEncoder &E;
  FusionStats *Stats;
  const RecurrentCell &F1 = E.F1, &F2 = E.F2, &F3 = E.F3;
  std::vector<std::unordered_map<const Stmt *, Var>> StmtCaches;
  std::vector<std::unordered_map<int, Var>> TokenCaches;
  std::unordered_map<std::string, Var> States;

  GraphExec(const LigerEncoder &E, size_t B, FusionStats *Stats)
      : E(E), Stats(Stats), StmtCaches(B), TokenCaches(B) {}

  Var token(uint32_t Sample, int Id) {
    Var &T = TokenCaches[Sample][Id];
    if (!T)
      T = E.Embed.lookup(Id);
    return T;
  }
  Var statement(uint32_t Sample, const Stmt *S) {
    Var &H = StmtCaches[Sample][S];
    if (!H)
      H = E.StmtTree.embed(buildStmtHeadTree(S), [&](const std::string &L) {
        return token(Sample, E.Vocab.lookup(L));
      });
    return H;
  }
  Var findState(const std::string &Key) const {
    auto It = States.find(Key);
    return It == States.end() ? nullptr : It->second;
  }
  Var storeState(std::string Key, Var H) {
    States.emplace(std::move(Key), H);
    return H;
  }
  Var zeros() const { return constant(Tensor::zeros(E.Config.Hidden)); }
  static Var meanPool(const std::vector<Var> &Items) {
    return liger::meanPool(Items);
  }
  static Var maxPool(const std::vector<Var> &Items) {
    return liger::maxPool(Items);
  }
  std::pair<Var, double> attend(const std::vector<Var> &Components,
                                const Var &Query) const {
    // Components change every step, so their key-side projections are
    // prepared fresh: one key-projection node, one attention node.
    AttentionScorer::Result R = E.A1.contextOf(Query, E.A1.prepare(Components));
    return {R.Context, static_cast<double>(R.Weights[0])};
  }
  void countState(bool) {}
  void countFusion(double StaticWeight) {
    if (Stats) {
      Stats->StaticWeightSum += StaticWeight;
      ++Stats->FusionSteps;
    }
  }
  void countCellSteps(size_t N) {
    if (Stats)
      Stats->StateCellSteps += N;
  }
};

LigerEncoding LigerEncoder::encode(const MethodTraces &Traces,
                                   FusionStats *Stats) const {
  return std::move(encodeBatch({&Traces}, Stats)[0]);
}

std::vector<LigerEncoding>
LigerEncoder::encodeBatch(const std::vector<const MethodTraces *> &Batch,
                          FusionStats *Stats) const {
  GraphExec X(*this, Batch.size(), Stats);
  return encoderWalk(Config, Vocab, X, Batch);
}

//===----------------------------------------------------------------------===//
// LigerNamePredictor
//===----------------------------------------------------------------------===//

namespace {

SeqDecoderConfig decoderConfig(const LigerConfig &Cfg,
                               size_t TargetVocabSize) {
  SeqDecoderConfig DC;
  DC.TargetVocabSize = TargetVocabSize;
  DC.EmbedDim = Cfg.EmbedDim;
  DC.Hidden = Cfg.Hidden;
  DC.AttnHidden = Cfg.AttnHidden;
  DC.MemoryDim = Cfg.Hidden;
  DC.InitDim = Cfg.Hidden;
  DC.Cell = Cfg.Cell;
  return DC;
}

} // namespace

LigerNamePredictor::LigerNamePredictor(const Vocabulary &JointVocab,
                                       const Vocabulary &Target,
                                       const LigerConfig &Config,
                                       uint64_t Seed)
    : InitRng(Seed), Encoder(Store, JointVocab, Config, InitRng),
      Decoder(Store, "liger.dec",
              decoderConfig(Config, static_cast<size_t>(Target.size())),
              InitRng),
      TargetVocab(Target) {}

Var LigerNamePredictor::loss(const MethodSample &Sample) const {
  return lossBatch({&Sample})[0];
}

std::vector<Var> LigerNamePredictor::lossBatch(
    const std::vector<const MethodSample *> &Samples) const {
  std::vector<Var> Embs;
  std::vector<std::vector<Var>> Mems;
  std::vector<std::vector<int>> Targets;
  Embs.reserve(Samples.size());
  Mems.reserve(Samples.size());
  Targets.reserve(Samples.size());
  std::vector<const MethodTraces *> Traces;
  Traces.reserve(Samples.size());
  for (const MethodSample *Sample : Samples) {
    Traces.push_back(&Sample->Traces);
    Targets.push_back(nameTargetIds(Sample->NameSubtokens, TargetVocab));
  }
  std::vector<LigerEncoding> Encs = Encoder.encodeBatch(Traces);
  for (LigerEncoding &Enc : Encs) {
    Embs.push_back(Enc.ProgramEmbedding);
    Mems.push_back(std::move(Enc.StepMemory));
  }
  return Decoder.lossBatch(Embs, Mems, Targets);
}

std::vector<std::string>
LigerNamePredictor::predict(const MethodSample &Sample,
                            FusionStats *Stats) const {
  LigerEncoding Enc = Encoder.encode(Sample.Traces, Stats);
  std::vector<int> Ids =
      Decoder.decodeGreedy(Enc.ProgramEmbedding, Enc.StepMemory,
                           Encoder.config().MaxDecodeLen);
  return idsToSubtokens(Ids, TargetVocab);
}

//===----------------------------------------------------------------------===//
// LigerClassifier
//===----------------------------------------------------------------------===//

LigerClassifier::LigerClassifier(const Vocabulary &JointVocab,
                                 size_t NumClasses, const LigerConfig &Config,
                                 uint64_t Seed)
    : InitRng(Seed), Encoder(Store, JointVocab, Config, InitRng),
      Head(Store, "liger.head", Config.Hidden, NumClasses, InitRng) {}

Var LigerClassifier::loss(const MethodSample &Sample) const {
  LIGER_CHECK(Sample.ClassId >= 0, "classification sample without label");
  LigerEncoding Enc = Encoder.encode(Sample.Traces);
  return softmaxCrossEntropy(Head.apply(Enc.ProgramEmbedding),
                             static_cast<size_t>(Sample.ClassId));
}

int LigerClassifier::predict(const MethodSample &Sample) const {
  LigerEncoding Enc = Encoder.encode(Sample.Traces);
  return static_cast<int>(argmax(Head.apply(Enc.ProgramEmbedding)->Value));
}

Tensor LigerClassifier::embed(const MethodTraces &Traces) const {
  return Encoder.encode(Traces).ProgramEmbedding->Value;
}
