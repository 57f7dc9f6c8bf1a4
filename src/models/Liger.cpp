//===-- models/Liger.cpp - The LIGER blended model -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Liger.h"

#include "lang/AstTree.h"
#include "models/StateTrie.h"

#include <algorithm>

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

Var LigerEncoder::lookupToken(int Id, EncodeContext &Ctx) const {
  Var &E = Ctx.TokenCache[Id];
  if (!E)
    E = Embed.lookup(Id);
  return E;
}

Var LigerEncoder::embedStatement(const Stmt *S, EncodeContext &Ctx) const {
  auto It = Ctx.StmtCache.find(S);
  if (It != Ctx.StmtCache.end())
    return It->second;
  AstTree Tree = buildStmtHeadTree(S);
  Var H = StmtTree.embed(Tree, [&](const std::string &Label) {
    return lookupToken(Vocab.lookup(Label), Ctx);
  });
  Ctx.StmtCache.emplace(S, H);
  return H;
}

Var LigerEncoder::fuseStep(const BlendedTrace &Path, size_t J,
                           const std::vector<Var> &StateComps, Var PrevH,
                           EncodeContext &Ctx) const {
  // Collect the feature vectors of this ordered pair; the statement
  // vector (when enabled) is component 0.
  std::vector<Var> Components;
  if (Config.UseStaticFeature)
    Components.push_back(
        embedStatement(Path.Symbolic.Steps[J].Statement, Ctx));
  Components.insert(Components.end(), StateComps.begin(), StateComps.end());
  if (Components.empty())
    return nullptr; // dynamic-only config with a state-less step

  bool UniformFirstStep = J == 0; // paper: even weights at step one
  if (Components.size() == 1) {
    if (Ctx.Stats && Config.UseStaticFeature) {
      Ctx.Stats->StaticWeightSum += 1.0;
      ++Ctx.Stats->FusionSteps;
    }
    return Components[0];
  }
  if (!Config.UseFusionAttention || UniformFirstStep) {
    Var Fused = meanPool(Components);
    if (Ctx.Stats && Config.UseStaticFeature) {
      Ctx.Stats->StaticWeightSum +=
          1.0 / static_cast<double>(Components.size());
      ++Ctx.Stats->FusionSteps;
    }
    return Fused;
  }
  // Components change every step, so the key-side projections are
  // prepared fresh here; the win is the fused two-node step (key
  // projection + attention op) replacing the per-pair score chain.
  AttentionScorer::Memory Mem = A1.prepare(Components);
  AttentionScorer::Result Fusion = A1.contextOf(PrevH, Mem);
  if (Ctx.Stats && Config.UseStaticFeature) {
    Ctx.Stats->StaticWeightSum += static_cast<double>(Fusion.Weights[0]);
    ++Ctx.Stats->FusionSteps;
  }
  return Fusion.Context;
}

LigerEncoding LigerEncoder::encode(const MethodTraces &Traces,
                                   FusionStats *Stats) const {
  return std::move(encodeBatch({&Traces}, Stats)[0]);
}

std::vector<LigerEncoding>
LigerEncoder::encodeBatch(const std::vector<const MethodTraces *> &Batch,
                          FusionStats *Stats) const {
  size_t B = Batch.size();
  // Statement and token caches never cross samples. State embeddings
  // DO share one batch-scoped memo (cache and prefix tries): the
  // kind-tagged state key is injective and f1/f2 are deterministic
  // functions of their input sequences and the parameters, so a state
  // or prefix revisited by another sample reuses a node with
  // bitwise-identical value — per-sample loss values are unchanged.
  // Gradient flow through a shared node merges where per-sample memos
  // would duplicate it, which only gradient accumulation order can
  // observe.
  StateMemo BatchStates;
  std::vector<EncodeContext> Ctxs(B);
  for (EncodeContext &Ctx : Ctxs)
    Ctx.Stats = Stats;
  auto Token = [&](uint32_t Sample, int Id) {
    return lookupToken(Id, Ctxs[Sample]);
  };

  // One lane per encoded blended trace, in sample-major order.
  struct Lane {
    size_t Sample;
    const BlendedTrace *Path;
    PathExtent Extent;
    RecState Trace;
    Var PrevH;
    std::vector<Var> Memory;
  };
  std::vector<Lane> Lanes;
  size_t MaxSteps = 0;
  for (size_t S = 0; S < B; ++S) {
    for (const BlendedTrace &Path : Batch[S]->Paths) {
      std::optional<PathExtent> Extent = pathExtent(Config, Path);
      if (!Extent)
        continue;
      Lane L;
      L.Sample = S;
      L.Path = &Path;
      L.Extent = *Extent;
      L.Trace = F3.initial();
      L.PrevH = L.Trace.H;
      MaxSteps = std::max(MaxSteps, L.Extent.Steps);
      Lanes.push_back(std::move(L));
    }
  }

  // Timestep-major lockstep: each round fuses every live lane's step-J
  // components per lane, then advances all lanes with a fused input
  // through one batched F3 step.
  struct PendingSlot {
    size_t LaneIdx;
    size_t CompIdx;
  };
  std::vector<std::vector<Var>> LaneStates(Lanes.size());
  std::vector<StateRequest> Requests;
  std::vector<PendingSlot> Pending; ///< Pending[K] awaits Requests[K].
  std::vector<size_t> Active;
  std::vector<Var> Ins;
  std::vector<RecState> PrevStates;
  for (size_t J = 0; J < MaxSteps; ++J) {
    // Resolve the round's state components up front: cached states
    // fill their lane slots directly, the rest are embedded through one
    // depth-by-depth walk of the batch's f1/f2 tries (a state requested
    // twice walks shared edges, so it costs no extra step), then
    // patched into the slots they came from.
    for (std::vector<Var> &Slots : LaneStates)
      Slots.clear();
    Requests.clear();
    Pending.clear();
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      Lane &L = Lanes[Li];
      if (J >= L.Extent.Steps)
        continue;
      for (size_t T = 0; T < L.Extent.NumConcrete; ++T) {
        const ProgramState *State = fusedState(*L.Path, T, J);
        if (!State)
          continue;
        StateRequest Rq;
        Rq.Owner = static_cast<uint32_t>(L.Sample);
        Rq.State = State;
        Rq.Key = stateKey(Config.MaxFlattenedValues, *State, Rq.ValueTokens);
        auto It = BatchStates.Cache.find(Rq.Key);
        if (It != BatchStates.Cache.end()) {
          LaneStates[Li].push_back(It->second);
          continue;
        }
        LaneStates[Li].push_back(nullptr);
        Pending.push_back({Li, LaneStates[Li].size() - 1});
        Requests.push_back(std::move(Rq));
      }
    }
    if (!Requests.empty()) {
      std::vector<Var> Embedded = embedStates(
          F1, F2, Vocab, /*VarTags=*/{}, Requests, BatchStates, Token,
          [](uint32_t, uint32_t, const Var &Value) { return Value; });
      for (size_t K = 0; K < Pending.size(); ++K)
        LaneStates[Pending[K].LaneIdx][Pending[K].CompIdx] = Embedded[K];
    }

    Active.clear();
    Ins.clear();
    PrevStates.clear();
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      Lane &L = Lanes[Li];
      if (J >= L.Extent.Steps)
        continue;
      Var Fused =
          fuseStep(*L.Path, J, LaneStates[Li], L.PrevH, Ctxs[L.Sample]);
      if (!Fused)
        continue;
      Active.push_back(Li);
      Ins.push_back(Fused);
      PrevStates.push_back(L.Trace);
    }
    if (Active.empty())
      continue;
    std::vector<RecState> Next = F3.stepBatch(Ins, PrevStates);
    for (size_t K = 0; K < Active.size(); ++K) {
      Lane &L = Lanes[Active[K]];
      L.Trace = Next[K];
      L.PrevH = Next[K].H;
      L.Memory.push_back(Next[K].H);
    }
  }

  if (Stats)
    Stats->StateCellSteps += BatchStates.cellSteps();

  // Per-sample assembly in path-major order.
  std::vector<LigerEncoding> Out(B);
  std::vector<std::vector<Var>> PathEmbeds(B);
  for (Lane &L : Lanes) {
    PathEmbeds[L.Sample].push_back(L.Trace.H);
    Out[L.Sample].StepMemory.insert(Out[L.Sample].StepMemory.end(),
                                    L.Memory.begin(), L.Memory.end());
  }
  for (size_t S = 0; S < B; ++S) {
    if (PathEmbeds[S].empty()) {
      Out[S].ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
      Out[S].StepMemory.assign(1, Out[S].ProgramEmbedding);
      continue;
    }
    Out[S].ProgramEmbedding = Config.MeanPoolPrograms
                                  ? meanPool(PathEmbeds[S])
                                  : maxPool(PathEmbeds[S]);
    if (Out[S].StepMemory.empty())
      Out[S].StepMemory.push_back(Out[S].ProgramEmbedding);
  }
  return Out;
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
