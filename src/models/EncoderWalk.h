//===-- models/EncoderWalk.h - The one LIGER encoder walk -------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LIGER encoder (§5, Fig. 5) written once, over an executor that
/// decides what a vector is. LigerEncoder::encodeBatch runs it with a
/// graph executor (autodiff nodes, batched cell steps); LigerInference
/// with a scratch executor (arena floats, persistent caches whose slots
/// hold precomputed key projections). Both read traces through
/// pathExtent / fusedState / stateKey and embed states through the
/// shared prefix tries (models/StateTrie.h), so serving computes what
/// training computes; InferenceEquivalenceTest compares them with
/// memcmp (DESIGN.md §13.2).
///
/// An executor X provides:
///  - types Vec (a vector) and State (a recurrent state with a Vec H);
///  - cells X.F1, X.F2, X.F3, each with initial() and
///    stepBatch(Inputs, Prev) -> next states in lane order;
///  - token(Sample, Id) and statement(Sample, Stmt) embeddings;
///  - findState(Key), the cached embedding of a state or a null Vec,
///    and storeState(Key, H), which caches a new one and returns the
///    Vec its steps fuse;
///  - meanPool(Items), maxPool(Items), zeros(), and
///    attend(Components, Query) -> {context, weight of component 0};
///  - countState(Hit), countFusion(StaticWeight) and
///    countCellSteps(N), which record what the walk did.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_ENCODERWALK_H
#define LIGER_MODELS_ENCODERWALK_H

#include "models/Liger.h"
#include "models/StateTrie.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace liger {

/// Encodes a batch of methods, every encoded blended trace one lane
/// advanced in lockstep: at each step index J the round resolves every
/// live lane's state components (cache hits first, then the misses of
/// the round through one walk of the prefix tries), fuses each lane's
/// statement and states (one component as is, the mean at step one or
/// without fusion attention, else attention queried by the lane's
/// previous f3 state), and advances all lanes with a fused input
/// through one f3 stepBatch. Each sample's program embedding pools its
/// lanes' final states; its step memory lists them path-major.
///
/// A state that misses and recurs in the same round is embedded once
/// and counted as one miss and one hit, as it would be one round later.
template <class Exec>
std::vector<LigerEncodingOf<typename Exec::Vec>>
encoderWalk(const LigerConfig &Config, const Vocabulary &Vocab, Exec &X,
            const std::vector<const MethodTraces *> &Batch) {
  using Vec = typename Exec::Vec;
  using State = typename Exec::State;
  size_t B = Batch.size();
  StateMemo<State> Memo;

  struct Lane {
    uint32_t Sample;
    const BlendedTrace *Path;
    PathExtent Extent;
    State Trace;
    std::vector<Vec> Memory;
  };
  std::vector<Lane> Lanes;
  size_t MaxSteps = 0;
  for (size_t S = 0; S < B; ++S) {
    for (const BlendedTrace &Path : Batch[S]->Paths) {
      std::optional<PathExtent> Extent = pathExtent(Config, Path);
      if (!Extent)
        continue;
      MaxSteps = std::max(MaxSteps, Extent->Steps);
      Lanes.push_back(
          {static_cast<uint32_t>(S), &Path, *Extent, X.F3.initial(), {}});
    }
  }

  struct PendingSlot {
    size_t Lane, Comp, Request;
  };
  std::vector<std::vector<Vec>> LaneStates(Lanes.size());
  std::vector<StateRequest> Requests;
  std::vector<PendingSlot> Pending;
  std::unordered_map<std::string, size_t> RoundRequests; ///< Key -> index.
  std::vector<size_t> Active;
  std::vector<Vec> Components, Ins;
  std::vector<State> Prev;
  for (size_t J = 0; J < MaxSteps; ++J) {
    for (std::vector<Vec> &Slots : LaneStates)
      Slots.clear();
    Requests.clear();
    Pending.clear();
    RoundRequests.clear();
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      const Lane &L = Lanes[Li];
      if (J >= L.Extent.Steps)
        continue;
      for (size_t T = 0; T < L.Extent.NumConcrete; ++T) {
        const ProgramState *St = fusedState(*L.Path, T, J);
        if (!St)
          continue;
        StateRequest Rq;
        Rq.Owner = L.Sample;
        Rq.State = St;
        Rq.Key = stateKey(Config.MaxFlattenedValues, *St, Rq.ValueTokens);
        if (Vec Cached = X.findState(Rq.Key)) {
          X.countState(/*Hit=*/true);
          LaneStates[Li].push_back(Cached);
          continue;
        }
        auto [It, New] = RoundRequests.try_emplace(Rq.Key, Requests.size());
        X.countState(/*Hit=*/!New);
        Pending.push_back({Li, LaneStates[Li].size(), It->second});
        LaneStates[Li].push_back(Vec());
        if (New)
          Requests.push_back(std::move(Rq));
      }
    }
    if (!Requests.empty()) {
      std::vector<Vec> Embedded = embedStates(
          X.F1, X.F2, Vocab, /*VarTags=*/{}, Requests, Memo,
          [&](uint32_t Sample, int Id) { return X.token(Sample, Id); },
          [](uint32_t, uint32_t, const Vec &Value) { return Value; });
      for (size_t K = 0; K < Requests.size(); ++K)
        Embedded[K] = X.storeState(std::move(Requests[K].Key), Embedded[K]);
      for (const PendingSlot &P : Pending)
        LaneStates[P.Lane][P.Comp] = Embedded[P.Request];
    }

    Active.clear();
    Ins.clear();
    Prev.clear();
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      const Lane &L = Lanes[Li];
      if (J >= L.Extent.Steps)
        continue;
      // The statement vector, when enabled, is component 0.
      Components.clear();
      if (Config.UseStaticFeature)
        Components.push_back(
            X.statement(L.Sample, L.Path->Symbolic.Steps[J].Statement));
      Components.insert(Components.end(), LaneStates[Li].begin(),
                        LaneStates[Li].end());
      if (Components.empty())
        continue; // dynamic-only config with a state-less step
      Vec Fused = Components[0]; // one component is the fused vector
      double StaticWeight = 1.0;
      if (Components.size() > 1) {
        if (!Config.UseFusionAttention || J == 0) {
          // The paper weighs the components evenly at step one.
          Fused = X.meanPool(Components);
          StaticWeight = 1.0 / static_cast<double>(Components.size());
        } else {
          std::tie(Fused, StaticWeight) = X.attend(Components, L.Trace.H);
        }
      }
      if (Config.UseStaticFeature)
        X.countFusion(StaticWeight);
      Active.push_back(Li);
      Ins.push_back(Fused);
      Prev.push_back(L.Trace);
    }
    if (Active.empty())
      continue;
    std::vector<State> Next = X.F3.stepBatch(Ins, Prev);
    for (size_t K = 0; K < Active.size(); ++K) {
      Lane &L = Lanes[Active[K]];
      L.Trace = Next[K];
      L.Memory.push_back(Next[K].H);
    }
  }
  X.countCellSteps(Memo.cellSteps());

  std::vector<LigerEncodingOf<Vec>> Out(B);
  std::vector<std::vector<Vec>> PathEmbeds(B);
  for (Lane &L : Lanes) {
    PathEmbeds[L.Sample].push_back(L.Trace.H);
    Out[L.Sample].StepMemory.insert(Out[L.Sample].StepMemory.end(),
                                    L.Memory.begin(), L.Memory.end());
  }
  for (size_t S = 0; S < B; ++S) {
    if (PathEmbeds[S].empty()) {
      Out[S].ProgramEmbedding = X.zeros();
      Out[S].StepMemory.assign(1, Out[S].ProgramEmbedding);
      continue;
    }
    Out[S].ProgramEmbedding = Config.MeanPoolPrograms
                                  ? X.meanPool(PathEmbeds[S])
                                  : X.maxPool(PathEmbeds[S]);
    if (Out[S].StepMemory.empty())
      Out[S].StepMemory.push_back(Out[S].ProgramEmbedding);
  }
  return Out;
}

} // namespace liger

#endif // LIGER_MODELS_ENCODERWALK_H
