//===-- models/StateTrie.h - Shared f1/f2 state-embedding walk --*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program-state embedding both dynamic models and the serving
/// engine share: f1 folds each object value's flattened tokens (Eq. 3),
/// f2 folds a state's per-variable inputs into the state vector. Each
/// encode owns one StateMemo, one prefix trie per cell, so every
/// distinct object-value prefix and variable prefix of the encode is
/// one cell step (DESIGN.md §14.2); the caller keeps a cache of whole
/// states keyed by stateKey in front of it. The walk is generic over
/// the cell and state types, so the same code builds graph nodes in
/// training and writes arena floats in serving.
///
/// The models differ only in what an f2 input is. LIGER feeds the value
/// embedding; DYPRO feeds the variable's name embedding concatenated
/// with it. Each says so through the variable tags and the input
/// resolver it hands to embedStates; the walk does not know which
/// model called it.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_STATETRIE_H
#define LIGER_MODELS_STATETRIE_H

#include "trace/Trace.h"
#include "trace/Vocabulary.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace liger {

/// The state-cache key of \p State, filling \p ValueTokens with each
/// variable's flattened token sequence (object values truncated to
/// \p MaxFlattenedValues). Equal keys mean bitwise-equal state
/// embeddings.
std::string stateKey(size_t MaxFlattenedValues, const ProgramState &State,
                     std::vector<std::vector<std::string>> &ValueTokens);

/// Memo of one state cell (f1 or f2) over a state type (a graph
/// RecState, or the serving engine's arena state): node 0 is the cell's
/// initial state, and the child of node P along input key K holds
/// Cell.step(input(K), node P). Equal keys mean bitwise-equal inputs,
/// so a shared node has exactly the value of every chain it stands for.
template <class StateT> struct PrefixTrie {
  using Edge = std::pair<uint32_t, uint64_t>; ///< (parent, input key)
  struct EdgeHash {
    size_t operator()(const Edge &E) const {
      return std::hash<uint64_t>()(E.second) * 31 + E.first;
    }
  };
  std::vector<StateT> Nodes;
  std::unordered_map<Edge, uint32_t, EdgeHash> Children;
};

/// One walk down a prefix trie: its input keys, and a caller-defined
/// owner (the sample whose token cache resolves the keys) handed back
/// to the resolver.
struct TrieWalk {
  uint32_t Owner = 0;
  std::vector<uint64_t> Keys;
};

/// Advances every walk through \p Trie depth by depth. At each depth
/// the edges the trie lacks (deduplicated across walks) run as one
/// Cell.stepBatch over Resolve(Owner, Key) of the first walk to reach
/// each; edges it holds cost no step. \p Cell is any cell with
/// initial() and stepBatch(Inputs, Prev): a RecurrentCell builds graph
/// nodes, the serving engine's cells write arena floats. Returns each
/// walk's final node.
template <class CellT, class StateT, class ResolveFn>
std::vector<uint32_t> walkTrie(const CellT &Cell, PrefixTrie<StateT> &Trie,
                               const std::vector<TrieWalk> &Walks,
                               ResolveFn &&Resolve) {
  using Input = std::decay_t<decltype(Resolve(uint32_t(), uint64_t()))>;
  if (Trie.Nodes.empty())
    Trie.Nodes.push_back(Cell.initial());
  size_t Depth = 0;
  for (const TrieWalk &W : Walks)
    Depth = std::max(Depth, W.Keys.size());
  std::vector<uint32_t> At(Walks.size(), 0);
  std::vector<Input> Ins;
  std::vector<StateT> Prev;
  for (size_t D = 0; D < Depth; ++D) {
    // A new edge takes the next node index; a walk reaching an edge
    // another walk created this depth shares that pending node.
    Ins.clear();
    Prev.clear();
    auto First = static_cast<uint32_t>(Trie.Nodes.size());
    for (size_t W = 0; W < Walks.size(); ++W) {
      if (D >= Walks[W].Keys.size())
        continue;
      uint64_t Key = Walks[W].Keys[D];
      auto [It, Inserted] = Trie.Children.try_emplace(
          {At[W], Key}, First + static_cast<uint32_t>(Ins.size()));
      if (Inserted) {
        Ins.push_back(Resolve(Walks[W].Owner, Key));
        Prev.push_back(Trie.Nodes[At[W]]);
      }
      At[W] = It->second;
    }
    if (Ins.empty())
      continue;
    std::vector<StateT> Next = Cell.stepBatch(Ins, Prev);
    Trie.Nodes.insert(Trie.Nodes.end(), Next.begin(), Next.end());
  }
  return At;
}

/// An f2 input key. Bits 0-31 hold a primitive value's token id, or
/// with ObjectInput set an object value's f1 node; bits 32-62 hold the
/// caller's tag of the variable (0 when untagged).
constexpr uint64_t ObjectInput = uint64_t(1) << 63;
constexpr unsigned VarTagShift = 32;

/// The f1/f2 prefix tries of one encode: states that miss the caller's
/// state cache walk them, so every distinct prefix is one cell step.
template <class StateT> struct StateMemo {
  PrefixTrie<StateT> F1Trie, F2Trie;

  /// f1 + f2 cell steps taken: every trie node except the roots.
  size_t cellSteps() const {
    auto Steps = [](const PrefixTrie<StateT> &T) {
      return T.Nodes.empty() ? 0 : T.Nodes.size() - 1;
    };
    return Steps(F1Trie) + Steps(F2Trie);
  }
};

/// One state to embed: its owner (see TrieWalk), the state, and its
/// stateKey with the per-variable token sequences it filled.
struct StateRequest {
  uint32_t Owner = 0;
  const ProgramState *State = nullptr;
  std::string Key;
  std::vector<std::vector<std::string>> ValueTokens;
};

/// Embeds every request through the tries of \p Memo: one f1 walk over
/// the token ids of each object value, in request order, then one f2
/// walk per state whose key for variable I carries the tag
/// VarTags[I] (0 past its end). Token(Owner, Id) resolves a token
/// embedding; VarInput(Owner, Tag, Value) builds the f2 input of a
/// variable with that tag and value embedding. Returns the embeddings
/// in request order; caching them is the caller's.
template <class CellT, class StateT, class TokenFn, class VarInputFn>
auto embedStates(const CellT &F1, const CellT &F2, const Vocabulary &Vocab,
                 const std::vector<uint32_t> &VarTags,
                 const std::vector<StateRequest> &Requests,
                 StateMemo<StateT> &Memo, TokenFn &&Token,
                 VarInputFn &&VarInput) {
  auto IsObject = [](const Value &V) { return V.isArray() || V.isStruct(); };
  std::vector<TrieWalk> F1Walks;
  for (const StateRequest &Rq : Requests) {
    for (size_t I = 0; I < Rq.State->Values.size(); ++I) {
      if (!IsObject(Rq.State->Values[I]))
        continue;
      TrieWalk W{Rq.Owner, {}};
      W.Keys.reserve(Rq.ValueTokens[I].size());
      for (const std::string &Tok : Rq.ValueTokens[I])
        W.Keys.push_back(static_cast<uint64_t>(Vocab.lookup(Tok)));
      F1Walks.push_back(std::move(W));
    }
  }
  // An empty flattening ends at the f1 root (zeros).
  std::vector<uint32_t> F1Ends =
      walkTrie(F1, Memo.F1Trie, F1Walks, [&](uint32_t Owner, uint64_t Key) {
        return Token(Owner, static_cast<int>(Key));
      });

  // f2 folds each state's variable inputs in the fixed variable order.
  std::vector<TrieWalk> F2Walks;
  F2Walks.reserve(Requests.size());
  size_t F1Walk = 0;
  for (const StateRequest &Rq : Requests) {
    TrieWalk W{Rq.Owner, {}};
    W.Keys.reserve(Rq.State->Values.size());
    for (size_t I = 0; I < Rq.State->Values.size(); ++I) {
      uint64_t Tag = I < VarTags.size() ? VarTags[I] : 0;
      W.Keys.push_back(
          (Tag << VarTagShift) |
          (IsObject(Rq.State->Values[I])
               ? ObjectInput | F1Ends[F1Walk++]
               : static_cast<uint64_t>(Vocab.lookup(Rq.ValueTokens[I][0]))));
    }
    F2Walks.push_back(std::move(W));
  }
  std::vector<uint32_t> F2Ends =
      walkTrie(F2, Memo.F2Trie, F2Walks, [&](uint32_t Owner, uint64_t Key) {
        auto Low = static_cast<uint32_t>(Key);
        auto ValueIn = (Key & ObjectInput)
                           ? Memo.F1Trie.Nodes[Low].H
                           : Token(Owner, static_cast<int>(Low));
        auto Tag = static_cast<uint32_t>((Key & ~ObjectInput) >> VarTagShift);
        return VarInput(Owner, Tag, ValueIn);
      });

  std::vector<decltype(StateT::H)> Out;
  Out.reserve(Requests.size());
  for (uint32_t End : F2Ends)
    Out.push_back(Memo.F2Trie.Nodes[End].H);
  return Out;
}

} // namespace liger

#endif // LIGER_MODELS_STATETRIE_H
