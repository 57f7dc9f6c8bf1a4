//===-- oracle/Oracle.h - Equivalence-test reference graphs -----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only oracle: the one-op-per-node reference graphs that the
/// fused and batched production ops of nn/Module.h must match bit for
/// bit (losses, softmax weights, gradients, post-Adam parameters).
///
/// The oracle never reaches into a module. It binds the packed
/// parameters a module registered in its ParamStore by name —
/// `<name>.Wx/.bx/.Wh` for gated cells and the TreeLSTM,
/// `<name>.l1.W/.l1.b/.l2.W/.l2.b` for an attention scorer — and
/// builds the reference graph over those same parameter nodes, so its
/// gradients land in the same store slots as the production module's.
///
/// Node creation order in every reference graph is load-bearing: the
/// fused ops' backward closures replay gradient accumulation in
/// exactly this graph's descending-Seq order, which is what makes the
/// two paths bitwise-identical. Keep every op an explicitly sequenced
/// statement (nested calls would leave argument evaluation order
/// unspecified).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TESTS_ORACLE_ORACLE_H
#define LIGER_TESTS_ORACLE_ORACLE_H

#include "nn/Module.h"

#include <functional>
#include <string>
#include <vector>

namespace liger::oracle {

/// The parameter registered in \p Store as \p Name; fatal if absent.
Var param(const ParamStore &Store, const std::string &Name);

/// Per-gate reference of a packed Gru/Lstm RecurrentCell: the gate
/// blocks become explicit row/slice view nodes over the packed
/// parameters, composed from single-op graph nodes.
class ReferenceCell {
public:
  ReferenceCell(const ParamStore &Store, const std::string &Name,
                CellKind Kind);

  /// Reference of RecurrentCell::step.
  RecState stepUnfused(const Var &X, const RecState &Prev) const;

  /// Reference of RecurrentCell::run: zero initial state (created like
  /// RecurrentCell::initial), then stepUnfused per input.
  std::vector<RecState> runUnfused(const std::vector<Var> &Inputs) const;

private:
  CellKind Kind;
  size_t Hidden;
  Var PWx, PBx, PWh;
};

/// Per-gate reference of ChildSumTreeLstm::embed.
class ReferenceTreeLstm {
public:
  using EmbedFn = std::function<Var(const std::string &)>;

  ReferenceTreeLstm(const ParamStore &Store, const std::string &Name);

  Var embedUnfused(const AstTree &Tree, const EmbedFn &Embed) const;

private:
  struct NodeState {
    Var H = nullptr, C = nullptr;
  };
  NodeState embedNodeUnfused(const AstTree &Tree, const EmbedFn &Embed) const;

  size_t Hidden;
  Var PWx, PBx, PWh;
};

/// Per-pair reference of AttentionScorer: the split first layer as
/// column views of the packed W1, one score chain per key, then
/// softmax and the weighted key sum as separate nodes.
class ReferenceAttention {
public:
  ReferenceAttention(const ParamStore &Store, const std::string &Name,
                     size_t KeyDim);

  /// Reference of AttentionScorer::Memory: the keys plus one key-side
  /// projection node per key.
  struct Memory {
    std::vector<Var> Keys;
    std::vector<Var> KeyProjRows;
  };

  /// Reference of AttentionScorer::prepare.
  Memory prepare(const std::vector<Var> &Keys) const;

  /// Reference of AttentionScorer::contextOf.
  AttentionScorer::Result contextOf(const Var &Query, const Memory &Mem) const;

  /// Scalar score node for one (query, key) pair.
  Var scoreUnfused(const Var &Query, const Var &Key) const;

  /// All T pre-softmax scores of \p Query against \p Keys as one [T]
  /// node, sharing the key projections across scores.
  Var scoreAll(const Var &Query, const std::vector<Var> &Keys) const;

  /// Softmax-normalized weights for one query over many keys.
  Var weights(const Var &Query, const std::vector<Var> &Keys) const;

private:
  /// Shared tail of scoreAll/contextOf: the query-side matvec plus the
  /// per-key tanh → second-layer chains over prepared projections.
  Var scoreAllRows(const Var &Query,
                   const std::vector<Var> &KeyProjRows) const;

  size_t KeyDim, QueryDim;
  Var W1, B1, W2, B2;
};

} // namespace liger::oracle

#endif // LIGER_TESTS_ORACLE_ORACLE_H
