//===-- oracle/Oracle.cpp - Reference graphs for equivalence tests --------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

using namespace liger;
using namespace liger::oracle;

Var oracle::param(const ParamStore &Store, const std::string &Name) {
  for (size_t I = 0; I < Store.names().size(); ++I)
    if (Store.names()[I] == Name)
      return Store.params()[I];
  reportFatalError("oracle: no parameter named '" + Name + "'");
}

//===----------------------------------------------------------------------===//
// ReferenceCell
//===----------------------------------------------------------------------===//

ReferenceCell::ReferenceCell(const ParamStore &Store, const std::string &Name,
                             CellKind Kind)
    : Kind(Kind), PWx(param(Store, Name + ".Wx")),
      PBx(param(Store, Name + ".bx")), PWh(param(Store, Name + ".Wh")) {
  LIGER_CHECK(Kind != CellKind::Rnn, "the Rnn cell has no fused form");
  Hidden = PWh->Value.dim(1);
}

RecState ReferenceCell::stepUnfused(const Var &X, const RecState &Prev) const {
  size_t H = Hidden;
  if (Kind == CellKind::Gru) {
    Var Wz = rowsView(PWx, 0, H);
    Var Wr = rowsView(PWx, H, H);
    Var Wn = rowsView(PWx, 2 * H, H);
    Var Bz = sliceView(PBx, 0, H);
    Var Br = sliceView(PBx, H, H);
    Var Bn = sliceView(PBx, 2 * H, H);
    Var Uz = rowsView(PWh, 0, H);
    Var Ur = rowsView(PWh, H, H);
    Var Un = rowsView(PWh, 2 * H, H);
    auto Gate = [&](const Var &W, const Var &B, const Var &U,
                    const Var &HVec) {
      Var A = matvec(W, X);
      Var Ab = add(A, B);
      Var Uh = matvec(U, HVec);
      return add(Ab, Uh);
    };
    Var Z = sigmoidV(Gate(Wz, Bz, Uz, Prev.H));
    Var Rg = sigmoidV(Gate(Wr, Br, Ur, Prev.H));
    Var RH = mul(Rg, Prev.H);
    Var N = tanhV(Gate(Wn, Bn, Un, RH));
    // h = (1 - z) * n + z * h_prev  =  n + z * (h_prev - n)
    Var D = sub(Prev.H, N);
    Var ZD = mul(Z, D);
    RecState S;
    S.H = add(N, ZD);
    return S;
  }
  Var Wi = rowsView(PWx, 0, H);
  Var Wf = rowsView(PWx, H, H);
  Var Wg = rowsView(PWx, 2 * H, H);
  Var Wo = rowsView(PWx, 3 * H, H);
  Var Bi = sliceView(PBx, 0, H);
  Var Bf = sliceView(PBx, H, H);
  Var Bg = sliceView(PBx, 2 * H, H);
  Var Bo = sliceView(PBx, 3 * H, H);
  Var Ui = rowsView(PWh, 0, H);
  Var Uf = rowsView(PWh, H, H);
  Var Ug = rowsView(PWh, 2 * H, H);
  Var Uo = rowsView(PWh, 3 * H, H);
  auto Gate = [&](const Var &W, const Var &B, const Var &U) {
    Var A = matvec(W, X);
    Var Ab = add(A, B);
    Var Uh = matvec(U, Prev.H);
    return add(Ab, Uh);
  };
  Var I = sigmoidV(Gate(Wi, Bi, Ui));
  Var F = sigmoidV(Gate(Wf, Bf, Uf));
  Var G = tanhV(Gate(Wg, Bg, Ug));
  Var O = sigmoidV(Gate(Wo, Bo, Uo));
  Var FC = mul(F, Prev.C);
  Var IG = mul(I, G);
  RecState S;
  S.C = add(FC, IG);
  Var TC = tanhV(S.C);
  S.H = mul(O, TC);
  return S;
}

std::vector<RecState>
ReferenceCell::runUnfused(const std::vector<Var> &Inputs) const {
  RecState S;
  S.H = constant(Tensor::zeros(Hidden));
  if (Kind == CellKind::Lstm)
    S.C = constant(Tensor::zeros(Hidden));
  std::vector<RecState> States;
  States.reserve(Inputs.size());
  for (const Var &X : Inputs) {
    S = stepUnfused(X, S);
    States.push_back(S);
  }
  return States;
}

//===----------------------------------------------------------------------===//
// ReferenceTreeLstm
//===----------------------------------------------------------------------===//

ReferenceTreeLstm::ReferenceTreeLstm(const ParamStore &Store,
                                     const std::string &Name)
    : PWx(param(Store, Name + ".Wx")), PBx(param(Store, Name + ".bx")),
      PWh(param(Store, Name + ".Wh")) {
  Hidden = PWh->Value.dim(1);
}

Var ReferenceTreeLstm::embedUnfused(const AstTree &Tree,
                                    const EmbedFn &Embed) const {
  return embedNodeUnfused(Tree, Embed).H;
}

ReferenceTreeLstm::NodeState
ReferenceTreeLstm::embedNodeUnfused(const AstTree &Tree,
                                    const EmbedFn &Embed) const {
  std::vector<NodeState> Children;
  Children.reserve(Tree.Children.size());
  for (const AstTree &Child : Tree.Children)
    Children.push_back(embedNodeUnfused(Child, Embed));

  Var X = Embed(Tree.Label);

  // h~ = Σ_k h_k (zero vector for leaves), built as the same add chain
  // ChildSumTreeLstm::embed feeds its fused node.
  Var HSum;
  if (Children.empty()) {
    HSum = constant(Tensor::zeros(Hidden));
  } else {
    HSum = Children.size() == 1 ? Children[0].H
                                : add(Children[0].H, Children[1].H);
    for (size_t I = 2; I < Children.size(); ++I)
      HSum = add(HSum, Children[I].H);
  }

  // Pack order is i, o, u, f.
  size_t H = Hidden;
  Var WiV = rowsView(PWx, 0, H);
  Var BiV = sliceView(PBx, 0, H);
  Var UiV = rowsView(PWh, 0, H);
  Var WoV = rowsView(PWx, H, H);
  Var BoV = sliceView(PBx, H, H);
  Var UoV = rowsView(PWh, H, H);
  Var WuV = rowsView(PWx, 2 * H, H);
  Var BuV = sliceView(PBx, 2 * H, H);
  Var UuV = rowsView(PWh, 2 * H, H);
  auto Gate = [&](const Var &W, const Var &B, const Var &U,
                  const Var &HVec) {
    Var A = matvec(W, X);
    Var Ab = add(A, B);
    Var Uh = matvec(U, HVec);
    return add(Ab, Uh);
  };
  Var I = sigmoidV(Gate(WiV, BiV, UiV, HSum));
  Var O = sigmoidV(Gate(WoV, BoV, UoV, HSum));
  Var U = tanhV(Gate(WuV, BuV, UuV, HSum));

  // c = i ⊙ u + Σ_k f_k ⊙ c_k, with a per-child forget gate
  // f_k = σ(Wf x + Uf h_k). The f views are created fresh per child:
  // a shared view would pre-aggregate the children's weight gradients
  // before scattering, rounding differently from the fused op's
  // direct per-child accumulation.
  Var C = mul(I, U);
  for (const NodeState &Child : Children) {
    Var WfV = rowsView(PWx, 3 * H, H);
    Var BfV = sliceView(PBx, 3 * H, H);
    Var UfV = rowsView(PWh, 3 * H, H);
    Var Fk = sigmoidV(Gate(WfV, BfV, UfV, Child.H));
    Var FC = mul(Fk, Child.C);
    C = add(C, FC);
  }

  Var TC = tanhV(C);
  NodeState Result;
  Result.C = C;
  Result.H = mul(O, TC);
  return Result;
}

//===----------------------------------------------------------------------===//
// ReferenceAttention
//===----------------------------------------------------------------------===//

ReferenceAttention::ReferenceAttention(const ParamStore &Store,
                                       const std::string &Name, size_t KeyDim)
    : KeyDim(KeyDim), W1(param(Store, Name + ".l1.W")),
      B1(param(Store, Name + ".l1.b")), W2(param(Store, Name + ".l2.W")),
      B2(param(Store, Name + ".l2.b")) {
  LIGER_CHECK(KeyDim < W1->Value.dim(1), "key dim exceeds the score MLP");
  QueryDim = W1->Value.dim(1) - KeyDim;
}

ReferenceAttention::Memory
ReferenceAttention::prepare(const std::vector<Var> &Keys) const {
  Memory Mem;
  Mem.Keys = Keys;
  Var Wk = colsView(W1, 0, KeyDim);
  Mem.KeyProjRows.reserve(Keys.size());
  for (const Var &Key : Keys) {
    Var Mk = matvec(Wk, Key);
    Var KP = add(Mk, B1);
    Mem.KeyProjRows.push_back(KP);
  }
  return Mem;
}

AttentionScorer::Result
ReferenceAttention::contextOf(const Var &Query, const Memory &Mem) const {
  Var Scores = scoreAllRows(Query, Mem.KeyProjRows);
  Var A = softmax(Scores);
  return {weightedCombine(Mem.Keys, A), A->Value.data()};
}

Var ReferenceAttention::scoreUnfused(const Var &Query, const Var &Key) const {
  Var Wk = colsView(W1, 0, KeyDim);
  Var Mk = matvec(Wk, Key);
  Var KP = add(Mk, B1);
  Var Wq = colsView(W1, KeyDim, QueryDim);
  Var Mq = matvec(Wq, Query);
  Var Pre = add(KP, Mq);
  Var Act = tanhV(Pre);
  Var M2 = matvec(W2, Act);
  return add(M2, B2);
}

Var ReferenceAttention::scoreAllRows(
    const Var &Query, const std::vector<Var> &KeyProjRows) const {
  // The fused attentionOp's backward replays exactly this graph in
  // descending creation order (query-side view + matvec first, then
  // each key's chain).
  Var Wq = colsView(W1, KeyDim, QueryDim);
  Var Mq = matvec(Wq, Query);
  std::vector<Var> Scores;
  Scores.reserve(KeyProjRows.size());
  for (const Var &KP : KeyProjRows) {
    Var Pre = add(KP, Mq);
    Var Act = tanhV(Pre);
    Var M2 = matvec(W2, Act);
    Scores.push_back(add(M2, B2));
  }
  return stackScalars(Scores);
}

Var ReferenceAttention::scoreAll(const Var &Query,
                                 const std::vector<Var> &Keys) const {
  return scoreAllRows(Query, prepare(Keys).KeyProjRows);
}

Var ReferenceAttention::weights(const Var &Query,
                                const std::vector<Var> &Keys) const {
  return softmax(scoreAll(Query, Keys));
}
