//===-- models/Inference.cpp - Forward-only LIGER runtime ------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The engine binds weights and runs the forward kernels; the encode
// itself is the shared encoder walk (models/EncoderWalk.h) over the
// ScratchExec below. Each kernel call is a values-only transliteration
// of its graph counterpart (Module.cpp / Graph.cpp / Decoder.cpp),
// calling the same inferops:: kernels the fused graph ops call;
// InferenceEquivalenceTest compares the two with memcmp.
//
//===----------------------------------------------------------------------===//

#include "models/Inference.h"

#include "lang/AstTree.h"
#include "models/Common.h"
#include "models/EncoderWalk.h"
#include "nn/InferOps.h"

#include <cstring>

using namespace liger;

//===----------------------------------------------------------------------===//
// ScratchArena
//===----------------------------------------------------------------------===//

namespace {
constexpr size_t MinBlockFloats = 1u << 16;
} // namespace

float *ScratchArena::alloc(size_t N) {
  if (N == 0)
    N = 1;
  while (Active < Blocks.size()) {
    Block &B = Blocks[Active];
    if (B.Used + N <= B.Data.size()) {
      float *P = B.Data.data() + B.Used;
      B.Used += N;
      return P;
    }
    ++Active; // Tail slack is reclaimed at the next reset().
  }
  Blocks.emplace_back();
  Blocks.back().Data.resize(std::max(MinBlockFloats, N));
  Blocks.back().Used = N;
  Active = Blocks.size() - 1;
  return Blocks.back().Data.data();
}

float *ScratchArena::allocZeroed(size_t N) {
  float *P = alloc(N);
  std::memset(P, 0, N * sizeof(float));
  return P;
}

void ScratchArena::reset() {
  for (Block &B : Blocks)
    B.Used = 0;
  Active = 0;
}

size_t ScratchArena::floatsReserved() const {
  size_t Total = 0;
  for (const Block &B : Blocks)
    Total += B.Data.size();
  return Total;
}

//===----------------------------------------------------------------------===//
// Weight binding
//===----------------------------------------------------------------------===//

LigerInference::LigerInference(const WeightImage &Image,
                               const Vocabulary &JointVocab,
                               const Vocabulary *Target,
                               const LigerConfig &Cfg)
    : Config(Cfg), Vocab(JointVocab), TargetVocab(Target) {
  LIGER_CHECK(Config.UseStaticFeature || Config.UseDynamicFeature,
              "at least one feature dimension must be enabled");
  bind(Image);
}

LigerInference::LinearRef
LigerInference::bindLinear(const WeightImage &Image, const std::string &Name,
                           size_t In, size_t Out) const {
  LinearRef L;
  L.In = In;
  L.Out = Out;
  L.W = Image.tensor2d(Name + ".W", Out, In);
  L.B = Image.tensor1d(Name + ".b", Out);
  return L;
}

LigerInference::CellRef
LigerInference::bindCell(const WeightImage &Image, const std::string &Name,
                         CellKind Kind, size_t In, size_t Hidden) const {
  CellRef C;
  C.Kind = Kind;
  C.In = In;
  C.Hidden = Hidden;
  if (Kind == CellKind::Rnn) {
    C.L1 = bindLinear(Image, Name + ".Wx", In, Hidden);
    C.U1 = Image.tensor2d(Name + ".Wh", Hidden, Hidden);
    return C;
  }
  size_t K = Kind == CellKind::Gru ? 3 : 4;
  C.Wx = Image.tensor2d(Name + ".Wx", K * Hidden, In);
  C.Bx = Image.tensor1d(Name + ".bx", K * Hidden);
  C.Wh = Image.tensor2d(Name + ".Wh", K * Hidden, Hidden);
  return C;
}

LigerInference::AttnRef
LigerInference::bindAttn(const WeightImage &Image, const std::string &Name,
                         size_t QueryDim, size_t KeyDim,
                         size_t Hidden) const {
  AttnRef A;
  A.QueryDim = QueryDim;
  A.KeyDim = KeyDim;
  A.Hidden = Hidden;
  A.W1 = Image.tensor2d(Name + ".l1.W", Hidden, KeyDim + QueryDim);
  A.B1 = Image.tensor1d(Name + ".l1.b", Hidden);
  A.W2 = Image.tensor2d(Name + ".l2.W", 1, Hidden);
  A.B2 = Image.tensor1d(Name + ".l2.b", 1);
  return A;
}

void LigerInference::bind(const WeightImage &Image) {
  size_t E = Config.EmbedDim, H = Config.Hidden, A = Config.AttnHidden;
  Embed = Image.tensor2d("liger.embed",
                         static_cast<size_t>(Vocab.size()), E);
  TreeW.Wx = Image.tensor2d("liger.stmt_tree.Wx", 4 * H, E);
  TreeW.Bx = Image.tensor1d("liger.stmt_tree.bx", 4 * H);
  TreeW.Wh = Image.tensor2d("liger.stmt_tree.Wh", 4 * H, H);
  F1 = bindCell(Image, "liger.f1", Config.Cell, E, E);
  F2 = bindCell(Image, "liger.f2", Config.Cell, E, H);
  A1 = bindAttn(Image, "liger.a1", H, H, A);
  F3 = bindCell(Image, "liger.f3", Config.Cell, H, H);

  if (TargetVocab) {
    size_t Vt = static_cast<size_t>(TargetVocab->size());
    Dec.TargetEmbed = Image.tensor2d("liger.dec.target_embed", Vt, E);
    Dec.Init = bindLinear(Image, "liger.dec.init", H, H);
    Dec.Cell = bindCell(Image, "liger.dec.cell", Config.Cell, E + H, H);
    Dec.Attn = bindAttn(Image, "liger.dec.attn", H, H, A);
    Dec.Out = bindLinear(Image, "liger.dec.out", H + H, Vt);
  }

  Head = LinearRef();
  if (const WeightImage::Entry *HeadW = Image.find("liger.head.W")) {
    LIGER_CHECK(HeadW->Rank == 2 && HeadW->Dims[1] == H,
                "classifier head shape mismatch");
    Head = bindLinear(Image, "liger.head", H, HeadW->Dims[0]);
  }

  Version = Image.version();
}

//===----------------------------------------------------------------------===//
// Primitive module forwards
//===----------------------------------------------------------------------===//

const float *LigerInference::tokenEmbed(int Id) const {
  // EmbeddingTable::lookup is a zero-copy row view; here it is plain
  // pointer arithmetic into the image.
  return Embed + static_cast<size_t>(Id) * Config.EmbedDim;
}

const float *LigerInference::linearApply(const LinearRef &L, const float *X) {
  // Mirrors Linear::apply = add(matvec(W, X), B).
  float *Y = Arena.alloc(L.Out);
  kernels::matvec(L.Out, L.In, L.W, X, Y);
  kernels::addAcc(L.Out, L.B, Y);
  return Y;
}

LigerInference::St LigerInference::cellInitial(const CellRef &Cell) {
  St S;
  S.H = Arena.allocZeroed(Cell.Hidden);
  if (Cell.Kind == CellKind::Lstm)
    S.C = Arena.allocZeroed(Cell.Hidden);
  return S;
}

LigerInference::St LigerInference::cellStep(const CellRef &Cell,
                                            const float *X, const St &Prev) {
  size_t H = Cell.Hidden;
  St Next;
  switch (Cell.Kind) {
  case CellKind::Rnn: {
    // tanhV(add(L1.apply(X), matvec(U1, Prev.H))).
    float *Y = Arena.alloc(H);
    kernels::matvec(H, Cell.In, Cell.L1.W, X, Y);
    kernels::addAcc(H, Cell.L1.B, Y);
    float *Uh = Arena.alloc(H);
    kernels::matvec(H, H, Cell.U1, Prev.H, Uh);
    kernels::addAcc(H, Uh, Y);
    kernels::tanhMap(H, Y, Y);
    Next.H = Y;
    break;
  }
  case CellKind::Gru: {
    float *Gates = Arena.alloc(3 * H);
    float *Ws = Arena.alloc(9 * H);
    float *Out = Arena.alloc(H);
    inferops::gruCellForward(H, Cell.In, Cell.Wx, Cell.Bx, Cell.Wh, X,
                             Prev.H, Gates, Out, Ws);
    Next.H = Out;
    break;
  }
  case CellKind::Lstm: {
    float *Pay = Arena.alloc(6 * H);
    float *Ws = Arena.alloc(10 * H);
    float *C = Arena.alloc(H);
    float *HOut = Arena.alloc(H);
    inferops::lstmCellForward(H, Cell.In, Cell.Wx, Cell.Bx, Cell.Wh, X,
                              Prev.H, Prev.C, Pay, C, HOut, Ws);
    Next.H = HOut;
    Next.C = C;
    break;
  }
  }
  return Next;
}

const float *
LigerInference::attnKeyProj(const AttnRef &Attn,
                            const std::vector<const float *> &Keys) {
  float *KP = Arena.alloc(Keys.size() * Attn.Hidden);
  inferops::attentionKeyProjForward(Keys.size(), Attn.Hidden, Attn.KeyDim,
                                    Attn.KeyDim + Attn.QueryDim, Attn.W1,
                                    Attn.B1, Keys.data(), KP);
  return KP;
}

const float *
LigerInference::attnContext(const AttnRef &Attn,
                            const std::vector<const float *> &Keys,
                            const float *KeyProj, const float *Query,
                            const float **Weights) {
  size_t T = Keys.size();
  float *Ht = Arena.alloc(T * Attn.Hidden);
  float *A = Arena.alloc(T);
  float *Out = Arena.alloc(Attn.KeyDim);
  float *Ws = Arena.alloc(2 * Attn.Hidden + T);
  inferops::attentionForward(T, Attn.KeyDim, Attn.QueryDim, Attn.Hidden,
                             Attn.KeyDim + Attn.QueryDim, Attn.W1, Attn.W2,
                             Attn.B2[0], Query, KeyProj, Keys.data(), Ht, A,
                             Out, Ws);
  if (Weights)
    *Weights = A;
  return Out;
}

//===----------------------------------------------------------------------===//
// Statement embedding (persistent cache)
//===----------------------------------------------------------------------===//

LigerInference::St LigerInference::treeNode(const AstTree &Tree) {
  // Mirrors ChildSumTreeLstm::embedNode: children first, then the
  // child-sum and the fused node op.
  size_t H = Config.Hidden;
  size_t K = Tree.Children.size();
  std::vector<const float *> ChildH(K), ChildC(K);
  for (size_t I = 0; I < K; ++I) {
    St Child = treeNode(Tree.Children[I]);
    ChildH[I] = Child.H;
    ChildC[I] = Child.C;
  }

  const float *X = tokenEmbed(Vocab.lookup(Tree.Label));

  // childHSum: zeros / the single child / a left-to-right add chain.
  const float *HSum;
  if (K == 0) {
    HSum = Arena.allocZeroed(H);
  } else if (K == 1) {
    HSum = ChildH[0];
  } else {
    float *Sum = Arena.alloc(H);
    std::memcpy(Sum, ChildH[0], H * sizeof(float));
    for (size_t I = 1; I < K; ++I)
      kernels::addAcc(H, ChildH[I], Sum);
    HSum = Sum;
  }

  float *Gates = Arena.alloc((5 + K) * H);
  float *Ws = Arena.alloc(10 * H);
  St Out;
  float *C = Arena.alloc(H);
  float *HOut = Arena.alloc(H);
  inferops::treeLstmNodeForward(H, Config.EmbedDim, K, TreeW.Wx, TreeW.Bx,
                                TreeW.Wh, X, HSum, ChildH.data(),
                                ChildC.data(), Gates, C, HOut, Ws);
  Out.H = HOut;
  Out.C = C;
  return Out;
}

namespace {

/// Injective serialization of a statement head tree: length-prefixed
/// labels plus explicit child-list delimiters, so distinct trees can
/// never produce the same key.
void appendTreeKey(const AstTree &Tree, std::string &Key) {
  Key += std::to_string(Tree.Label.size());
  Key += ':';
  Key += Tree.Label;
  Key += '(';
  for (const AstTree &Child : Tree.Children)
    appendTreeKey(Child, Key);
  Key += ')';
}

} // namespace

const float *LigerInference::fillSlot(std::vector<float> &Slot,
                                      const float *H) {
  size_t Hd = Config.Hidden;
  Slot.resize(Config.UseFusionAttention ? Hd + A1.Hidden : Hd);
  std::memcpy(Slot.data(), H, Hd * sizeof(float));
  if (Config.UseFusionAttention) {
    // Row-wise the same computation attnKeyProj runs over all of a
    // step's components, so the cached row is bitwise that row.
    const float *Key = Slot.data();
    inferops::attentionKeyProjForward(1, A1.Hidden, A1.KeyDim,
                                      A1.KeyDim + A1.QueryDim, A1.W1, A1.B1,
                                      &Key, Slot.data() + Hd);
  }
  return Slot.data();
}

const float *LigerInference::embedStatement(const Stmt *S) {
  AstTree Tree = buildStmtHeadTree(S);
  std::string Key;
  appendTreeKey(Tree, Key);
  auto It = StmtCache.find(Key);
  if (It != StmtCache.end()) {
    ++Stats.StmtHits;
    return It->second.data();
  }
  ++Stats.StmtMisses;
  St R = treeNode(Tree);
  return fillSlot(StmtCache[std::move(Key)], R.H);
}

//===----------------------------------------------------------------------===//
// Encode: the encoder walk over arena floats
//===----------------------------------------------------------------------===//

/// The scratch executor: vectors are arena floats, a cell step over
/// lanes is one cellStep per lane, and every fusion component is a
/// persistent cache slot (fillSlot), so attention reads its key
/// projections instead of computing them.
struct LigerInference::ScratchExec {
  using Vec = const float *;
  using State = St;

  /// One bound cell stepping into the arena.
  struct Cell {
    LigerInference &E;
    const CellRef &Ref;
    St initial() const { return E.cellInitial(Ref); }
    std::vector<St> stepBatch(const std::vector<const float *> &Xs,
                              const std::vector<St> &Prev) const {
      std::vector<St> Next;
      Next.reserve(Xs.size());
      for (size_t I = 0; I < Xs.size(); ++I)
        Next.push_back(E.cellStep(Ref, Xs[I], Prev[I]));
      return Next;
    }
  };

  LigerInference &E;
  Cell F1, F2, F3;
  /// A repeated Stmt* in one request is a hit the persistent lookup
  /// would also have counted.
  std::unordered_map<const Stmt *, const float *> StmtMemo;

  explicit ScratchExec(LigerInference &E)
      : E(E), F1{E, E.F1}, F2{E, E.F2}, F3{E, E.F3} {}

  const float *token(uint32_t, int Id) const { return E.tokenEmbed(Id); }
  const float *statement(uint32_t, const Stmt *S) {
    auto [It, Inserted] = StmtMemo.try_emplace(S, nullptr);
    if (!Inserted)
      ++E.Stats.StmtHits;
    else
      It->second = E.embedStatement(S);
    return It->second;
  }
  const float *findState(const std::string &Key) const {
    auto It = E.StateCache.find(Key);
    return It == E.StateCache.end() ? nullptr : It->second.data();
  }
  const float *storeState(std::string Key, const float *H) {
    return E.fillSlot(E.StateCache[std::move(Key)], H);
  }
  const float *zeros() { return E.Arena.allocZeroed(E.Config.Hidden); }
  const float *meanPool(const std::vector<const float *> &Items) {
    // Zeros + in-order axpy with the 1/N weight.
    size_t H = E.Config.Hidden;
    float *Out = E.Arena.allocZeroed(H);
    float Inv = 1.0f / static_cast<float>(Items.size());
    for (const float *Item : Items)
      kernels::axpy(H, Inv, Item, Out);
    return Out;
  }
  const float *maxPool(const std::vector<const float *> &Items) {
    // Copy the first item, strict-> updates after.
    size_t H = E.Config.Hidden;
    float *Out = E.Arena.alloc(H);
    std::memcpy(Out, Items[0], H * sizeof(float));
    for (size_t I = 1; I < Items.size(); ++I)
      for (size_t D = 0; D < H; ++D)
        if (Items[I][D] > Out[D])
          Out[D] = Items[I][D];
    return Out;
  }
  std::pair<const float *, double>
  attend(const std::vector<const float *> &Components, const float *Query) {
    size_t AH = E.A1.Hidden;
    float *KP = E.Arena.alloc(Components.size() * AH);
    for (size_t I = 0; I < Components.size(); ++I)
      std::memcpy(KP + I * AH, Components[I] + E.Config.Hidden,
                  AH * sizeof(float));
    const float *Weights = nullptr;
    const float *Ctx = E.attnContext(E.A1, Components, KP, Query, &Weights);
    return {Ctx, static_cast<double>(Weights[0])};
  }
  void countState(bool Hit) {
    ++(Hit ? E.Stats.StateHits : E.Stats.StateMisses);
  }
  void countFusion(double) {}
  void countCellSteps(size_t N) { E.Stats.StateCellSteps += N; }
};

LigerEncodingOf<const float *>
LigerInference::encodeRequest(const MethodTraces &Traces) {
  Arena.reset();
  ScratchExec X(*this);
  return std::move(encoderWalk(Config, Vocab, X, {&Traces})[0]);
}

const float *LigerInference::encode(const MethodTraces &Traces) {
  return encodeRequest(Traces).ProgramEmbedding;
}

//===----------------------------------------------------------------------===//
// Greedy decode
//===----------------------------------------------------------------------===//

std::vector<int>
LigerInference::decodeGreedy(const float *ProgramEmbedding,
                             const std::vector<const float *> &Memory) {
  LIGER_CHECK(!Memory.empty(), "decoder needs a non-empty memory");
  size_t H = Config.Hidden, E = Config.EmbedDim;
  size_t Vt = Dec.Out.Out;

  St State;
  {
    float *H0 = Arena.alloc(H);
    kernels::matvec(H, Dec.Init.In, Dec.Init.W, ProgramEmbedding, H0);
    kernels::addAcc(H, Dec.Init.B, H0);
    kernels::tanhMap(H, H0, H0);
    State.H = H0;
  }
  if (Config.Cell == CellKind::Lstm)
    State.C = Arena.allocZeroed(H);

  const float *KP = attnKeyProj(Dec.Attn, Memory);

  std::vector<int> Output;
  int Prev = Vocabulary::Sos;
  for (size_t Step = 0; Step < Config.MaxDecodeLen; ++Step) {
    const float *PrevEmbed =
        Dec.TargetEmbed + static_cast<size_t>(Prev) * E;
    // stepLogits: attention over the *previous* state, cell step, then
    // the output projection over the new state and the same context.
    const float *Ctx = attnContext(Dec.Attn, Memory, KP, State.H);
    float *CellIn = Arena.alloc(E + H);
    std::memcpy(CellIn, PrevEmbed, E * sizeof(float));
    std::memcpy(CellIn + E, Ctx, H * sizeof(float));
    State = cellStep(Dec.Cell, CellIn, State);
    float *OutIn = Arena.alloc(H + H);
    std::memcpy(OutIn, State.H, H * sizeof(float));
    std::memcpy(OutIn + H, Ctx, H * sizeof(float));
    float *Logits = Arena.alloc(Vt);
    kernels::matvec(Vt, Dec.Out.In, Dec.Out.W, OutIn, Logits);
    kernels::addAcc(Vt, Dec.Out.B, Logits);

    // Never emit the structural specials other than Eos.
    Logits[Vocabulary::Pad] = -1e30f;
    Logits[Vocabulary::Sos] = -1e30f;
    Logits[Vocabulary::Unk] = -1e30f;
    int Next = static_cast<int>(inferops::argmaxRow(Vt, Logits));
    if (Next == Vocabulary::Eos)
      break;
    Output.push_back(Next);
    Prev = Next;
  }
  return Output;
}

std::vector<std::string>
LigerInference::predictName(const MethodTraces &Traces,
                            std::vector<float> *Embedding) {
  LIGER_CHECK(TargetVocab, "predictName needs a target vocabulary");
  LigerEncodingOf<const float *> Enc = encodeRequest(Traces);
  if (Embedding)
    Embedding->assign(Enc.ProgramEmbedding,
                      Enc.ProgramEmbedding + Config.Hidden);
  std::vector<int> Ids = decodeGreedy(Enc.ProgramEmbedding, Enc.StepMemory);
  return idsToSubtokens(Ids, *TargetVocab);
}

int LigerInference::predictClass(const MethodTraces &Traces) {
  LIGER_CHECK(hasClassifierHead(), "image has no classifier head");
  const float *Logits =
      linearApply(Head, encodeRequest(Traces).ProgramEmbedding);
  return static_cast<int>(inferops::argmaxRow(Head.Out, Logits));
}
