//===-- models/Dypro.cpp - DYPRO dynamic-only baseline ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Dypro.h"

#include "models/StateTrie.h"

#include <unordered_map>

using namespace liger;

void liger::addVariableNamesToVocabulary(const MethodSample &Sample,
                                         Vocabulary &Vocab) {
  for (const std::string &Name : Sample.Traces.VarNames)
    Vocab.add(Name);
}

DyproEncoder::DyproEncoder(ParamStore &Store, const Vocabulary &V,
                           const DyproConfig &Cfg, Rng &R)
    : Config(Cfg), Vocab(V),
      Embed(Store, "dypro.embed", V.size(), Cfg.EmbedDim, R),
      F1(Store, "dypro.f1", Cfg.Cell, Cfg.EmbedDim, Cfg.EmbedDim, R),
      F2(Store, "dypro.f2", Cfg.Cell, 2 * Cfg.EmbedDim, Cfg.Hidden, R),
      Trace(Store, "dypro.trace", Cfg.Cell, Cfg.Hidden, Cfg.Hidden, R) {}

DyproEncoder::Encoding DyproEncoder::encode(const MethodTraces &Traces) const {
  // The token cache and the state memo live for one encode: an f2 key
  // tags each variable with its name, and VarNames is fixed per sample.
  std::unordered_map<int, Var> Tokens;
  auto Token = [&](uint32_t, int Id) {
    Var &E = Tokens[Id];
    if (!E)
      E = Embed.lookup(Id);
    return E;
  };
  // Tag 0 is "no name", which embeds as zeros; a name embeds its token.
  std::vector<uint32_t> NameTags;
  NameTags.reserve(Traces.VarNames.size());
  for (const std::string &Name : Traces.VarNames)
    NameTags.push_back(static_cast<uint32_t>(Vocab.lookup(Name)) + 1);
  Var NoName = nullptr;
  auto VarInput = [&](uint32_t, uint32_t Tag, const Var &Value) {
    if (Tag == 0 && !NoName)
      NoName = constant(Tensor::zeros(Config.EmbedDim));
    Var Name = Tag == 0 ? NoName : Token(0, static_cast<int>(Tag - 1));
    return concat(Name, Value);
  };

  // The states each consumed trace steps through, as slots of the
  // state cache: a state's first occurrence requests its embedding,
  // later ones share its slot.
  std::unordered_map<std::string, Var> Cache;
  StateMemo<RecState> Memo;
  std::vector<StateRequest> Requests;
  std::vector<Var *> Requested; ///< Requested[K] receives Requests[K].
  std::vector<std::vector<const Var *>> TraceStates;
  size_t Consumed = 0;
  for (const BlendedTrace &Path : Traces.Paths) {
    for (const StateTrace &States : Path.Concrete) {
      if (Consumed >= Config.MaxTraces)
        break;
      ++Consumed;
      std::vector<const Var *> &Slots = TraceStates.emplace_back();
      size_t Steps = std::min(States.States.size(), Config.MaxStatesPerTrace);
      for (size_t J = 0; J < Steps; ++J) {
        if (States.States[J].Values.empty())
          continue;
        StateRequest Rq;
        Rq.State = &States.States[J];
        Rq.Key = stateKey(Config.MaxFlattenedValues, *Rq.State, Rq.ValueTokens);
        auto [It, Inserted] = Cache.try_emplace(Rq.Key);
        Slots.push_back(&It->second);
        if (Inserted) {
          Requested.push_back(&It->second);
          Requests.push_back(std::move(Rq));
        }
      }
    }
  }
  std::vector<Var> Embedded =
      embedStates(F1, F2, Vocab, NameTags, Requests, Memo, Token, VarInput);
  for (size_t K = 0; K < Requested.size(); ++K)
    *Requested[K] = Embedded[K];

  Encoding Out;
  std::vector<Var> TraceEmbeddings;
  for (const std::vector<const Var *> &Slots : TraceStates) {
    if (Slots.empty())
      continue;
    RecState S = Trace.initial();
    for (const Var *StateVec : Slots) {
      S = Trace.step(*StateVec, S);
      Out.StateMemory.push_back(S.H);
    }
    TraceEmbeddings.push_back(S.H);
  }

  if (TraceEmbeddings.empty()) {
    Out.ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
    Out.StateMemory.push_back(Out.ProgramEmbedding);
    return Out;
  }
  Out.ProgramEmbedding = maxPool(TraceEmbeddings);

  // Bound the decoder's attention memory (see MaxAttentionMemory).
  if (Out.StateMemory.size() > Config.MaxAttentionMemory) {
    std::vector<Var> Strided;
    Strided.reserve(Config.MaxAttentionMemory);
    double Step = static_cast<double>(Out.StateMemory.size()) /
                  static_cast<double>(Config.MaxAttentionMemory);
    for (size_t I = 0; I < Config.MaxAttentionMemory; ++I)
      Strided.push_back(
          Out.StateMemory[static_cast<size_t>(Step * static_cast<double>(I))]);
    Out.StateMemory = std::move(Strided);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Heads
//===----------------------------------------------------------------------===//

namespace {

SeqDecoderConfig decoderConfig(const DyproConfig &Cfg,
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

DyproNamePredictor::DyproNamePredictor(const Vocabulary &Vocab,
                                       const Vocabulary &Target,
                                       const DyproConfig &Config,
                                       uint64_t Seed)
    : InitRng(Seed), Encoder(Store, Vocab, Config, InitRng),
      Decoder(Store, "dypro.dec",
              decoderConfig(Config, static_cast<size_t>(Target.size())),
              InitRng),
      TargetVocab(Target) {}

Var DyproNamePredictor::loss(const MethodSample &Sample) const {
  DyproEncoder::Encoding Enc = Encoder.encode(Sample.Traces);
  std::vector<int> Targets =
      nameTargetIds(Sample.NameSubtokens, TargetVocab);
  return Decoder.loss(Enc.ProgramEmbedding, Enc.StateMemory, Targets);
}

std::vector<std::string>
DyproNamePredictor::predict(const MethodSample &Sample) const {
  DyproEncoder::Encoding Enc = Encoder.encode(Sample.Traces);
  std::vector<int> Ids = Decoder.decodeGreedy(
      Enc.ProgramEmbedding, Enc.StateMemory, Encoder.config().MaxDecodeLen);
  return idsToSubtokens(Ids, TargetVocab);
}

DyproClassifier::DyproClassifier(const Vocabulary &Vocab, size_t NumClasses,
                                 const DyproConfig &Config, uint64_t Seed)
    : InitRng(Seed), Encoder(Store, Vocab, Config, InitRng),
      Head(Store, "dypro.head", Config.Hidden, NumClasses, InitRng) {}

Var DyproClassifier::loss(const MethodSample &Sample) const {
  LIGER_CHECK(Sample.ClassId >= 0, "classification sample without label");
  DyproEncoder::Encoding Enc = Encoder.encode(Sample.Traces);
  return softmaxCrossEntropy(Head.apply(Enc.ProgramEmbedding),
                             static_cast<size_t>(Sample.ClassId));
}

int DyproClassifier::predict(const MethodSample &Sample) const {
  DyproEncoder::Encoding Enc = Encoder.encode(Sample.Traces);
  return static_cast<int>(argmax(Head.apply(Enc.ProgramEmbedding)->Value));
}
