//===-- oracle/DyproReference.cpp - Reference DYPRO encode ----------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "oracle/DyproReference.h"

#include "oracle/Oracle.h"

#include <unordered_map>

using namespace liger;
using namespace liger::oracle;

DyproEncoder::Encoding
oracle::referenceDyproEncode(const ParamStore &Store, const Vocabulary &Vocab,
                             const DyproConfig &Config,
                             const MethodTraces &Traces) {
  Var Table = param(Store, "dypro.embed");
  ReferenceCell F1(Store, "dypro.f1", Config.Cell);
  ReferenceCell F2(Store, "dypro.f2", Config.Cell);
  ReferenceCell Trace(Store, "dypro.trace", Config.Cell);

  std::unordered_map<std::string, Var> TokenCache;
  auto Token = [&](const std::string &Tok) {
    auto It = TokenCache.find(Tok);
    if (It != TokenCache.end())
      return It->second;
    Var E = row(Table, static_cast<size_t>(Vocab.lookup(Tok)));
    TokenCache.emplace(Tok, E);
    return E;
  };
  // One f1 chain per object value and one f2 chain per state.
  auto EmbedState = [&](const ProgramState &State) {
    std::vector<Var> VarEmbeds;
    for (size_t I = 0; I < State.Values.size(); ++I) {
      const Value &V = State.Values[I];
      Var ValueEmbed;
      if (V.isArray() || V.isStruct()) {
        std::vector<std::string> Tokens = valueTokens(V);
        if (Tokens.size() > Config.MaxFlattenedValues)
          Tokens.resize(Config.MaxFlattenedValues);
        std::vector<Var> Inputs;
        for (const std::string &Tok : Tokens)
          Inputs.push_back(Token(Tok));
        ValueEmbed = Inputs.empty()
                         ? constant(Tensor::zeros(Config.EmbedDim))
                         : F1.runUnfused(Inputs).back().H;
      } else {
        ValueEmbed = Token(valueToken(V));
      }
      Var NameEmbed = I < Traces.VarNames.size()
                          ? Token(Traces.VarNames[I])
                          : constant(Tensor::zeros(Config.EmbedDim));
      VarEmbeds.push_back(concat(NameEmbed, ValueEmbed));
    }
    return F2.runUnfused(VarEmbeds).back().H;
  };

  DyproEncoder::Encoding Out;
  std::vector<Var> TraceEmbeddings;
  size_t Consumed = 0;
  for (const BlendedTrace &Path : Traces.Paths) {
    for (const StateTrace &States : Path.Concrete) {
      if (Consumed >= Config.MaxTraces)
        break;
      ++Consumed;
      std::vector<Var> StateVecs;
      size_t Steps = std::min(States.States.size(), Config.MaxStatesPerTrace);
      for (size_t J = 0; J < Steps; ++J)
        if (!States.States[J].Values.empty())
          StateVecs.push_back(EmbedState(States.States[J]));
      if (StateVecs.empty())
        continue;
      std::vector<RecState> Run = Trace.runUnfused(StateVecs);
      for (const RecState &S : Run)
        Out.StateMemory.push_back(S.H);
      TraceEmbeddings.push_back(Run.back().H);
    }
  }

  if (TraceEmbeddings.empty()) {
    Out.ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
    Out.StateMemory.push_back(Out.ProgramEmbedding);
    return Out;
  }
  Out.ProgramEmbedding = maxPool(TraceEmbeddings);
  if (Out.StateMemory.size() > Config.MaxAttentionMemory) {
    std::vector<Var> Strided;
    double Step = static_cast<double>(Out.StateMemory.size()) /
                  static_cast<double>(Config.MaxAttentionMemory);
    for (size_t I = 0; I < Config.MaxAttentionMemory; ++I)
      Strided.push_back(
          Out.StateMemory[static_cast<size_t>(Step * static_cast<double>(I))]);
    Out.StateMemory = std::move(Strided);
  }
  return Out;
}
