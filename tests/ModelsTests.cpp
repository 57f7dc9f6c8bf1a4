//===-- tests/ModelsTests.cpp - Unit tests for the neural models ----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Code2Seq.h"
#include "models/Code2Vec.h"
#include "models/Common.h"
#include "models/Decoder.h"
#include "models/Dypro.h"
#include "models/Liger.h"

#include "lang/Ast.h"
#include "lang/Parser.h"
#include "nn/GradCheck.h"
#include "nn/Optim.h"
#include "oracle/DyproReference.h"
#include "support/StringUtils.h"
#include "testgen/TraceCollector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_map>

using namespace liger;

namespace {

/// Builds a MethodSample from source (the function is the last
/// declaration) with labels derived from its name.
MethodSample makeSample(const std::string &Source, int ClassId = -1) {
  DiagnosticSink Diags;
  std::optional<Program> P = parseAndCheck(Source, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  MethodSample Sample;
  Sample.Prog = std::make_shared<Program>(std::move(*P));
  Sample.Fn = &Sample.Prog->Functions.back();
  TestGenOptions Options;
  Options.TargetPaths = 4;
  Options.ExecutionsPerPath = 3;
  Options.MaxAttempts = 60;
  Sample.Traces = collectTraces(*Sample.Prog, *Sample.Fn, Options);
  Sample.NameSubtokens = splitSubtokens(Sample.Fn->Name);
  Sample.ClassId = ClassId;
  Sample.Project = "test";
  return Sample;
}

/// A small two-sample corpus with distinct semantics and names.
std::vector<MethodSample> tinyCorpus() {
  std::vector<MethodSample> Samples;
  Samples.push_back(makeSample(R"(
int sumArray(int[] arr) {
  int total = 0;
  for (int i = 0; i < len(arr); i++)
    total += arr[i];
  return total;
}
)", 0));
  Samples.push_back(makeSample(R"(
int maxArray(int[] arr) {
  if (len(arr) == 0)
    return 0;
  int best = arr[0];
  for (int i = 1; i < len(arr); i++)
    if (arr[i] > best)
      best = arr[i];
  return best;
}
)", 1));
  return Samples;
}

struct TinyVocabs {
  Vocabulary Joint;
  Vocabulary Target;
};

TinyVocabs buildVocabs(const std::vector<MethodSample> &Samples) {
  TinyVocabs V;
  for (const MethodSample &Sample : Samples) {
    addSampleToVocabulary(Sample, V.Joint);
    addVariableNamesToVocabulary(Sample, V.Joint);
    addNameToVocabulary(Sample, V.Target);
  }
  V.Joint.freeze();
  V.Target.freeze();
  return V;
}

LigerConfig tinyLigerConfig() {
  LigerConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  Config.MaxStepsPerTrace = 24;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Common helpers
//===----------------------------------------------------------------------===//

TEST(CommonTest, NameTargetRoundTrip) {
  Vocabulary Target;
  Target.add("sum");
  Target.add("array");
  Target.freeze();
  std::vector<int> Ids = nameTargetIds({"sum", "array"}, Target);
  ASSERT_EQ(Ids.size(), 3u);
  EXPECT_EQ(Ids.back(), Vocabulary::Eos);
  EXPECT_EQ(idsToSubtokens(Ids, Target),
            (std::vector<std::string>{"sum", "array"}));
}

TEST(CommonTest, UnknownSubtokensMapToUnk) {
  Vocabulary Target;
  Target.add("sum");
  Target.freeze();
  std::vector<int> Ids = nameTargetIds({"sum", "exotic"}, Target);
  EXPECT_EQ(Ids[1], Vocabulary::Unk);
  // Unk is skipped when decoding back.
  EXPECT_EQ(idsToSubtokens(Ids, Target), (std::vector<std::string>{"sum"}));
}

TEST(CommonTest, VocabularyCoversTracesAndNames) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  // Statement labels, value tokens, and variable names must be present.
  EXPECT_TRUE(V.Joint.contains("Decl"));
  EXPECT_TRUE(V.Joint.contains("0"));
  EXPECT_TRUE(V.Joint.contains("arr"));
  EXPECT_TRUE(V.Target.contains("sum"));
  EXPECT_TRUE(V.Target.contains("max"));
  EXPECT_TRUE(V.Target.contains("array"));
}

//===----------------------------------------------------------------------===//
// LIGER
//===----------------------------------------------------------------------===//

TEST(LigerTest, EncoderShapesAndDeterminism) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  Var Loss1 = Net.loss(Samples[0]);
  Var Loss2 = Net.loss(Samples[0]);
  EXPECT_FLOAT_EQ(Loss1->Value[0], Loss2->Value[0]); // same params, input
  EXPECT_GT(Loss1->Value[0], 0.0f);
  EXPECT_FALSE(std::isnan(Loss1->Value[0]));
}

TEST(LigerTest, SameSeedSameModel) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor A(V.Joint, V.Target, tinyLigerConfig(), 7);
  LigerNamePredictor B(V.Joint, V.Target, tinyLigerConfig(), 7);
  EXPECT_FLOAT_EQ(A.loss(Samples[0])->Value[0],
                  B.loss(Samples[0])->Value[0]);
}

TEST(LigerTest, BackwardProducesParameterGradients) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  backward(Net.loss(Samples[0]));
  EXPECT_GT(Net.params().gradNorm(), 0.0);
}

TEST(LigerTest, OverfitsTinyCorpus) {
  // Two distinct programs with distinct names: LIGER must be able to
  // memorize them (sanity that all layers learn jointly).
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 60; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), Samples[0].NameSubtokens);
  EXPECT_EQ(Net.predict(Samples[1]), Samples[1].NameSubtokens);
}

TEST(LigerTest, FusionStatsAreSensible) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  FusionStats Stats;
  Net.predict(Samples[0], &Stats);
  EXPECT_GT(Stats.FusionSteps, 0u);
  EXPECT_GE(Stats.staticMean(), 0.0);
  EXPECT_LE(Stats.staticMean(), 1.0);
}

TEST(LigerTest, AblationsRunAndDiffer) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerConfig Full = tinyLigerConfig();

  LigerConfig NoStatic = Full;
  NoStatic.UseStaticFeature = false;
  LigerConfig NoDynamic = Full;
  NoDynamic.UseDynamicFeature = false;
  LigerConfig NoAttention = Full;
  NoAttention.UseFusionAttention = false;
  LigerConfig MeanPool = Full;
  MeanPool.MeanPoolPrograms = true;

  float FullLoss =
      LigerNamePredictor(V.Joint, V.Target, Full, 42).loss(Samples[0])
          ->Value[0];
  for (const LigerConfig &Config :
       {NoStatic, NoDynamic, NoAttention, MeanPool}) {
    LigerNamePredictor Net(V.Joint, V.Target, Config, 42);
    Var Loss = Net.loss(Samples[0]);
    EXPECT_FALSE(std::isnan(Loss->Value[0]));
    EXPECT_GT(Loss->Value[0], 0.0f);
  }
  // The no-dynamic ablation must actually change the computation.
  LigerNamePredictor NoDynNet(V.Joint, V.Target, NoDynamic, 42);
  EXPECT_NE(FullLoss, NoDynNet.loss(Samples[0])->Value[0]);
}

TEST(LigerTest, NoDynamicIgnoresConcreteTraces) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerConfig NoDynamic = tinyLigerConfig();
  NoDynamic.UseDynamicFeature = false;
  LigerNamePredictor Net(V.Joint, V.Target, NoDynamic, 42);

  // Dropping all concrete traces must not change the symbolic-only
  // encoding.
  MethodSample Stripped = Samples[0];
  for (BlendedTrace &Path : Stripped.Traces.Paths) {
    Path.Concrete.clear();
    Path.Inputs.clear();
  }
  EXPECT_FLOAT_EQ(Net.loss(Samples[0])->Value[0],
                  Net.loss(Stripped)->Value[0]);
}

TEST(LigerTest, ClassifierPredictsValidClass) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerClassifier Net(V.Joint, 2, tinyLigerConfig(), 42);
  int Predicted = Net.predict(Samples[0]);
  EXPECT_GE(Predicted, 0);
  EXPECT_LT(Predicted, 2);
  Tensor Embedding = Net.embed(Samples[0].Traces);
  EXPECT_EQ(Embedding.size(), tinyLigerConfig().Hidden);
}

TEST(LigerTest, ClassifierLearnsTinyCorpus) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerClassifier Net(V.Joint, 2, tinyLigerConfig(), 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), 0);
  EXPECT_EQ(Net.predict(Samples[1]), 1);
}

//===----------------------------------------------------------------------===//
// DYPRO
//===----------------------------------------------------------------------===//

TEST(DyproTest, LossAndPredictRun) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  DyproNamePredictor Net(V.Joint, V.Target, Config, 42);
  Var Loss = Net.loss(Samples[0]);
  EXPECT_GT(Loss->Value[0], 0.0f);
  backward(Loss);
  EXPECT_GT(Net.params().gradNorm(), 0.0);
  auto Predicted = Net.predict(Samples[0]);
  EXPECT_LE(Predicted.size(), Config.MaxDecodeLen);
}

// With MaxFlattenedValues = 0 every object value flattens to nothing;
// its f1 walk ends at the f1 root (zeros), as in LIGER's encoder.
TEST(DyproTest, EmptyFlatteningEndsAtF1Root) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  Config.MaxFlattenedValues = 0;
  bool HasObject = false;
  for (const BlendedTrace &Path : Samples[0].Traces.Paths)
    for (const StateTrace &States : Path.Concrete)
      for (const ProgramState &State : States.States)
        for (const Value &X : State.Values)
          HasObject |= X.isArray() || X.isStruct();
  ASSERT_TRUE(HasObject);

  DyproNamePredictor Net(V.Joint, V.Target, Config, 42);
  Var Loss = Net.loss(Samples[0]);
  EXPECT_TRUE(std::isfinite(Loss->Value[0]));
  EXPECT_GT(Loss->Value[0], 0.0f);
  backward(Loss);
  EXPECT_TRUE(std::isfinite(Net.params().gradNorm()));
  EXPECT_LE(Net.predict(Samples[0]).size(), Config.MaxDecodeLen);

  DyproClassifier Classifier(V.Joint, 2, Config, 42);
  EXPECT_TRUE(std::isfinite(Classifier.loss(Samples[0])->Value[0]));
}

TEST(DyproTest, IgnoresSymbolicDimension) {
  // DYPRO must be a pure dynamic model: replacing the symbolic trace
  // steps with an empty sequence (keeping states) must not change it.
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  DyproNamePredictor Net(V.Joint, V.Target, Config, 42);

  MethodSample Stripped = Samples[0];
  for (BlendedTrace &Path : Stripped.Traces.Paths)
    Path.Symbolic.Steps.clear();
  EXPECT_FLOAT_EQ(Net.loss(Samples[0])->Value[0],
                  Net.loss(Stripped)->Value[0]);
}

TEST(DyproTest, ClassifierLearns) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  DyproClassifier Net(V.Joint, 2, Config, 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), 0);
  EXPECT_EQ(Net.predict(Samples[1]), 1);
}

//===----------------------------------------------------------------------===//
// code2vec / code2seq
//===----------------------------------------------------------------------===//

namespace {

struct StaticVocabs {
  Vocabulary Tokens, Paths, Names;
  Vocabulary Subtokens, Nodes, Target;
};

StaticVocabs buildStaticVocabs(const std::vector<MethodSample> &Samples) {
  StaticVocabs V;
  Code2VecConfig C2v;
  Code2SeqConfig C2s;
  for (const MethodSample &Sample : Samples) {
    addPathContextsToVocabulary(Sample, V.Tokens, V.Paths, C2v);
    Code2VecNamePredictor::addNameToVocabulary(Sample, V.Names);
    addSeqPathContextsToVocabulary(Sample, V.Subtokens, V.Nodes, C2s);
    addNameToVocabulary(Sample, V.Target);
  }
  V.Tokens.freeze();
  V.Paths.freeze();
  V.Names.freeze();
  V.Subtokens.freeze();
  V.Nodes.freeze();
  V.Target.freeze();
  return V;
}

} // namespace

TEST(Code2VecTest, ExtractionIsDeterministic) {
  auto Samples = tinyCorpus();
  StaticVocabs V = buildStaticVocabs(Samples);
  Code2VecConfig Config;
  auto A = extractPathContexts(Samples[0], V.Tokens, V.Paths, Config);
  auto B = extractPathContexts(Samples[0], V.Tokens, V.Paths, Config);
  ASSERT_EQ(A.size(), B.size());
  ASSERT_FALSE(A.empty());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_EQ(A[I].Path, B[I].Path);
    EXPECT_EQ(A[I].Target, B[I].Target);
  }
}

TEST(Code2VecTest, LearnsTinyCorpus) {
  auto Samples = tinyCorpus();
  StaticVocabs V = buildStaticVocabs(Samples);
  Code2VecConfig Config;
  Config.EmbedDim = 12;
  Config.CodeDim = 12;
  Code2VecNamePredictor Net(V.Tokens, V.Paths, V.Names, Config, 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.02f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 60; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), Samples[0].NameSubtokens);
  EXPECT_EQ(Net.predict(Samples[1]), Samples[1].NameSubtokens);
}

TEST(Code2VecTest, StaticModelIgnoresTraces) {
  auto Samples = tinyCorpus();
  StaticVocabs V = buildStaticVocabs(Samples);
  Code2VecConfig Config;
  Config.EmbedDim = 12;
  Config.CodeDim = 12;
  Code2VecNamePredictor Net(V.Tokens, V.Paths, V.Names, Config, 42);
  MethodSample Stripped = Samples[0];
  Stripped.Traces.Paths.clear();
  EXPECT_FLOAT_EQ(Net.loss(Samples[0])->Value[0],
                  Net.loss(Stripped)->Value[0]);
}

TEST(Code2SeqTest, LearnsTinyCorpus) {
  auto Samples = tinyCorpus();
  StaticVocabs V = buildStaticVocabs(Samples);
  Code2SeqConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  Code2SeqNamePredictor Net(V.Subtokens, V.Nodes, V.Target, Config, 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 80; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), Samples[0].NameSubtokens);
  EXPECT_EQ(Net.predict(Samples[1]), Samples[1].NameSubtokens);
}

TEST(Code2SeqTest, ClassifierRuns) {
  auto Samples = tinyCorpus();
  StaticVocabs V = buildStaticVocabs(Samples);
  Code2SeqConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Code2SeqClassifier Net(V.Subtokens, V.Nodes, 2, Config, 42);
  Var Loss = Net.loss(Samples[0]);
  EXPECT_GT(Loss->Value[0], 0.0f);
  backward(Loss);
  EXPECT_GT(Net.params().gradNorm(), 0.0);
  int Predicted = Net.predict(Samples[1]);
  EXPECT_GE(Predicted, 0);
  EXPECT_LT(Predicted, 2);
}

//===----------------------------------------------------------------------===//
// Checkpoint round trips for every model's ParamStore
//===----------------------------------------------------------------------===//

namespace {

/// Saves \p Store, perturbs every parameter, loads the file back, and
/// checks bitwise recovery.
void roundTripStore(ParamStore &Store, const std::string &Tag) {
  std::string Path = testing::TempDir() + "/liger_model_" + Tag + ".ckpt";
  std::vector<std::vector<float>> Original;
  for (const Var &P : Store.params())
    Original.emplace_back(P->Value.data(),
                          P->Value.data() + P->Value.size());
  std::string Error;
  ASSERT_TRUE(Store.save(Path, &Error)) << Tag << ": " << Error;
  for (const Var &P : Store.params())
    P->Value.zero();
  ASSERT_TRUE(Store.load(Path, &Error)) << Tag << ": " << Error;
  ASSERT_EQ(Store.params().size(), Original.size());
  for (size_t I = 0; I < Original.size(); ++I) {
    const Tensor &T = Store.params()[I]->Value;
    ASSERT_EQ(T.size(), Original[I].size()) << Tag;
    EXPECT_EQ(std::memcmp(T.data(), Original[I].data(),
                          T.size() * sizeof(float)),
              0)
        << Tag << " parameter " << Store.names()[I];
  }
}

} // namespace

TEST(CheckpointTest, AllFourModelStoresRoundTrip) {
  auto Samples = tinyCorpus();
  TinyVocabs Dyn = buildVocabs(Samples);
  StaticVocabs Sta = buildStaticVocabs(Samples);

  Code2VecConfig C2v;
  C2v.EmbedDim = 12;
  C2v.CodeDim = 12;
  Code2VecNamePredictor C2vNet(Sta.Tokens, Sta.Paths, Sta.Names, C2v, 42);
  roundTripStore(C2vNet.params(), "code2vec");

  Code2SeqConfig C2s;
  C2s.EmbedDim = 12;
  C2s.Hidden = 12;
  C2s.AttnHidden = 12;
  Code2SeqNamePredictor C2sNet(Sta.Subtokens, Sta.Nodes, Sta.Target, C2s, 42);
  roundTripStore(C2sNet.params(), "code2seq");

  DyproConfig Dy;
  Dy.EmbedDim = 12;
  Dy.Hidden = 12;
  Dy.AttnHidden = 12;
  DyproNamePredictor DyNet(Dyn.Joint, Dyn.Target, Dy, 42);
  roundTripStore(DyNet.params(), "dypro");

  LigerNamePredictor LgNet(Dyn.Joint, Dyn.Target, tinyLigerConfig(), 42);
  roundTripStore(LgNet.params(), "liger");

  // A checkpoint from one model must not load into another: the
  // parameter names diverge, with a diagnostic saying how.
  std::string LigerPath = testing::TempDir() + "/liger_model_liger.ckpt";
  std::string Error;
  EXPECT_FALSE(DyNet.params().load(LigerPath, &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Batched decoder: lossBatch
//===----------------------------------------------------------------------===//

namespace {

/// The modules SeqDecoder(Store, "dec", Config, R) registers, built in
/// the same order under the same names: a store built from them holds
/// bitwise the same initial parameters in the same slots, and a test
/// can drive the decoder's per-sample ops one lane at a time.
struct DecoderModules {
  EmbeddingTable TargetEmbed;
  Linear InitProj;
  RecurrentCell Cell;
  AttentionScorer Attn;
  Linear OutProj;

  DecoderModules(ParamStore &Store, const SeqDecoderConfig &C, Rng &R)
      : TargetEmbed(Store, "dec.target_embed", C.TargetVocabSize, C.EmbedDim,
                    R),
        InitProj(Store, "dec.init", C.InitDim, C.Hidden, R),
        Cell(Store, "dec.cell", C.Cell, C.EmbedDim + C.MemoryDim, C.Hidden,
             R),
        Attn(Store, "dec.attn", C.Hidden, C.MemoryDim, C.AttnHidden, R),
        OutProj(Store, "dec.out", C.Hidden + C.MemoryDim, C.TargetVocabSize,
                R) {}
};

/// A standalone decoder over parameter-backed embeddings/memories, so
/// the lockstep scheduler sees ragged targets and ragged memories.
/// With \p PerLane the decoder's modules are built unwrapped
/// (DecoderModules) instead of as a SeqDecoder.
struct DecoderFixture {
  ParamStore Store;
  SeqDecoderConfig Config;
  SeqDecoder Dec;
  std::optional<DecoderModules> Modules;
  std::vector<Var> Embeds;
  std::vector<std::vector<Var>> Memories;
  std::vector<std::vector<int>> Targets;

  explicit DecoderFixture(bool PerLane = false) {
    Rng R(91);
    Config.TargetVocabSize = 9;
    Config.EmbedDim = 6;
    Config.Hidden = 8;
    Config.AttnHidden = 7;
    Config.MemoryDim = 5;
    Config.InitDim = 6;
    if (PerLane)
      Modules.emplace(Store, Config, R);
    else
      Dec = SeqDecoder(Store, "dec", Config, R);
    const size_t MemLens[] = {2, 4, 3};
    for (size_t S = 0; S < 3; ++S) {
      Embeds.push_back(Store.addParam("e" + std::to_string(S),
                                      Tensor::uniform(Config.InitDim, 0.9f, R)));
      std::vector<Var> Mem;
      for (size_t T = 0; T < MemLens[S]; ++T)
        Mem.push_back(Store.addParam(
            "m" + std::to_string(S) + "_" + std::to_string(T),
            Tensor::uniform(Config.MemoryDim, 0.9f, R)));
      Memories.push_back(std::move(Mem));
    }
    // Ragged target lengths exercise lanes retiring mid-schedule.
    Targets = {{4, 5, Vocabulary::Eos},
               {6, Vocabulary::Eos},
               {4, 6, 7, 5, Vocabulary::Eos}};
  }

  /// SeqDecoder::lossBatch's timestep-major walk over the lockstep
  /// schedule, with every lane through the per-sample ops: contextOf
  /// per lane, step() per lane, apply() + softmaxCrossEntropy() per
  /// lane — the same nodes in the same order as the batched walk, one
  /// lane at a time. Needs a PerLane fixture (GRU cell).
  std::vector<Var> lossBatchPerLane() const {
    const DecoderModules &M = *Modules;
    size_t B = Embeds.size();
    std::vector<RecState> States(B);
    std::vector<AttentionScorer::Memory> Mems;
    std::vector<size_t> Lens(B);
    for (size_t Bi = 0; Bi < B; ++Bi) {
      States[Bi].H = tanhV(M.InitProj.apply(Embeds[Bi]));
      Mems.push_back(M.Attn.prepare(Memories[Bi]));
      Lens[Bi] = Targets[Bi].size();
    }
    std::vector<std::unordered_map<int, Var>> EmbedCaches(B);
    std::vector<std::vector<Var>> Losses(B);
    std::vector<std::vector<size_t>> Schedule = lockstepSchedule(Lens);
    for (size_t T = 0; T < Schedule.size(); ++T) {
      const std::vector<size_t> &Active = Schedule[T];
      std::vector<Var> Ctxs, Ins;
      for (size_t Bi : Active)
        Ctxs.push_back(M.Attn.contextOf(States[Bi].H, Mems[Bi]).Context);
      for (size_t Lane = 0; Lane < Active.size(); ++Lane) {
        size_t Bi = Active[Lane];
        int Prev = T == 0 ? Vocabulary::Sos : Targets[Bi][T - 1];
        Var &Embed = EmbedCaches[Bi][Prev];
        if (!Embed)
          Embed = M.TargetEmbed.lookup(Prev);
        Ins.push_back(concat(Embed, Ctxs[Lane]));
      }
      for (size_t Lane = 0; Lane < Active.size(); ++Lane)
        States[Active[Lane]] = M.Cell.step(Ins[Lane], States[Active[Lane]]);
      std::vector<Var> HeadIns;
      for (size_t Lane = 0; Lane < Active.size(); ++Lane)
        HeadIns.push_back(concat(States[Active[Lane]].H, Ctxs[Lane]));
      for (size_t Lane = 0; Lane < Active.size(); ++Lane) {
        size_t Bi = Active[Lane];
        Losses[Bi].push_back(
            softmaxCrossEntropy(M.OutProj.apply(HeadIns[Lane]),
                                static_cast<size_t>(Targets[Bi][T])));
      }
    }
    std::vector<Var> Out;
    for (const std::vector<Var> &L : Losses)
      Out.push_back(meanLoss(L));
    return Out;
  }
};

} // namespace

TEST(BatchedLossEquivalenceTest, LossBatchValuesMatchLoss) {
  DecoderFixture F;
  std::vector<Var> Batched = F.Dec.lossBatch(F.Embeds, F.Memories, F.Targets);
  ASSERT_EQ(Batched.size(), 3u);
  for (size_t S = 0; S < 3; ++S) {
    Var Ref = F.Dec.loss(F.Embeds[S], F.Memories[S], F.Targets[S]);
    EXPECT_EQ(Batched[S]->Value[0], Ref->Value[0]) << "sample " << S;
  }
}

TEST(BatchedLossEquivalenceTest, LossBatchToggleIsBitwise) {
  // lossBatch builds the graph timestep-major through the batch ops
  // (multi-memory attention, batched cell step, batched loss head);
  // the same walk through per-lane per-sample ops must agree with it
  // down to the bit over a whole training step.
  auto RunStep = [](bool Batched) {
    DecoderFixture F(/*PerLane=*/!Batched);
    Adam Opt(F.Store);
    std::vector<Var> Losses =
        Batched ? F.Dec.lossBatch(F.Embeds, F.Memories, F.Targets)
                : F.lossBatchPerLane();
    Var Sum = sumV(stackScalars(Losses));
    backward(Sum);
    std::vector<std::vector<float>> Grads, Params;
    for (const Var &P : F.Store.params())
      Grads.emplace_back(P->Grad.data(), P->Grad.data() + P->Grad.size());
    Opt.step();
    for (const Var &P : F.Store.params())
      Params.emplace_back(P->Value.data(), P->Value.data() + P->Value.size());
    return std::make_tuple(Sum->Value[0], Grads, Params, F.Store.names());
  };
  auto [BatchedLoss, BatchedGrads, BatchedParams, BatchedNames] = RunStep(true);
  auto [RefLoss, RefGrads, RefParams, RefNames] = RunStep(false);
  ASSERT_EQ(BatchedNames, RefNames);
  EXPECT_EQ(BatchedLoss, RefLoss);
  EXPECT_EQ(BatchedGrads, RefGrads);
  EXPECT_EQ(BatchedParams, RefParams);
}

TEST(BatchedLossEquivalenceTest, LigerLossBatchMatchesLoss) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  std::vector<const MethodSample *> Group;
  for (const MethodSample &Sample : Samples)
    Group.push_back(&Sample);
  std::vector<Var> Batched = Net.lossBatch(Group);
  ASSERT_EQ(Batched.size(), Samples.size());
  for (size_t S = 0; S < Samples.size(); ++S)
    EXPECT_EQ(Batched[S]->Value[0], Net.loss(Samples[S])->Value[0])
        << "sample " << S;
}

//===----------------------------------------------------------------------===//
// Gradients through the encoder's shared f1/f2 prefixes
//===----------------------------------------------------------------------===//

namespace {

Value intArray(std::vector<int64_t> Elems) {
  std::vector<Value> Out;
  for (int64_t E : Elems)
    Out.push_back(Value::makeInt(E));
  return Value::makeArray(std::move(Out));
}

ProgramState arrayState(std::vector<int64_t> Xs, int64_t I, int64_t S) {
  ProgramState St;
  St.Values = {intArray(std::move(Xs)), Value::makeInt(I), Value::makeInt(S)};
  return St;
}

/// Replaces \p Sample's traces with one path of four steps whose two
/// executions share f1 prefixes ([3, 1] under [3, 1, 2]) and f2
/// prefixes (the same array under changing scalars, and across the
/// executions).
void useSharedPrefixTrace(MethodSample &Sample) {
  const std::vector<const Stmt *> &Body =
      cast<BlockStmt>(Sample.Fn->Body)->body();
  ASSERT_GE(Body.size(), 3u);
  BlendedTrace Path;
  for (const Stmt *S : {Body[0], Body[1], Body[1], Body[2]})
    Path.Symbolic.Steps.push_back({S, StepKind::Plain});
  StateTrace A, B;
  A.States = {arrayState({3, 1, 2}, 0, 0), arrayState({3, 1, 2}, 1, 3),
              arrayState({3, 1}, 1, 3), arrayState({3, 1, 2}, 2, 4)};
  B.States = {arrayState({3, 1, 2}, 0, 0), arrayState({3, 1, 2}, 1, 5),
              arrayState({5}, 2, 4), arrayState({3, 1}, 2, 6)};
  Path.Concrete = {A, B};
  Sample.Traces.Paths.assign(1, Path);
}

enum class SharedPrefixModel { Liger, Dypro };

/// Finite differences through the state-embedding tries of \p Model's
/// encoder, on a trace whose states share f1 and f2 prefixes: a shared
/// prefix node sums its consumers' gradients before its one backward
/// step. The tolerance is tight: correct gradients stay within 2e-4 at
/// this step size, while cutting the gradient into previously built
/// prefix nodes errs by 1.6e-3 or more.
void checkSharedPrefixGradients(SharedPrefixModel Model, CellKind Cell) {
  std::vector<MethodSample> Samples = tinyCorpus();
  ASSERT_NO_FATAL_FAILURE(useSharedPrefixTrace(Samples[0]));
  TinyVocabs V = buildVocabs(Samples);
  const double Epsilon = 3e-3, Tolerance = 5e-4;
  auto Check = [&](ParamStore &Params, const std::function<Var()> &Loss,
                   const char *What) {
    GradCheckResult R = checkGradients(Params, Loss, Epsilon, Tolerance);
    EXPECT_TRUE(R.Ok) << What << ": max rel error " << R.MaxRelError
                      << " at " << R.WorstParam;
  };

  if (Model == SharedPrefixModel::Dypro) {
    DyproConfig Config;
    Config.EmbedDim = 3;
    Config.Hidden = 3;
    Config.AttnHidden = 3;
    Config.Cell = Cell;
    DyproNamePredictor Net(V.Joint, V.Target, Config, 42);
    Check(Net.params(), [&] { return Net.loss(Samples[0]); }, "loss");
    return;
  }

  LigerConfig Config;
  Config.EmbedDim = 3;
  Config.Hidden = 3;
  Config.AttnHidden = 3;
  Config.Cell = Cell;
  LigerNamePredictor Net(V.Joint, V.Target, Config, 42);

  // The trace really shares prefixes: its 7 distinct states would take
  // 17 f1 and 21 f2 steps one by one; the tries step the f1 prefixes
  // 3 / 3 1 / 3 1 2 / 5 and 16 distinct variable prefixes.
  FusionStats Stats;
  Net.encoder().encode(Samples[0].Traces, &Stats);
  EXPECT_EQ(Stats.StateCellSteps, 4u + 16u);

  Check(Net.params(), [&] { return Net.loss(Samples[0]); }, "loss");
  // Batch-scope tries additionally share prefixes across samples.
  std::vector<const MethodSample *> Group = {&Samples[0], &Samples[1],
                                             &Samples[0]};
  Check(
      Net.params(),
      [&] { return sumV(stackScalars(Net.lossBatch(Group))); }, "lossBatch");
}

} // namespace

TEST(GradCheckTest, LigerLossSharedPrefixesGru) {
  checkSharedPrefixGradients(SharedPrefixModel::Liger, CellKind::Gru);
}

TEST(GradCheckTest, LigerLossSharedPrefixesLstm) {
  checkSharedPrefixGradients(SharedPrefixModel::Liger, CellKind::Lstm);
}

TEST(GradCheckTest, DyproLossSharedPrefixesGru) {
  checkSharedPrefixGradients(SharedPrefixModel::Dypro, CellKind::Gru);
}

TEST(GradCheckTest, DyproLossSharedPrefixesLstm) {
  checkSharedPrefixGradients(SharedPrefixModel::Dypro, CellKind::Lstm);
}

//===----------------------------------------------------------------------===//
// DYPRO against its chain-per-state reference encode
//===----------------------------------------------------------------------===//

namespace {

bool bitwiseEqual(const Var &A, const Var &B) {
  return A->Value.size() == B->Value.size() &&
         std::memcmp(A->Value.data(), B->Value.data(),
                     A->Value.size() * sizeof(float)) == 0;
}

/// DyproEncoder::encode against oracle::referenceDyproEncode on the
/// tiny corpus, the shared-prefix trace, and that trace with its last
/// variable unnamed (its f2 input starts with the zero name).
void expectDyproMatchesReference(CellKind Cell) {
  std::vector<MethodSample> Samples = tinyCorpus();
  MethodSample Shared = Samples[0];
  ASSERT_NO_FATAL_FAILURE(useSharedPrefixTrace(Shared));
  MethodSample Unnamed = Shared;
  ASSERT_GE(Unnamed.Traces.VarNames.size(), 3u);
  Unnamed.Traces.VarNames.resize(2);
  Samples.push_back(Shared);
  Samples.push_back(Unnamed);
  TinyVocabs V = buildVocabs(Samples);

  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  Config.Cell = Cell;
  ParamStore Store;
  Rng R(42);
  DyproEncoder Encoder(Store, V.Joint, Config, R);
  for (size_t S = 0; S < Samples.size(); ++S) {
    DyproEncoder::Encoding Got = Encoder.encode(Samples[S].Traces);
    DyproEncoder::Encoding Want = oracle::referenceDyproEncode(
        Store, V.Joint, Config, Samples[S].Traces);
    EXPECT_TRUE(bitwiseEqual(Got.ProgramEmbedding, Want.ProgramEmbedding))
        << "sample " << S;
    ASSERT_EQ(Got.StateMemory.size(), Want.StateMemory.size())
        << "sample " << S;
    for (size_t I = 0; I < Got.StateMemory.size(); ++I)
      EXPECT_TRUE(bitwiseEqual(Got.StateMemory[I], Want.StateMemory[I]))
          << "sample " << S << " state " << I;
  }
}

} // namespace

TEST(DyproEquivalenceTest, EncodeMatchesReferenceGru) {
  expectDyproMatchesReference(CellKind::Gru);
}

TEST(DyproEquivalenceTest, EncodeMatchesReferenceLstm) {
  expectDyproMatchesReference(CellKind::Lstm);
}
