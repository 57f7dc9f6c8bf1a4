//===-- tests/ServeTests.cpp - Serving-stack tests -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving contracts of DESIGN.md §13:
///
///  - InferenceEquivalenceTest: the forward-only LigerInference
///    runtime is bitwise-identical to the autodiff forward — program
///    embeddings memcmp-equal, greedy decodes token-equal — for GRU
///    and LSTM cells, cold and warm embedding caches.
///  - WeightImageTest: the in-memory image's content digest changes
///    with the parameters (the serving caches' version key).
///  - ServeDeadlineTest / ServeStatusTest: per-request wall-clock
///    deadlines surface as a distinct terminal status and stats
///    counter; pipeline filters map to their statuses.
///  - ServeSharedCacheTest / TraceCacheConcurrencyTest: engines and
///    raw caches sharing one on-disk directory serve concurrent
///    readers (and writers) without corruption or result drift.
///
//===----------------------------------------------------------------------===//

#include "dataset/Tasks.h"
#include "lang/Parser.h"
#include "models/Inference.h"
#include "nn/GraphArena.h"
#include "serve/Serve.h"
#include "testgen/TraceCache.h"
#include "testgen/TraceCollector.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

using namespace liger;

namespace {

/// Tiny but non-degenerate scale: a few methods, real traces.
ExperimentScale tinyScale() {
  ExperimentScale Scale;
  Scale.MethodsMed = 12;
  Scale.Hidden = 10;
  Scale.EmbedDim = 8;
  Scale.TargetPaths = 3;
  Scale.ExecutionsPerPath = 2;
  Scale.Seed = 11;
  return Scale;
}

const char *SpinSource = "int spinner(int x) {\n"
                         "  int spin3 = 0;\n"
                         "  while (spin3 == 0) { spin3 = spin3 * 1; }\n"
                         "  return spin3;\n"
                         "}\n";
const char *SumSource = "int sumAll(int[] xs) {\n"
                        "  int s = 0;\n"
                        "  for (int i = 0; i < len(xs); i = i + 1) {\n"
                        "    s = s + xs[i];\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n";

std::vector<const MethodSample *> allSamples(const NameTask &Task) {
  std::vector<const MethodSample *> Out;
  for (const MethodSample &S : Task.Split.Train)
    Out.push_back(&S);
  for (const MethodSample &S : Task.Split.Valid)
    Out.push_back(&S);
  for (const MethodSample &S : Task.Split.Test)
    Out.push_back(&S);
  return Out;
}

/// Checks bitwise encode + exact decode equivalence between the
/// autodiff model and the forward-only runtime for one config.
void expectForwardEquivalence(const LigerConfig &Config) {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  WeightImage Image = WeightImage::fromStore(Net.params());
  LigerInference Inference(Image, Task.Joint, &Task.Target, Config);

  std::vector<const MethodSample *> Samples = allSamples(Task);
  ASSERT_FALSE(Samples.empty());

  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  // Two rounds: the first runs the inference engine with cold
  // statement/state caches, the second with warm ones — both must be
  // bitwise-identical to the graph forward.
  uint64_t ColdCellSteps = 0;
  for (int Round = 0; Round < 2; ++Round) {
    for (const MethodSample *S : Samples) {
      GraphArena::current().reset();
      LigerEncoding Enc = Net.encoder().encode(S->Traces);
      const float *Embedding = Inference.encode(S->Traces);
      ASSERT_EQ(std::memcmp(Embedding, Enc.ProgramEmbedding->Value.data(),
                            Config.Hidden * sizeof(float)),
                0)
          << "round " << Round;
      GraphArena::current().reset();
      std::vector<float> Returned;
      EXPECT_EQ(Inference.predictName(S->Traces, &Returned), Net.predict(*S))
          << "round " << Round;
      ASSERT_EQ(Returned.size(), Config.Hidden);
      EXPECT_EQ(std::memcmp(Returned.data(),
                            Enc.ProgramEmbedding->Value.data(),
                            Config.Hidden * sizeof(float)),
                0)
          << "round " << Round;
    }
    if (Round == 0)
      ColdCellSteps = Inference.cacheStats().StateCellSteps;
  }
  // Warm rounds actually hit the persistent caches and step no cell.
  const LigerInference::CacheStats &C = Inference.cacheStats();
  EXPECT_GT(Config.UseStaticFeature ? C.StmtHits : C.StateHits, 0u);
  EXPECT_EQ(C.StateCellSteps, ColdCellSteps);
  EXPECT_EQ(ColdCellSteps > 0, Config.UseDynamicFeature);
}

LigerConfig tinyConfig(CellKind Cell = CellKind::Gru) {
  LigerConfig Config = serveLigerConfig(tinyScale());
  Config.Cell = Cell;
  return Config;
}

std::string tempPath(const char *Name) {
  return (std::filesystem::temp_directory_path() / Name).string();
}

/// A small weight image with several ranks and shapes.
WeightImage tinyImage(uint64_t Seed) {
  Vocabulary Joint, Target;
  Joint.add("x");
  Joint.add("y");
  Target.add("sum");
  LigerConfig Config;
  Config.EmbedDim = 4;
  Config.Hidden = 5;
  Config.AttnHidden = 3;
  LigerNamePredictor Net(Joint, Target, Config, Seed);
  return WeightImage::fromStore(Net.params());
}

} // namespace

//===----------------------------------------------------------------------===//
// InferenceEquivalenceTest
//===----------------------------------------------------------------------===//

TEST(InferenceEquivalenceTest, GruEncodeDecodeBitwise) {
  expectForwardEquivalence(tinyConfig(CellKind::Gru));
}

TEST(InferenceEquivalenceTest, LstmEncodeDecodeBitwise) {
  expectForwardEquivalence(tinyConfig(CellKind::Lstm));
}

TEST(InferenceEquivalenceTest, RnnEncodeDecodeBitwise) {
  expectForwardEquivalence(tinyConfig(CellKind::Rnn));
}

TEST(InferenceEquivalenceTest, NoStaticFeatureBitwise) {
  LigerConfig Config = tinyConfig();
  Config.UseStaticFeature = false;
  expectForwardEquivalence(Config);
}

TEST(InferenceEquivalenceTest, NoDynamicFeatureBitwise) {
  LigerConfig Config = tinyConfig();
  Config.UseDynamicFeature = false;
  expectForwardEquivalence(Config);
}

TEST(InferenceEquivalenceTest, NoFusionAttentionBitwise) {
  LigerConfig Config = tinyConfig();
  Config.UseFusionAttention = false;
  expectForwardEquivalence(Config);
}

TEST(InferenceEquivalenceTest, MeanPoolProgramsBitwise) {
  LigerConfig Config = tinyConfig();
  Config.MeanPoolPrograms = true;
  expectForwardEquivalence(Config);
}

TEST(InferenceEquivalenceTest, PredictClassMatchesClassifier) {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  LigerConfig Config = tinyConfig();
  const size_t NumClasses = 5;
  LigerClassifier Net(Task.Joint, NumClasses, Config, Scale.Seed);
  WeightImage Image = WeightImage::fromStore(Net.params());
  LigerInference Inference(Image, Task.Joint, /*Target=*/nullptr, Config);
  ASSERT_TRUE(Inference.hasClassifierHead());

  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (int Round = 0; Round < 2; ++Round)
    for (const MethodSample *S : allSamples(Task)) {
      GraphArena::current().reset();
      Tensor Want = Net.embed(S->Traces);
      const float *Embedding = Inference.encode(S->Traces);
      ASSERT_EQ(std::memcmp(Embedding, Want.data(),
                            Config.Hidden * sizeof(float)),
                0)
          << "round " << Round;
      GraphArena::current().reset();
      EXPECT_EQ(Inference.predictClass(S->Traces), Net.predict(*S))
          << "round " << Round;
    }
}

namespace {

Value intArray(std::vector<int64_t> Elems) {
  std::vector<Value> Out;
  for (int64_t E : Elems)
    Out.push_back(Value::makeInt(E));
  return Value::makeArray(std::move(Out));
}

ProgramState state(Value Xs, int64_t I, int64_t S) {
  ProgramState St;
  St.Values = {std::move(Xs), Value::makeInt(I), Value::makeInt(S)};
  return St;
}

} // namespace

namespace {

/// One path of four steps (the loop statement twice) and two
/// executions over (xs, i, s). The array repeats under changing
/// scalars, [3, 1] is a prefix of [3, 1, 2], and the executions share
/// variable prefixes. Seven distinct states (B's first repeats A's):
/// f1 steps the token prefixes 3 / 3 1 / 3 1 2 / 5; f2 steps every
/// distinct variable prefix: 3 (A0) + 2 (A1) + 2 (A2) + 3 (A3, new
/// array node) + 1 (B1) + 3 (B2) + 1 (B3). Re-running f1/f2 per miss
/// would take 39 steps.
struct SharedPrefixTrace {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  std::optional<Program> Parsed;
  MethodSample Sample;

  void build() {
    for (const char *Token : {"0", "1", "2", "3", "4", "5", "6"})
      ASSERT_NE(Task.Joint.lookup(Token), Vocabulary::Unk) << Token;

    DiagnosticSink Diags;
    Parsed = parseAndCheck(SumSource, Diags);
    ASSERT_TRUE(Parsed);
    const FunctionDecl *Fn = Parsed->findFunction("sumAll");
    ASSERT_TRUE(Fn && Fn->Body);
    const std::vector<const Stmt *> &Body =
        cast<BlockStmt>(Fn->Body)->body();
    ASSERT_EQ(Body.size(), 3u); // decl, for, return

    Sample.Fn = Fn;
    Sample.Traces.Fn = Fn;
    Sample.Traces.VarNames = {"xs", "i", "s"};
    BlendedTrace Path;
    for (const Stmt *S : {Body[0], Body[1], Body[1], Body[2]})
      Path.Symbolic.Steps.push_back({S, StepKind::Plain});
    StateTrace A, B;
    A.States = {state(intArray({3, 1, 2}), 0, 0),
                state(intArray({3, 1, 2}), 1, 3),
                state(intArray({3, 1, 2}), 2, 4),
                state(intArray({3, 1}), 2, 4)};
    B.States = {state(intArray({3, 1, 2}), 0, 0),
                state(intArray({3, 1, 2}), 1, 5), state(intArray({5}), 2, 4),
                state(intArray({3, 1, 2}), 2, 6)};
    Path.Concrete = {A, B};
    Sample.Traces.Paths.push_back(Path);
  }
};

} // namespace

TEST(InferenceEquivalenceTest, RequestTriesRunEachPrefixOnce) {
  SharedPrefixTrace F;
  ASSERT_NO_FATAL_FAILURE(F.build());
  const MethodSample &Sample = F.Sample;

  for (CellKind Cell : {CellKind::Gru, CellKind::Lstm, CellKind::Rnn}) {
    LigerConfig Config = tinyConfig(Cell);
    LigerNamePredictor Net(F.Task.Joint, F.Task.Target, Config, F.Scale.Seed);
    WeightImage Image = WeightImage::fromStore(Net.params());
    LigerInference Inference(Image, F.Task.Joint, &F.Task.Target, Config);

    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    LigerEncoding Enc = Net.encoder().encode(Sample.Traces);
    const float *Embedding = Inference.encode(Sample.Traces);
    ASSERT_EQ(std::memcmp(Embedding, Enc.ProgramEmbedding->Value.data(),
                          Config.Hidden * sizeof(float)),
              0);

    // See SharedPrefixTrace for the counts.
    const LigerInference::CacheStats &C = Inference.cacheStats();
    EXPECT_EQ(C.StateMisses, 7u);
    EXPECT_EQ(C.StateHits, 1u);
    EXPECT_EQ(C.StateCellSteps, 4u + 15u);
    EXPECT_EQ(C.StmtMisses, 3u);
    EXPECT_EQ(C.StmtHits, 1u);

    GraphArena::current().reset();
    EXPECT_EQ(Inference.predictName(Sample.Traces), Net.predict(Sample));
    EXPECT_EQ(Inference.cacheStats().StateCellSteps, 19u)
        << "a warm request steps no cell";
  }
}

TEST(InferenceEquivalenceTest, EncoderTriesStepEachPrefixOnce) {
  // The autodiff encoder walks the same two prefix tries as a cold
  // engine request, so it takes exactly the engine's f1 + f2 steps —
  // per sample, and at batch scope over two copies of the trace.
  SharedPrefixTrace F;
  ASSERT_NO_FATAL_FAILURE(F.build());
  const MethodTraces &Traces = F.Sample.Traces;

  for (CellKind Cell : {CellKind::Gru, CellKind::Lstm, CellKind::Rnn}) {
    LigerConfig Config = tinyConfig(Cell);
    LigerNamePredictor Net(F.Task.Joint, F.Task.Target, Config, F.Scale.Seed);
    WeightImage Image = WeightImage::fromStore(Net.params());
    LigerInference Inference(Image, F.Task.Joint, &F.Task.Target, Config);

    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    const float *Embedding = Inference.encode(Traces);
    FusionStats Stats;
    LigerEncoding Enc = Net.encoder().encode(Traces, &Stats);
    ASSERT_EQ(std::memcmp(Embedding, Enc.ProgramEmbedding->Value.data(),
                          Config.Hidden * sizeof(float)),
              0);
    EXPECT_EQ(Stats.StateCellSteps, Inference.cacheStats().StateCellSteps);
    EXPECT_EQ(Stats.StateCellSteps, 19u);

    FusionStats BatchStats;
    std::vector<LigerEncoding> Encs =
        Net.encoder().encodeBatch({&Traces, &Traces}, &BatchStats);
    ASSERT_EQ(Encs.size(), 2u);
    for (const LigerEncoding &E : Encs)
      EXPECT_EQ(std::memcmp(Embedding, E.ProgramEmbedding->Value.data(),
                            Config.Hidden * sizeof(float)),
                0);
    EXPECT_EQ(BatchStats.StateCellSteps, 19u);
  }
}

TEST(InferenceEquivalenceTest, EmptyFlatteningBitwise) {
  // With MaxFlattenedValues = 0 every object value's f1 walk ends at
  // the f1 root (zeros) in both runtimes.
  SharedPrefixTrace F;
  ASSERT_NO_FATAL_FAILURE(F.build());
  const MethodTraces &Traces = F.Sample.Traces;

  for (CellKind Cell : {CellKind::Gru, CellKind::Lstm}) {
    LigerConfig Config = tinyConfig(Cell);
    Config.MaxFlattenedValues = 0;
    LigerNamePredictor Net(F.Task.Joint, F.Task.Target, Config, F.Scale.Seed);
    WeightImage Image = WeightImage::fromStore(Net.params());
    LigerInference Inference(Image, F.Task.Joint, &F.Task.Target, Config);

    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    const float *Embedding = Inference.encode(Traces);
    FusionStats Stats;
    LigerEncoding Enc = Net.encoder().encode(Traces, &Stats);
    ASSERT_EQ(std::memcmp(Embedding, Enc.ProgramEmbedding->Value.data(),
                          Config.Hidden * sizeof(float)),
              0);
    EXPECT_EQ(Stats.StateCellSteps, Inference.cacheStats().StateCellSteps);

    expectForwardEquivalence(Config);
  }
}

TEST(InferenceEquivalenceTest, StateSharedAcrossPathsCountsOnce) {
  // Two paths over (xs, i, s), three steps each. The engine walks the
  // paths timestep-major, so it meets each shared state in a different
  // order than a path-by-path walk would, and must still count one miss
  // per distinct state:
  //  - same round: step 1 of both paths is state([2], 1, 1);
  //  - across rounds: path Q's step 0 is path P's step 2, so Q's round-0
  //    request misses and P's round-2 request hits.
  // Four distinct states, two hits. Each state is a one-token array and
  // two new scalars: 4 f1 steps, 4 x 3 f2 steps.
  SharedPrefixTrace F;
  ASSERT_NO_FATAL_FAILURE(F.build());
  const std::vector<const Stmt *> &Body =
      cast<BlockStmt>(F.Sample.Traces.Fn->Body)->body();
  MethodTraces Traces;
  Traces.Fn = F.Sample.Traces.Fn;
  Traces.VarNames = {"xs", "i", "s"};
  auto PathOf = [&](std::vector<ProgramState> States) {
    BlendedTrace Path;
    for (const Stmt *S : Body)
      Path.Symbolic.Steps.push_back({S, StepKind::Plain});
    StateTrace T;
    T.States = std::move(States);
    Path.Concrete = {T};
    return Path;
  };
  Traces.Paths = {PathOf({state(intArray({1}), 0, 0),
                          state(intArray({2}), 1, 1),
                          state(intArray({3}), 2, 2)}),
                  PathOf({state(intArray({3}), 2, 2),
                          state(intArray({2}), 1, 1),
                          state(intArray({4}), 0, 0)})};

  for (CellKind Cell : {CellKind::Gru, CellKind::Lstm, CellKind::Rnn}) {
    LigerConfig Config = tinyConfig(Cell);
    LigerNamePredictor Net(F.Task.Joint, F.Task.Target, Config, F.Scale.Seed);
    WeightImage Image = WeightImage::fromStore(Net.params());
    LigerInference Inference(Image, F.Task.Joint, &F.Task.Target, Config);

    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    FusionStats Stats;
    LigerEncoding Enc = Net.encoder().encode(Traces, &Stats);
    const float *Embedding = Inference.encode(Traces);
    ASSERT_EQ(std::memcmp(Embedding, Enc.ProgramEmbedding->Value.data(),
                          Config.Hidden * sizeof(float)),
              0);

    const LigerInference::CacheStats &C = Inference.cacheStats();
    EXPECT_EQ(C.StateMisses, 4u);
    EXPECT_EQ(C.StateHits, 2u);
    EXPECT_EQ(C.StateCellSteps, 4u + 12u);
    EXPECT_EQ(Stats.StateCellSteps, 4u + 12u);
  }
}

//===----------------------------------------------------------------------===//
// WeightImageTest
//===----------------------------------------------------------------------===//

TEST(WeightImageTest, VersionChangesWithParams) {
  WeightImage A = tinyImage(3);
  WeightImage B = tinyImage(4);
  EXPECT_FALSE(A.version() == B.version());
}

//===----------------------------------------------------------------------===//
// Serve status + deadline
//===----------------------------------------------------------------------===//

namespace {

ServeConfig tinyServeConfig() {
  ServeConfig Config;
  Config.Scale = tinyScale();
  Config.Scale.CacheMode = TraceCacheMode::Full;
  Config.Scale.Cache = std::make_shared<TraceCache>(
      Config.Scale.CacheMode, /*Dir=*/std::string());
  Config.Workers = 2;
  return Config;
}

} // namespace

TEST(ServeStatusTest, PipelineFiltersMapToStatuses) {
  ServeEngine Engine(tinyServeConfig());
  std::vector<ServeResponse> Out = Engine.handleBatch({
      {"sumAll", SumSource, 0},
      {"sumAll", "int sumAll(", 0},
      {"other", SumSource, 0},
      {"tiny", "int tiny(int x) { return x; }", 0},
      {"spinner", SpinSource, 60000},
  });
  ASSERT_EQ(Out.size(), 5u);
  EXPECT_EQ(Out[0].Status, ServeStatus::Ok);
  EXPECT_FALSE(Out[0].NameSubtokens.empty());
  EXPECT_EQ(Out[1].Status, ServeStatus::ParseError);
  EXPECT_EQ(Out[2].Status, ServeStatus::NoSuchMethod);
  EXPECT_EQ(Out[3].Status, ServeStatus::TooSmall);
  // With an effectively unlimited deadline the spin is caught by the
  // fuel budget on every run: the timeout filter, not the deadline.
  EXPECT_EQ(Out[4].Status, ServeStatus::NoTraces);

  ServeStats Stats = Engine.stats();
  EXPECT_EQ(Stats.Requests, 5u);
  EXPECT_EQ(Stats.Ok, 1u);
  EXPECT_EQ(Stats.ParseErrors, 1u);
  EXPECT_EQ(Stats.NoSuchMethod, 1u);
  EXPECT_EQ(Stats.TooSmall, 1u);
  EXPECT_EQ(Stats.NoTraces, 1u);
  EXPECT_EQ(Stats.DeadlineExceeded, 0u);
}

TEST(ServeDeadlineTest, TinyDeadlineSurfacesAsDistinctStatus) {
  ServeEngine Engine(tinyServeConfig());
  // A 1ms deadline on an uncached hostile method: the fuel-bounded
  // exploration alone takes longer, and the phase-boundary check then
  // reports the deadline, which dominates the trace-outcome filters.
  std::vector<ServeResponse> Out =
      Engine.handleBatch({{"spinner", SpinSource, 1}});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Status, ServeStatus::DeadlineExceeded);
  EXPECT_TRUE(Out[0].NameSubtokens.empty());
  EXPECT_NE(Out[0].Diagnostic.find("deadline"), std::string::npos);
  EXPECT_EQ(Engine.stats().DeadlineExceeded, 1u);
}

//===----------------------------------------------------------------------===//
// Serve stats
//===----------------------------------------------------------------------===//

namespace {

bool sameCounters(const LigerInference::CacheStats &A,
                  const LigerInference::CacheStats &B) {
  return A.StmtHits == B.StmtHits && A.StmtMisses == B.StmtMisses &&
         A.StateHits == B.StateHits && A.StateMisses == B.StateMisses &&
         A.StateCellSteps == B.StateCellSteps;
}

} // namespace

TEST(ServeStatsTest, ReturnEmbeddingEncodesOnce) {
  ServeConfig Plain = tinyServeConfig();
  ServeConfig WithEmbedding = tinyServeConfig();
  WithEmbedding.ReturnEmbedding = true;
  ServeEngine NoEmb(Plain), Emb(WithEmbedding);
  ServeRequest Req{"sumAll", SumSource, 0};
  ServeResponse Named = NoEmb.handle(Req);
  ServeResponse Embedded = Emb.handle(Req);
  ASSERT_EQ(Embedded.Status, ServeStatus::Ok);
  EXPECT_EQ(Embedded.NameSubtokens, Named.NameSubtokens);
  EXPECT_TRUE(Named.Embedding.empty());

  // The emitted embedding is encode() of the request's own traces.
  DiagnosticSink Diags;
  std::optional<Program> Parsed = parseAndCheck(Req.Source, Diags);
  ASSERT_TRUE(Parsed);
  const FunctionDecl *Fn = Parsed->findFunction(Req.MethodName);
  ASSERT_NE(Fn, nullptr);
  TestGenOptions Gen = WithEmbedding.Scale.traceGenOptions();
  Gen.Seed = serveTraceSeed(Req, WithEmbedding.Scale.Seed);
  MethodTraces Traces =
      collectTracesCached(*Parsed, *Fn, Req.Source, Gen, nullptr);
  LigerInference Fresh(Emb.weightImage(), Emb.jointVocab(),
                       &Emb.targetVocab(), Emb.modelConfig());
  const float *Want = Fresh.encode(Traces);
  ASSERT_EQ(Embedded.Embedding.size(), Emb.modelConfig().Hidden);
  EXPECT_EQ(std::memcmp(Embedded.Embedding.data(), Want,
                        Emb.modelConfig().Hidden * sizeof(float)),
            0);

  // One encode per request: the counters match the plain request's.
  EXPECT_TRUE(sameCounters(Emb.stats().Embeddings, NoEmb.stats().Embeddings));
  EXPECT_TRUE(sameCounters(Emb.stats().Embeddings, Fresh.cacheStats()));
}

TEST(ServeStatsTest, StatsDuringBatchMatchSingleEngineTotals) {
  std::vector<ServeRequest> Burst;
  for (const TaskSpec &Task : taskLibrary()) {
    if (Burst.size() == 12)
      break;
    std::string Name = "stats" + Task.Key;
    Burst.push_back(
        {Name, replaceIdentifier(Task.Variants[0].Source, "FN", Name), 0});
  }

  ServeConfig Inline = tinyServeConfig();
  Inline.Workers = 0;
  ServeEngine One(Inline);
  One.handleBatch(Burst);
  LigerInference::CacheStats Want = One.stats().Embeddings;
  ASSERT_GT(Want.StateHits + Want.StateMisses, 0u);

  ServeConfig Pooled = tinyServeConfig();
  Pooled.Workers = 4;
  ServeEngine Many(Pooled);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Regressions{0};
  // stats() may be polled while other threads hold engines leased; the
  // totals it reports only ever grow.
  std::thread Poller([&] {
    uint64_t Last = 0;
    while (!Done.load()) {
      LigerInference::CacheStats C = Many.stats().Embeddings;
      uint64_t Lookups = C.StmtHits + C.StmtMisses + C.StateHits +
                         C.StateMisses;
      if (Lookups < Last)
        Regressions.fetch_add(1);
      Last = Lookups;
    }
  });
  Many.handleBatch(Burst);
  Done.store(true);
  Poller.join();
  EXPECT_EQ(Regressions.load(), 0u);

  LigerInference::CacheStats Got = Many.stats().Embeddings;
  EXPECT_EQ(Got.StmtHits + Got.StmtMisses, Want.StmtHits + Want.StmtMisses);
  EXPECT_EQ(Got.StateHits + Got.StateMisses,
            Want.StateHits + Want.StateMisses);
}

//===----------------------------------------------------------------------===//
// Shared-directory concurrency
//===----------------------------------------------------------------------===//

TEST(ServeSharedCacheTest, TwoEnginesShareOneDirectory) {
  std::string Dir = tempPath("liger-serve-shared-cache");
  std::filesystem::remove_all(Dir);

  auto makeConfig = [&] {
    ServeConfig Config = tinyServeConfig();
    // Each engine gets its own TraceCache instance (fresh memory map,
    // as in separate processes) over the same directory.
    Config.Scale.TraceCacheDir = Dir;
    Config.Scale.Cache = std::make_shared<TraceCache>(
        Config.Scale.CacheMode, Config.Scale.TraceCacheDir);
    return Config;
  };

  std::vector<ServeRequest> Burst = {{"sumAll", SumSource, 0},
                                     {"sumAll", SumSource, 0}};

  // Cold pass one request at a time (a batched pair may race to the
  // same key on two workers and both legitimately miss): the second
  // identical request must deterministically reuse the first's entry.
  ServeEngine First(makeConfig());
  std::vector<ServeResponse> Cold = {First.handle(Burst[0]),
                                     First.handle(Burst[1])};
  ASSERT_EQ(Cold[0].Status, ServeStatus::Ok);
  ASSERT_EQ(Cold[1].Status, ServeStatus::Ok);
  EXPECT_FALSE(Cold[0].TraceCacheHit);
  EXPECT_TRUE(Cold[1].TraceCacheHit)
      << "second identical request must reuse the first's entry";

  // A second engine with no memory of the first: all disk hits, same
  // predictions, concurrently from both engines' worker pools.
  ServeEngine Second(makeConfig());
  std::vector<ServeResponse> FromFirst, FromSecond;
  std::thread Reader([&] { FromFirst = First.handleBatch(Burst); });
  FromSecond = Second.handleBatch(Burst);
  Reader.join();

  for (const ServeResponse &R : FromSecond) {
    EXPECT_EQ(R.Status, ServeStatus::Ok);
    EXPECT_TRUE(R.TraceCacheHit);
    EXPECT_EQ(R.NameSubtokens, Cold[0].NameSubtokens);
  }
  for (const ServeResponse &R : FromFirst) {
    EXPECT_EQ(R.Status, ServeStatus::Ok);
    EXPECT_TRUE(R.TraceCacheHit);
    EXPECT_EQ(R.NameSubtokens, Cold[0].NameSubtokens);
  }
  std::filesystem::remove_all(Dir);
}

TEST(TraceCacheConcurrencyTest, SharedDirReadersAndWritersStayClean) {
  std::string Dir = tempPath("liger-trace-cache-concurrent");
  std::filesystem::remove_all(Dir);

  // Synthetic entries, one per key; every thread stores and looks up
  // every key through its own cache instance (simulating processes
  // that share only the directory). Stores atomically replace files
  // while other threads are mid-read; the reader must treat any
  // interleaving as a whole old or whole new entry, never corruption.
  constexpr size_t NumKeys = 8;
  constexpr size_t NumThreads = 4;
  constexpr size_t Rounds = 25;
  auto keyOf = [](size_t I) {
    TestGenOptions Options;
    Options.Seed = 1000 + I;
    return traceCacheKey("shared-source", "method" + std::to_string(I),
                         Options);
  };
  auto entryOf = [](size_t I) {
    CachedTraceEntry E;
    E.Attempts = static_cast<uint32_t>(10 + I);
    E.OkRuns = static_cast<uint32_t>(I);
    E.AcceptedInputs.resize(1);
    PortableValue V;
    V.Kind = ValueKind::Int;
    V.Int = static_cast<int64_t>(I);
    E.AcceptedInputs[0].push_back(V);
    return E;
  };

  std::vector<std::unique_ptr<TraceCache>> Caches;
  for (size_t T = 0; T < NumThreads; ++T)
    Caches.push_back(
        std::make_unique<TraceCache>(TraceCacheMode::Full, Dir));

  std::atomic<uint64_t> WrongPayloads{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t R = 0; R < Rounds; ++R)
        for (size_t I = 0; I < NumKeys; ++I) {
          if ((R + T + I) % 2 == 0)
            Caches[T]->store(keyOf(I), entryOf(I));
          CachedTraceEntry Out;
          if (Caches[T]->lookup(keyOf(I), Out))
            if (Out.Attempts != 10 + I || Out.OkRuns != I ||
                Out.AcceptedInputs.size() != 1 ||
                Out.AcceptedInputs[0].size() != 1 ||
                Out.AcceptedInputs[0][0].Int != static_cast<int64_t>(I))
              WrongPayloads.fetch_add(1);
        }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(WrongPayloads.load(), 0u);
  for (const std::unique_ptr<TraceCache> &C : Caches)
    EXPECT_EQ(C->badEntries(), 0u)
        << "atomic replace + handle-sized reads must never look corrupt";

  // A fresh instance over the settled directory hits every key.
  TraceCache Fresh(TraceCacheMode::Full, Dir);
  for (size_t I = 0; I < NumKeys; ++I) {
    CachedTraceEntry Out;
    EXPECT_TRUE(Fresh.lookup(keyOf(I), Out)) << "key " << I;
  }
  std::filesystem::remove_all(Dir);
}
