//===-- perfbench/harness/ServeWorkload.cpp - serve_cold / serve_warm -----===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Open-loop serving. This thread releases each generated request at its
// due time onto a queue; caller threads take requests off it and call
// ServeEngine::handle. Latency runs from the due time, so a stall
// delays every request queued behind it.
//
// The traced run replays the same requests on one caller through the
// public entry points handleOn calls, in its order (parseAndCheck,
// collectTracesCached, LigerInference::predictName), with spans around
// each call.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"
#include "Pipeline.h"
#include "Spans.h"
#include "Workloads.h"

#include "lang/Parser.h"
#include "nn/GraphArena.h"
#include "serve/Serve.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

using namespace liger;

namespace perfbench {

ExperimentScale paperScale(const RunConfig &Run) {
  ExperimentScale Scale;
  Scale.Hidden = 100;
  Scale.EmbedDim = 100;
  Scale.Threads = std::min<size_t>(4, Run.Cpus);
  return Scale;
}

namespace {

struct ServeSpec {
  const char *Name;
  double RatePerSec; ///< Open-loop arrival rate.
};
// Both rates keep three callers about a quarter busy (capacity on a
// 4-core host: roughly 300/s cold, 850/s warm). Queueing then shows in
// the tail without a backlog, and a slow core on a shared host delays
// few requests behind it.
constexpr ServeSpec ColdSpec{"serve_cold", 80};
constexpr ServeSpec WarmSpec{"serve_warm", 150};

/// Hot-set entries per servable base method.
constexpr size_t HotCopiesPerBase = 2;
constexpr size_t MaxHotPasses = 40;
constexpr size_t ColdWarmupCount = 300;
constexpr size_t SetupRepeats = 9;
/// Ok requests per run whose served name is checked against autodiff.
constexpr size_t AutodiffChecks = 12;
/// The traced run's p50 of summed self times should lie within this
/// share of the untraced p50 latency; one caller instead of three runs
/// 10-25% faster.
constexpr double SelfTimeTolerance = 0.35;

bool statusMatches(ServeStatus Status, Expected Expect) {
  return Status == (Expect == Expected::Ok ? ServeStatus::Ok
                                           : ServeStatus::NoTraces);
}

ServeRequest toWire(const Request &Req) {
  ServeRequest Wire;
  Wire.MethodName = Req.MethodName;
  Wire.Source = Req.Source;
  return Wire;
}

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Completion {
  double EnqueuedMs = 0; ///< Generator put it on the queue.
  double PickedMs = 0;   ///< A caller took it off.
  double DoneMs = 0;     ///< handle() returned.
  ServeResponse Resp;
};

std::vector<Completion> runOpenLoop(ServeEngine &Engine,
                                    const std::vector<Request> &Reqs,
                                    size_t Callers) {
  std::vector<ServeRequest> Wire;
  Wire.reserve(Reqs.size());
  for (const Request &Req : Reqs)
    Wire.push_back(toWire(Req));

  std::vector<Completion> Out(Reqs.size());
  std::mutex QueueMutex;
  std::condition_variable QueueReady;
  std::deque<size_t> Queue; // Guarded by QueueMutex.
  bool Closed = false;      // Guarded by QueueMutex.

  const Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
  auto msSinceT0 = [T0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - T0)
        .count();
  };

  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Callers; ++C)
    Threads.emplace_back([&] {
      for (;;) {
        size_t I = 0;
        {
          std::unique_lock<std::mutex> Lock(QueueMutex);
          QueueReady.wait(Lock, [&] { return Closed || !Queue.empty(); });
          if (Queue.empty())
            return;
          I = Queue.front();
          Queue.pop_front();
        }
        Out[I].PickedMs = msSinceT0();
        Out[I].Resp = Engine.handle(Wire[I]);
        Out[I].DoneMs = msSinceT0();
      }
    });

  for (size_t I = 0; I < Reqs.size(); ++I) {
    std::this_thread::sleep_until(
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(Reqs[I].DueMs)));
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      Out[I].EnqueuedMs = msSinceT0();
      Queue.push_back(I);
    }
    QueueReady.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Closed = true;
  }
  QueueReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

/// Served names must equal the autodiff model's greedy prediction on
/// the same traces, for a seeded sample of Ok requests.
void checkAgainstAutodiff(const RunConfig &Run, const ExperimentScale &Scale,
                          const ServeEngine &Engine,
                          const std::vector<Request> &Reqs,
                          const std::vector<Completion> &Done, Outcome &Out) {
  std::vector<size_t> Candidates;
  for (size_t I = 0; I < Reqs.size(); ++I)
    if (Done[I].Resp.Status == ServeStatus::Ok)
      Candidates.push_back(I);
  Rng R(Run.Seed ^ 0xAD1FFULL);
  R.shuffle(Candidates);
  Candidates.resize(std::min(Candidates.size(), AutodiffChecks));

  LigerNamePredictor Net(Engine.jointVocab(), Engine.targetVocab(),
                         Engine.modelConfig(), Scale.Seed);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  size_t Mismatches = 0;
  for (size_t I : Candidates) {
    const Request &Req = Reqs[I];
    DiagnosticSink Diags;
    std::optional<Program> Parsed = parseAndCheck(Req.Source, Diags);
    if (!Parsed) {
      Out.fail("autodiff check: " + Req.MethodName + " does not parse");
      continue;
    }
    MethodSample Sample;
    Sample.Prog = std::make_shared<Program>(std::move(*Parsed));
    Sample.Fn = Sample.Prog->findFunction(Req.MethodName);
    TestGenOptions Gen = Scale.traceGenOptions();
    Gen.Seed = requestTraceSeed(Req.Source, Req.MethodName, Scale.Seed);
    Sample.Traces = collectTraces(*Sample.Prog, *Sample.Fn, Gen);
    if (Net.predict(Sample) != Done[I].Resp.NameSubtokens)
      ++Mismatches;
    Arena.reset();
  }
  if (Mismatches)
    Out.fail(std::to_string(Mismatches) + " of " +
             std::to_string(Candidates.size()) +
             " served names differ from LigerNamePredictor::predict");
  std::printf("autodiff name check: %zu of %zu equal\n",
              Candidates.size() - Mismatches, Candidates.size());
}

/// One request through the public entry points handleOn calls, in its
/// order, with a span around each call.
struct TracedResult {
  ServeStatus Status = ServeStatus::ParseError;
  std::vector<std::string> Names;
  bool Collected = false;
  CollectStats Collect;
  size_t Paths = 0, Executions = 0, Steps = 0;
};

TracedResult tracedHandle(SpanRecorder &Rec, const Request &Req,
                          const ExperimentScale &Scale, TraceCache *Cache,
                          LigerInference &Infer) {
  TracedResult R;
  ScopedSpan Root(Rec, "serve.request", Req.Id);
  DiagnosticSink Diags;
  std::optional<Program> Parsed;
  {
    ScopedSpan S(Rec, "lang.parseAndCheck", Req.Id, Root.index());
    Parsed = parseAndCheck(Req.Source, Diags);
  }
  if (!Parsed)
    return R;
  const FunctionDecl *Fn = Parsed->findFunction(Req.MethodName);
  if (!Fn || !Fn->Body) {
    R.Status = ServeStatus::NoSuchMethod;
    return R;
  }
  if (countStatements(Fn->Body) < 3) {
    R.Status = ServeStatus::TooSmall;
    return R;
  }

  TestGenOptions Gen = Scale.traceGenOptions();
  Gen.Seed = requestTraceSeed(Req.Source, Req.MethodName, Scale.Seed);
  int32_t Collect =
      Rec.begin("testgen.collectTracesCached", Req.Id, Root.index());
  MethodTraces Traces =
      collectTracesCached(*Parsed, *Fn, Req.Source, Gen, Cache, &R.Collect);
  Rec.end(Collect);
  Rec.addDerived(Collect,
                 {{"testgen.explore", R.Collect.ExploreSeconds},
                  {"testgen.symbolic", R.Collect.SymbolicSeconds},
                  {"testgen.mutate", R.Collect.MutateSeconds},
                  {"testgen.record", R.Collect.RecordSeconds},
                  {"testgen.replay", R.Collect.ReplaySeconds}});
  R.Collected = true;
  if (R.Collect.allTimedOut() || R.Collect.allMemoryExceeded() ||
      Traces.Paths.empty()) {
    R.Status = ServeStatus::NoTraces;
    return R;
  }
  R.Paths = Traces.Paths.size();
  R.Executions = Traces.totalExecutions();
  for (const BlendedTrace &Path : Traces.Paths)
    R.Steps += Path.Symbolic.length();
  {
    ScopedSpan S(Rec, "models.predictName", Req.Id, Root.index());
    R.Names = Infer.predictName(Traces);
  }
  R.Status = ServeStatus::Ok;
  return R;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double meanOf(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

void tracedServe(const RunConfig &Run, bool Warm, const ExperimentScale &Scale,
                 const ServeEngine &Engine,
                 const std::shared_ptr<TraceCache> &EngineCache,
                 const std::vector<Request> &Preload,
                 const std::vector<Request> &Reqs,
                 const std::vector<Completion> &Done, double UntracedP50,
                 Outcome &Out) {
  SpanRecorder Rec;

  // The corpus build inside ServeEngine set-up, on its own.
  {
    ExperimentScale CorpusScale = Scale;
    CorpusScale.CacheMode = TraceCacheMode::Full;
    CorpusScale.Cache = std::make_shared<TraceCache>(TraceCacheMode::Full, "");
    int32_t Span = Rec.begin("dataset.buildNameTask", -1);
    NameTask Task = buildNameTask(CorpusScale, /*Large=*/false);
    Rec.end(Span);
    Out.PerLayer["dataset.corpus_build_s"] = Rec.spans()[Span].millis() / 1e3;
    Out.PerLayer["dataset.explore_s"] = Task.Stats.PhaseExploreSeconds;
  }

  // The cache state the untraced run had: the hot set on warm, on cold
  // a fresh cache that then receives the same preload.
  std::shared_ptr<TraceCache> Cache =
      Warm ? EngineCache
           : std::make_shared<TraceCache>(TraceCacheMode::Full, "");
  LigerInference Infer(Engine.weightImage(), Engine.jointVocab(),
                       &Engine.targetVocab(), Engine.modelConfig());
  {
    SpanRecorder Discard;
    for (const Request &Req : Preload)
      tracedHandle(Discard, Req, Scale, Cache.get(), Infer);
  }
  const LigerInference::CacheStats Before = Infer.cacheStats();

  std::vector<char> Miss(Reqs.size(), 0);
  std::vector<double> Explore, Symbolic, Mutate, Record, Replay;
  double Attempts = 0, OkRuns = 0, Timeouts = 0, Seeds = 0, Hits = 0;
  double Collected = 0;
  std::vector<double> Paths, Execs, Steps;
  size_t Mismatches = 0;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    TracedResult T = tracedHandle(Rec, Reqs[I], Scale, Cache.get(), Infer);
    const ServeResponse &Served = Done[I].Resp;
    if (T.Status != Served.Status ||
        (T.Status == ServeStatus::Ok && T.Names != Served.NameSubtokens))
      ++Mismatches;
    if (!T.Collected)
      continue;
    const CollectStats &C = T.Collect;
    Collected += 1;
    Miss[I] = C.CacheMisses > 0;
    Attempts += C.Attempts;
    OkRuns += C.OkRuns;
    Timeouts += C.Timeouts;
    Seeds += C.SymbolicSeeds;
    Hits += C.CacheHits;
    Explore.push_back(C.ExploreSeconds * 1e3);
    Symbolic.push_back(C.SymbolicSeconds * 1e3);
    Mutate.push_back(C.MutateSeconds * 1e3);
    Record.push_back(C.RecordSeconds * 1e3);
    Replay.push_back(C.ReplaySeconds * 1e3);
    if (T.Status == ServeStatus::Ok) {
      Paths.push_back(double(T.Paths));
      Execs.push_back(double(T.Executions));
      Steps.push_back(double(T.Steps));
    }
  }
  if (Mismatches)
    Out.fail(std::to_string(Mismatches) +
             " traced pipeline results differ from ServeEngine::handle");

  // Durations per span name, self times per request.
  const std::vector<Span> &Spans = Rec.spans();
  std::vector<double> Self = Rec.selfMillis();
  std::vector<double> SelfSum(Reqs.size(), 0.0);
  std::vector<double> ParseMs, CollectMs, StoreMs, InferMs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Request < 0)
      continue;
    size_t Id = size_t(S.Request);
    SelfSum[Id] += Self[I];
    std::string Name = S.Name;
    if (Name == "lang.parseAndCheck")
      ParseMs.push_back(S.millis());
    else if (Name == "testgen.collectTracesCached") {
      CollectMs.push_back(S.millis());
      if (Miss[Id])
        StoreMs.push_back(Self[I]);
    } else if (Name == "models.predictName")
      InferMs.push_back(S.millis());
  }
  const LigerInference::CacheStats &After = Infer.cacheStats();
  double StmtHits = double(After.StmtHits - Before.StmtHits);
  double StmtMisses = double(After.StmtMisses - Before.StmtMisses);
  double StateHits = double(After.StateHits - Before.StateHits);
  double StateMisses = double(After.StateMisses - Before.StateMisses);

  double SelfP50 = median(SelfSum);
  auto &L = Out.PerLayer;
  L["harness.untraced_p50_ms"] = UntracedP50;
  L["harness.selftime_sum_p50_ms"] = SelfP50;
  L["harness.trace_overhead_ms"] = SelfP50 - UntracedP50;
  L["lang.parse_check_ms"] = median(ParseMs);
  L["testgen.collect_ms"] = median(CollectMs);
  L["testgen.explore_ms"] = median(Explore);
  L["testgen.symbolic_ms"] = median(Symbolic);
  L["testgen.mutate_ms"] = median(Mutate);
  L["testgen.record_ms"] = median(Record);
  L["testgen.store_ms"] = median(StoreMs);
  L["testgen.replay_ms"] = median(Replay);
  L["testgen.attempts"] = ratio(Attempts, Collected);
  L["testgen.ok_run_frac"] = ratio(OkRuns, Attempts);
  L["testgen.timeout_frac"] = ratio(Timeouts, Attempts);
  L["testgen.symbolic_seeds"] = ratio(Seeds, Collected);
  L["testgen.cache_hit_frac"] = ratio(Hits, Collected);
  L["trace.paths"] = meanOf(Paths);
  L["trace.concrete_execs"] = meanOf(Execs);
  L["trace.steps"] = meanOf(Steps);
  L["models.infer_ms"] = median(InferMs);
  L["models.stmt_cache_hit_frac"] = ratio(StmtHits, StmtHits + StmtMisses);
  L["models.state_cache_hit_frac"] = ratio(StateHits, StateHits + StateMisses);

  // Reported, not failed: on a shared host the two windows can see
  // different neighbour load, and that says nothing about the program.
  bool Within = std::fabs(SelfP50 - UntracedP50) <=
                SelfTimeTolerance * UntracedP50;
  std::printf("traced: %zu spans; summed self time p50 %.3f ms vs untraced "
              "latency p50 %.3f ms: %s the %.0f%% tolerance\n",
              Spans.size(), SelfP50, UntracedP50, Within ? "within" : "OUTSIDE",
              SelfTimeTolerance * 100);

  std::string Path = Run.OutDir + "/spans-" +
                     (Warm ? WarmSpec.Name : ColdSpec.Name) + "-seed" +
                     std::to_string(Run.Seed) + ".jsonl";
  if (Rec.writeJsonLines(Path))
    std::printf("spans written to %s\n", Path.c_str());
  else
    Out.fail("cannot write " + Path);
}

} // namespace

void runServe(const RunConfig &Run, bool Warm, Outcome &Out) {
  const ServeSpec &Spec = Warm ? WarmSpec : ColdSpec;
  const ExperimentScale Scale = paperScale(Run);
  // At most Cpus threads counting this generator thread.
  const size_t Callers = std::clamp<size_t>(Run.Cpus - 1, 1, 3);
  const size_t Count = size_t(std::llround(Spec.RatePerSec * Run.Seconds));

  // Set-up: ServeEngine construction (corpus rebuild for the
  // vocabularies, model init, weight image), repeated; the last
  // engine serves.
  std::shared_ptr<TraceCache> Cache;
  std::unique_ptr<ServeEngine> Engine;
  std::vector<double> SetupSeconds;
  for (size_t I = 0; I < SetupRepeats; ++I) {
    Engine.reset();
    Cache = std::make_shared<TraceCache>(TraceCacheMode::Full, "");
    ServeConfig Config;
    Config.Scale = Scale;
    Config.Scale.CacheMode = TraceCacheMode::Full;
    Config.Scale.Cache = Cache;
    Config.Workers = Callers;
    Clock::time_point Start = Clock::now();
    Engine = std::make_unique<ServeEngine>(Config);
    SetupSeconds.push_back(secondsSince(Start));
  }
  Out.EndToEnd["setup_s"] = median(SetupSeconds);

  // Untimed preload. Warm: the hot set (the first pass stores its
  // traces). Cold: distinct warm-up requests, once, so the embedding
  // caches and allocators are in their steady state when timing starts
  // while every timed request still misses the trace cache.
  std::vector<Request> Preload, Reqs;
  if (Warm) {
    Preload = hotSet(Run.Seed, HotCopiesPerBase * servableBases().size());
    Reqs = warmRequests(Run.Seed, Preload, Count, Spec.RatePerSec);
  } else {
    Preload = coldWarmup(Run.Seed, ColdWarmupCount);
    Reqs = coldRequests(Run.Seed, Count, Spec.RatePerSec);
  }
  // Each caller leases whichever engine is free, and every engine keeps
  // its own embedding caches, so the warm preload repeats (in a fresh
  // order each pass) until two passes in a row add no embedding-cache
  // miss on any engine.
  auto embeddingMisses = [&] {
    LigerInference::CacheStats C = Engine->stats().Embeddings;
    return C.StmtMisses + C.StateMisses;
  };
  Rng Shuffle(Run.Seed ^ 0x5A11ULL);
  size_t Passes = 0;
  for (size_t Quiet = 0; Passes < (Warm ? MaxHotPasses : 1) && Quiet < 2;
       ++Passes) {
    uint64_t MissesBefore = embeddingMisses();
    std::vector<size_t> Order(Preload.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    if (Passes > 0)
      Shuffle.shuffle(Order);
    std::vector<ServeRequest> Wire;
    for (size_t I : Order)
      Wire.push_back(toWire(Preload[I]));
    std::vector<ServeResponse> Resps = Engine->handleBatch(Wire);
    for (size_t K = 0; K < Resps.size(); ++K)
      if (!statusMatches(Resps[K].Status, Preload[Order[K]].Expect))
        Out.fail("preload request " + Preload[Order[K]].MethodName +
                 " got " + serveStatusName(Resps[K].Status));
    Quiet = Passes > 0 && embeddingMisses() == MissesBefore ? Quiet + 1 : 0;
  }
  std::printf("workload %s: %zu requests at %.0f/s on %zu callers, "
              "latency limit %.0f ms; preload %zu requests x %zu passes\n",
              Spec.Name, Reqs.size(), Spec.RatePerSec, Callers, Run.SloMs,
              Preload.size(), Passes);

  std::vector<Completion> Done = runOpenLoop(*Engine, Reqs, Callers);

  std::vector<double> Latency, QueueWait, Lease, GenLate;
  size_t InLimit = 0, Served = 0, CacheHits = 0, NonTerminating = 0;
  double LastDoneMs = 0;
  Out.Attempted = Reqs.size();
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const Completion &C = Done[I];
    double Ms = C.DoneMs - Reqs[I].DueMs;
    Latency.push_back(Ms);
    QueueWait.push_back(C.PickedMs - Reqs[I].DueMs);
    Lease.push_back(C.DoneMs - C.PickedMs - C.Resp.Millis);
    GenLate.push_back(C.EnqueuedMs - Reqs[I].DueMs);
    LastDoneMs = std::max(LastDoneMs, C.DoneMs);
    CacheHits += C.Resp.TraceCacheHit;
    NonTerminating += Reqs[I].Expect == Expected::NoTraces;
    if (!statusMatches(C.Resp.Status, Reqs[I].Expect)) {
      if (++Out.Failed <= 5)
        Out.fail(Reqs[I].MethodName + ": expected " +
                 expectedName(Reqs[I].Expect) + ", got " +
                 serveStatusName(C.Resp.Status) + " (" + C.Resp.Diagnostic +
                 ")");
      continue;
    }
    ++Served;
    InLimit += Ms <= Run.SloMs;
  }
  if (Out.Failed > 5)
    Out.fail(std::to_string(Out.Failed) + " requests had the wrong status");
  size_t WantHits = Warm ? Reqs.size() : 0;
  if (CacheHits != WantHits)
    Out.fail(std::to_string(CacheHits) + " trace-cache hits, expected " +
             std::to_string(WantHits));

  Tail T = tail(Latency);
  Out.EndToEnd["latency_p50_ms"] = median(Latency);
  Out.EndToEnd["latency_p99_ms"] = T.Value;
  Out.EndToEnd["slo_frac"] = double(InLimit) / double(Reqs.size());
  Out.EndToEnd["samples_per_s"] = double(Served) / (LastDoneMs / 1e3);
  std::printf("latency tail: p%.1f of %zu samples (%zu beyond); trace-cache "
              "hits %.1f%%; non-terminating %zu\n",
              T.Percentile * 100, T.Samples, T.Beyond,
              100.0 * double(CacheHits) / double(Reqs.size()), NonTerminating);

  // Before the checks, whose autodiff model is the harness's own.
  Out.EndToEnd["peak_rss_mb"] = peakRssMb();
  checkAgainstAutodiff(Run, Scale, *Engine, Reqs, Done, Out);

  Out.PerLayer["serve.queue_wait_p99_ms"] = tail(QueueWait).Value;
  Out.PerLayer["serve.lease_ms_p99"] = tail(Lease).Value;
  Out.PerLayer["harness.gen_late_p99_ms"] = tail(GenLate).Value;
  if (Run.Trace)
    tracedServe(Run, Warm, Scale, *Engine, Cache, Preload, Reqs, Done,
                median(Latency), Out);
}

} // namespace perfbench
