//===-- perfbench/harness/TrainWorkload.cpp - train_h100 ------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// trainNameModel on the default method-name corpus with the
// TrainOptions defaults the experiment binaries run, at hidden 100 and
// min(4, nproc) threads. The workload seed picks the model's initial
// weights. The corpus and the sample order are the experiment defaults,
// so every seed does the same work: the per-sample threads of a
// mini-batch wait for its slowest sample, and a seeded order would make
// that wait differ from seed to seed.
//
// The traced run re-does the first epoch serially through the public
// pieces runEpoch is made of (the model's loss, backward,
// ParamStore::accumulateSink, Adam::step), with a span around each, and
// checks that its epoch loss is bitwise the trainer's.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "nn/GraphArena.h"
#include "serve/Serve.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

using namespace liger;

namespace perfbench {

namespace {

constexpr size_t SetupRepeats = 9;
/// About the length of one default training on a 4-core host; the run
/// does round(--seconds / this) trainings, at least one.
constexpr double TrainingSeconds = 15;

double millisBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

NameModelHooks hooksFor(LigerNamePredictor &Net) {
  NameModelHooks Hooks;
  Hooks.Loss = [&Net](const MethodSample &S) { return Net.loss(S); };
  Hooks.LossBatch = [&Net](const std::vector<const MethodSample *> &Group) {
    return Net.lossBatch(Group);
  };
  Hooks.Predict = [&Net](const MethodSample &S) { return Net.predict(S); };
  Hooks.Params = &Net.params();
  return Hooks;
}

struct Training {
  double FinalLoss = 0;
  /// Wall time between consecutive optimizer steps of one epoch (the
  /// first step of each epoch follows validation and is left out).
  std::vector<double> StepMs;
  /// Training samples per second of each epoch after the first,
  /// measured from the previous epoch's last step to this epoch's last
  /// step: one validation pass plus one training epoch, the same work
  /// for every such epoch.
  std::vector<double> EpochRates;
};

Training train(const NameTask &Task, const LigerConfig &Config,
               TrainOptions Opts, uint64_t Seed) {
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Seed);
  Training T;
  Clock::time_point Last;
  size_t LastEpoch = SIZE_MAX;
  std::vector<Clock::time_point> EpochEnd(Opts.Epochs);
  Opts.StepHook = [&](size_t Epoch, size_t Batch) {
    Clock::time_point Now = Clock::now();
    if (Batch > 0 && Epoch == LastEpoch)
      T.StepMs.push_back(millisBetween(Last, Now));
    Last = Now;
    LastEpoch = Epoch;
    EpochEnd[Epoch] = Now;
  };
  TrainResult R =
      trainNameModel(hooksFor(Net), Task.Split.Train, Task.Split.Valid, Opts);
  T.FinalLoss = R.FinalTrainLoss;
  for (size_t E = 1; E < Opts.Epochs; ++E)
    T.EpochRates.push_back(double(Task.Split.Train.size()) * 1e3 /
                           millisBetween(EpochEnd[E - 1], EpochEnd[E]));
  return T;
}

uint64_t bitsOf(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

/// Final and first-epoch losses of a seed must repeat bitwise across
/// runs of the same code: the first run records them, later ones
/// compare.
void checkLedger(const RunConfig &Run, double Final, double Epoch1,
                 Outcome &Out) {
  std::string Key;
  for (char C : Run.Commit)
    Key += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  std::string Path = Run.OutDir + "/train-loss-" + Key + "-seed" +
                     std::to_string(Run.Seed) + ".txt";
  char Line[64];
  std::snprintf(Line, sizeof(Line), "%016" PRIx64 " %016" PRIx64 "\n",
                bitsOf(Final), bitsOf(Epoch1));
  if (FILE *F = std::fopen(Path.c_str(), "r")) {
    char Prev[64] = {0};
    bool Read = std::fgets(Prev, sizeof(Prev), F) != nullptr;
    std::fclose(F);
    if (!Read || std::strcmp(Prev, Line) != 0)
      Out.fail("training losses differ from an earlier run of this seed "
               "(" + Path + ")");
    return;
  }
  if (FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fputs(Line, F);
    std::fclose(F);
  }
}

/// The first epoch of runEpoch / runEpochBatched (whichever the options
/// select), serially, with spans. Returns the epoch's mean loss.
double tracedEpoch(SpanRecorder &Rec, const NameTask &Task,
                   const LigerConfig &Config, const TrainOptions &Opts,
                   uint64_t Seed, std::vector<double> &PeakNodes) {
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Seed);
  ParamStore &Store = Net.params();
  AdamOptions AdamOpts;
  AdamOpts.LearningRate = Opts.LearningRate;
  AdamOpts.ClipNorm = Opts.ClipNorm;
  Adam Opt(Store, AdamOpts);
  Rng R(Opts.Seed);

  const std::vector<MethodSample> &Train = Task.Split.Train;
  std::vector<size_t> Order(Train.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  R.shuffle(Order);

  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  const size_t Units =
      Opts.BatchedSamples ? std::max<size_t>(1, Opts.LockstepShards)
                          : std::min(Opts.BatchSize, Order.size());
  std::vector<GradSink> Sinks(Units);
  std::vector<double> UnitLoss(Units);

  double EpochLoss = 0;
  int64_t Step = 0;
  for (size_t Begin = 0; Begin < Order.size(); Begin += Opts.BatchSize, ++Step) {
    ScopedSpan StepSpan(Rec, "eval.step", Step);
    size_t B = std::min(Order.size(), Begin + Opts.BatchSize) - Begin;
    size_t S = Opts.BatchedSamples ? std::min(Units, B) : B;
    for (size_t K = 0; K < S; ++K) {
      Sinks[K].clear();
      Var Loss;
      {
        ScopedSpan LossSpan(Rec, "models.loss", Step, StepSpan.index());
        if (Opts.BatchedSamples) {
          size_t Lo = K * B / S, Hi = (K + 1) * B / S;
          std::vector<const MethodSample *> Group;
          for (size_t I = Lo; I < Hi; ++I)
            Group.push_back(&Train[Order[Begin + I]]);
          std::vector<Var> Losses = Net.lossBatch(Group);
          UnitLoss[K] = 0;
          for (const Var &L : Losses)
            UnitLoss[K] += static_cast<double>(L->Value[0]);
          Loss = sumV(stackScalars(Losses));
        } else {
          Loss = Net.loss(Train[Order[Begin + K]]);
          UnitLoss[K] = static_cast<double>(Loss->Value[0]);
        }
      }
      {
        ScopedSpan BackSpan(Rec, "nn.backward", Step, StepSpan.index());
        backward(Loss, Sinks[K]);
      }
      PeakNodes.push_back(double(Arena.numLive()));
      Arena.reset();
    }
    {
      ScopedSpan ReduceSpan(Rec, "nn.accumulateSink", Step, StepSpan.index());
      for (size_t K = 0; K < S; ++K) {
        Store.accumulateSink(Sinks[K]);
        EpochLoss += UnitLoss[K];
      }
    }
    {
      ScopedSpan AdamSpan(Rec, "nn.adam", Step, StepSpan.index());
      Store.scaleGrads(1.0f / static_cast<float>(B));
      Opt.step();
    }
  }
  return Order.empty() ? 0.0 : EpochLoss / static_cast<double>(Order.size());
}

void tracedTrain(const RunConfig &Run, const NameTask &Task,
                 const LigerConfig &Config, const TrainOptions &Opts,
                 double Epoch1Loss, double ThreadedStepMs,
                 double SerialStepMs, Outcome &Out) {
  SpanRecorder Rec;
  std::vector<double> Nodes;
  double Loss = tracedEpoch(Rec, Task, Config, Opts, Run.Seed, Nodes);
  if (bitsOf(Loss) != bitsOf(Epoch1Loss))
    Out.fail("traced serial epoch loss differs from trainNameModel's");

  // Per step: summed time of each layer's spans, and the step's total.
  std::map<std::string, std::vector<double>> PerStep;
  std::vector<double> StepTotal;
  const std::vector<Span> &Spans = Rec.spans();
  std::vector<double> Self = Rec.selfMillis();
  for (size_t I = 0; I < Spans.size(); ++I) {
    size_t Step = size_t(Spans[I].Request);
    if (Spans[I].Parent < 0) {
      StepTotal.resize(std::max(StepTotal.size(), Step + 1));
      continue;
    }
    std::vector<double> &V = PerStep[Spans[I].Name];
    V.resize(std::max(V.size(), Step + 1));
    V[Step] += Spans[I].millis();
  }
  for (size_t I = 0; I < Spans.size(); ++I)
    StepTotal[size_t(Spans[I].Request)] += Self[I];

  double TracedStep = median(StepTotal);
  auto &L = Out.PerLayer;
  L["models.loss_ms"] = median(PerStep["models.loss"]);
  L["nn.backward_ms"] = median(PerStep["nn.backward"]);
  L["nn.reduce_ms"] = median(PerStep["nn.accumulateSink"]);
  L["nn.adam_ms"] = median(PerStep["nn.adam"]);
  L["nn.peak_graph_nodes"] =
      Nodes.empty() ? 0 : *std::max_element(Nodes.begin(), Nodes.end());
  L["eval.pool_speedup"] = TracedStep / ThreadedStepMs;
  L["harness.untraced_p50_ms"] = SerialStepMs;
  L["harness.selftime_sum_p50_ms"] = TracedStep;
  L["harness.trace_overhead_ms"] = TracedStep - SerialStepMs;
  std::printf("traced: %zu spans; serial step p50 %.3f ms traced vs %.3f ms "
              "untraced; threaded step p50 %.3f ms\n",
              Spans.size(), TracedStep, SerialStepMs, ThreadedStepMs);

  std::string Path = Run.OutDir + "/spans-train_h100-seed" +
                     std::to_string(Run.Seed) + ".jsonl";
  if (Rec.writeJsonLines(Path))
    std::printf("spans written to %s\n", Path.c_str());
  else
    Out.fail("cannot write " + Path);
}

} // namespace

void runTrain(const RunConfig &Run, Outcome &Out) {
  const ExperimentScale Scale = paperScale(Run);
  const LigerConfig Config = serveLigerConfig(Scale);
  const TrainOptions Opts = Scale.trainOptions();

  // Set-up: corpus build (trace construction) plus model init.
  std::unique_ptr<NameTask> Task;
  std::vector<double> SetupSeconds, BuildSeconds;
  for (size_t I = 0; I < SetupRepeats; ++I) {
    Task.reset();
    Clock::time_point Start = Clock::now();
    Task = std::make_unique<NameTask>(buildNameTask(Scale, /*Large=*/false));
    Clock::time_point Built = Clock::now();
    LigerNamePredictor Net(Task->Joint, Task->Target, Config, Run.Seed);
    Clock::time_point End = Clock::now();
    BuildSeconds.push_back(millisBetween(Start, Built) / 1e3);
    SetupSeconds.push_back(millisBetween(Start, End) / 1e3);
  }
  Out.EndToEnd["setup_s"] = median(SetupSeconds);
  std::printf("workload train_h100: %zu train / %zu valid samples, %zu "
              "epochs, batch %zu, %zu threads, batched samples %s\n",
              Task->Split.Train.size(), Task->Split.Valid.size(), Opts.Epochs,
              Opts.BatchSize, Opts.Threads, Opts.BatchedSamples ? "on" : "off");

  // Whole default trainings from fresh initialisation, as many as fill
  // the window on the reference host; a count fixed by --seconds, not
  // by how fast this run goes, keeps the work equal across runs. Peak
  // RSS is taken after the first, since each can grow the buffer pools.
  const size_t Trainings =
      std::max<size_t>(1, size_t(std::lround(Run.Seconds / TrainingSeconds)));
  std::vector<Training> Runs;
  double PeakRss = 0;
  for (size_t I = 0; I < Trainings; ++I) {
    Runs.push_back(train(*Task, Config, Opts, Run.Seed));
    if (I == 0)
      PeakRss = peakRssMb();
  }

  std::vector<double> StepMs, EpochRates;
  for (const Training &T : Runs) {
    StepMs.insert(StepMs.end(), T.StepMs.begin(), T.StepMs.end());
    EpochRates.insert(EpochRates.end(), T.EpochRates.begin(),
                      T.EpochRates.end());
    if (bitsOf(T.FinalLoss) != bitsOf(Runs.front().FinalLoss))
      Out.fail("final loss differs between trainings of one seed");
  }
  size_t InLimit = 0;
  for (double Ms : StepMs)
    InLimit += Ms <= Run.SloMs;
  Out.Attempted = StepMs.size();
  // The tail percentile one training supports, applied to every step.
  Tail T = tail(Runs.front().StepMs);
  Out.EndToEnd["samples_per_s"] = median(EpochRates);
  Out.EndToEnd["latency_p50_ms"] = median(StepMs);
  Out.EndToEnd["latency_p99_ms"] = percentile(StepMs, T.Percentile);
  Out.EndToEnd["slo_frac"] = double(InLimit) / double(StepMs.size());
  Out.EndToEnd["peak_rss_mb"] = PeakRss;
  std::printf("%zu training(s), %zu epoch rates; step-time tail: p%.1f of "
              "%zu samples\n",
              Runs.size(), EpochRates.size(), T.Percentile * 100,
              StepMs.size());

  // Output checks against a one-epoch training of the same seed (serial
  // in the traced run, where its step times are the untraced serial
  // reference; the trainer is bitwise the same at any thread count).
  TrainOptions OneEpoch = Opts;
  OneEpoch.Epochs = 1;
  if (Run.Trace)
    OneEpoch.Threads = 1;
  Training First = train(*Task, Config, OneEpoch, Run.Seed);
  double Final = Runs.front().FinalLoss;
  std::printf("loss: epoch 1 %.9g, final %.9g\n", First.FinalLoss, Final);
  if (!std::isfinite(Final))
    Out.fail("final training loss is not finite");
  else if (!(Final < First.FinalLoss))
    Out.fail("final training loss is not below the first epoch's");
  checkLedger(Run, Final, First.FinalLoss, Out);

  Out.PerLayer["dataset.corpus_build_s"] = median(BuildSeconds);
  Out.PerLayer["dataset.explore_s"] = Task->Stats.PhaseExploreSeconds;
  if (Run.Trace)
    tracedTrain(Run, *Task, Config, Opts, First.FinalLoss, median(StepMs),
                median(First.StepMs), Out);
}

} // namespace perfbench
