//===-- perfbench/harness/Generator.cpp - Seeded serve workloads ----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"

#include "Pipeline.h"
#include "lang/Parser.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace liger;

namespace perfbench {

const char *expectedName(Expected E) {
  return E == Expected::Ok ? "ok" : "no-traces";
}

const std::vector<BaseMethod> &servableBases() {
  static const std::vector<BaseMethod> Bases = [] {
    std::vector<BaseMethod> Out;
    for (const TaskSpec &Task : taskLibrary())
      for (size_t V = 0; V < Task.Variants.size(); ++V) {
        std::string Source =
            replaceIdentifier(Task.Variants[V].Source, "FN", "probe");
        DiagnosticSink Diags;
        std::optional<Program> Parsed = parseAndCheck(Source, Diags);
        if (!Parsed)
          continue;
        const FunctionDecl *Fn = Parsed->findFunction("probe");
        if (Fn && Fn->Body && countStatements(Fn->Body) >= 3)
          Out.push_back({&Task, V});
      }
    return Out;
  }();
  return Bases;
}

namespace {

Rng seededRng(uint64_t Seed, uint64_t Salt) {
  StableHash H;
  H.addU64(Seed);
  H.addU64(Salt);
  return Rng(H.digest());
}

/// The corpus generator's NonTermination defect (dataset/Corpus.cpp).
std::string injectSpin(std::string Source) {
  size_t Brace = Source.find('{', Source.find("FN("));
  Source.insert(Brace + 1, "\n  int spin3 = 0;\n  while (spin3 == 0) { "
                           "spin3 = spin3 * 1; }");
  return Source;
}

/// A fresh instance of \p Base: method named from the task's synonym
/// sets plus \p Tag and \p Id (unique within a list), and each
/// Renameable identifier renamed with probability one half.
Request instantiate(const BaseMethod &Base, uint32_t Id, char Tag,
                    bool NonTerminating, Rng &R) {
  const TaskSpec &Task = *Base.Task;
  std::vector<std::string> Parts;
  for (const std::vector<std::string> &Synonyms : Task.NameParts)
    Parts.push_back(R.pick(Synonyms));

  Request Req;
  Req.Id = Id;
  Req.MethodName = camelCaseJoin(Parts) + Tag + std::to_string(Id);
  std::string Source = Task.Variants[Base.Variant].Source;
  if (NonTerminating)
    Source = injectSpin(std::move(Source));
  for (const std::string &Ident : Task.Renameable)
    if (R.nextBool())
      Source = replaceIdentifier(Source, Ident,
                                 Ident + std::to_string(R.nextBelow(1000)));
  Req.Source = replaceIdentifier(Source, "FN", Req.MethodName);
  Req.Expect = NonTerminating ? Expected::NoTraces : Expected::Ok;
  return Req;
}

/// Indices 0..N-1 in rounds, each round freshly shuffled: whole rounds
/// hold every index equally often, so every seed gets the same mix of
/// methods and only their order and renames differ.
class ShuffledRounds {
public:
  ShuffledRounds(size_t N, Rng &R) : Order(N), Pos(N), R(R) {
    for (size_t I = 0; I < N; ++I)
      Order[I] = I;
  }
  size_t next() {
    if (Pos == Order.size()) {
      R.shuffle(Order);
      Pos = 0;
    }
    return Order[Pos++];
  }

private:
  std::vector<size_t> Order;
  size_t Pos;
  Rng &R;
};

/// Distinct sources cycling through the servable bases; one request
/// in each block of NonTerminatingEvery, at a seeded position, gets the
/// non-termination defect.
std::vector<Request> distinctRequests(Rng R, size_t Count, double RatePerSec,
                                      char Tag) {
  const std::vector<BaseMethod> &Bases = servableBases();
  ShuffledRounds Pick(Bases.size(), R);
  std::vector<Request> Out;
  Out.reserve(Count);
  size_t SpinSlot = 0;
  for (size_t I = 0; I < Count; ++I) {
    if (I % NonTerminatingEvery == 0)
      SpinSlot = R.nextBelow(NonTerminatingEvery);
    bool Spin = I % NonTerminatingEvery == SpinSlot;
    Out.push_back(instantiate(Bases[Pick.next()], static_cast<uint32_t>(I),
                              Tag, Spin, R));
    Out.back().DueMs = 1000.0 * static_cast<double>(I) / RatePerSec;
  }
  return Out;
}

} // namespace

std::vector<Request> coldRequests(uint64_t Seed, size_t Count,
                                  double RatePerSec) {
  return distinctRequests(seededRng(Seed, 0xC01D), Count, RatePerSec, 'C');
}

std::vector<Request> coldWarmup(uint64_t Seed, size_t Count) {
  return distinctRequests(seededRng(Seed, 0x3A3), Count, 1.0, 'W');
}

std::vector<Request> hotSet(uint64_t Seed, size_t Size) {
  const std::vector<BaseMethod> &Bases = servableBases();
  Rng R = seededRng(Seed, 0x407);
  ShuffledRounds Pick(Bases.size(), R);
  std::vector<Request> Out;
  Out.reserve(Size);
  for (size_t I = 0; I < Size; ++I)
    Out.push_back(instantiate(Bases[Pick.next()], static_cast<uint32_t>(I),
                              'H', false, R));
  return Out;
}

std::vector<Request> warmRequests(uint64_t Seed,
                                  const std::vector<Request> &Hot,
                                  size_t Count, double RatePerSec) {
  Rng R = seededRng(Seed, 0x3A53);
  ShuffledRounds Pick(Hot.size(), R);
  std::vector<Request> Out;
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    Request Req = Hot[Pick.next()];
    Req.Id = static_cast<uint32_t>(I);
    Req.DueMs = 1000.0 * static_cast<double>(I) / RatePerSec;
    Out.push_back(std::move(Req));
  }
  return Out;
}

std::string serializeRequests(const std::vector<Request> &Requests) {
  std::string Out;
  char Line[128];
  for (const Request &Req : Requests) {
    std::snprintf(Line, sizeof(Line), "%u %s %.17g %zu ", Req.Id,
                  expectedName(Req.Expect), Req.DueMs, Req.Source.size());
    Out += Line;
    Out += Req.MethodName;
    Out += '\n';
    Out += Req.Source;
    Out += '\n';
  }
  return Out;
}

} // namespace perfbench
