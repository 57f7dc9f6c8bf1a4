//===-- perfbench/tests/GeneratorTest.cpp - Workload generator test -------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The serve workloads' request lists: the same seed gives a
// byte-identical list and another seed a different one; cold sources
// are distinct; one in twenty is non-terminating; warm arrivals
// come from the hot set; and every request gets its expected status
// from a ServeEngine. Exits nonzero on the first failed expectation.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"
#include "Pipeline.h"

#include "lang/Parser.h"
#include "serve/Serve.h"

#include <cstdio>
#include <cstdlib>
#include <set>

using namespace perfbench;
using namespace liger;

namespace {

void expect(bool Cond, const char *What) {
  if (Cond)
    return;
  std::fprintf(stderr, "FAILED: %s\n", What);
  std::exit(1);
}

void expectServes(ServeEngine &Engine, const std::vector<Request> &Reqs) {
  for (const Request &Req : Reqs) {
    ServeRequest Wire;
    Wire.MethodName = Req.MethodName;
    Wire.Source = Req.Source;
    ServeResponse Resp = Engine.handle(Wire);
    ServeStatus Want = Req.Expect == Expected::Ok ? ServeStatus::Ok
                                                  : ServeStatus::NoTraces;
    if (Resp.Status != Want) {
      std::fprintf(stderr, "%s: expected %s, got %s (%s)\n%s\n",
                   Req.MethodName.c_str(), expectedName(Req.Expect),
                   serveStatusName(Resp.Status), Resp.Diagnostic.c_str(),
                   Req.Source.c_str());
      expect(false, "request served with its expected status");
    }
  }
}

} // namespace

int main() {
  expect(servableBases().size() >= 60, "most library variants are servable");

  // Determinism.
  std::string Cold1 = serializeRequests(coldRequests(1, 400, 100));
  expect(Cold1 == serializeRequests(coldRequests(1, 400, 100)),
         "same seed, byte-identical cold list");
  expect(Cold1 != serializeRequests(coldRequests(2, 400, 100)),
         "another seed, another cold list");
  std::vector<Request> Hot = hotSet(1, 64);
  std::string Warm1 = serializeRequests(warmRequests(1, Hot, 400, 300));
  expect(serializeRequests(Hot) == serializeRequests(hotSet(1, 64)),
         "same seed, byte-identical hot set");
  expect(Warm1 == serializeRequests(warmRequests(1, hotSet(1, 64), 400, 300)),
         "same seed, byte-identical warm list");
  expect(Warm1 != serializeRequests(warmRequests(2, hotSet(2, 64), 400, 300)),
         "another seed, another warm list");

  // Shape of the cold list: distinct sources on a fixed schedule,
  // 5% of them non-terminating, all passing the static serving filters.
  std::vector<Request> Cold = coldRequests(3, 2000, 100);
  std::set<std::string> Sources, Names;
  size_t Spin = 0;
  for (size_t I = 0; I < Cold.size(); ++I) {
    const Request &Req = Cold[I];
    Sources.insert(Req.Source);
    Names.insert(Req.MethodName);
    Spin += Req.Expect == Expected::NoTraces;
    expect(Req.Id == I && Req.DueMs == 10.0 * double(I),
           "cold arrivals every 1/rate seconds");
    DiagnosticSink Diags;
    std::optional<Program> Parsed = parseAndCheck(Req.Source, Diags);
    expect(Parsed.has_value(), "cold request parses");
    const FunctionDecl *Fn = Parsed->findFunction(Req.MethodName);
    expect(Fn && countStatements(Fn->Body) >= 3,
           "cold request has its method with >= 3 statements");
  }
  expect(Sources.size() == Cold.size() && Names.size() == Cold.size(),
         "cold sources and names are all distinct");
  expect(Spin * NonTerminatingEvery == Cold.size(),
         "one request in NonTerminatingEvery is non-terminating");

  std::vector<Request> Warm = warmRequests(3, Hot, 1000, 300);
  std::set<std::string> HotSources;
  for (const Request &Req : Hot) {
    HotSources.insert(Req.Source);
    expect(Req.Expect == Expected::Ok, "hot set holds servable methods");
  }
  for (const Request &Req : Warm)
    expect(HotSources.count(Req.Source) == 1, "warm arrival is in the hot set");

  // Every request is servable with its expected status (width does not
  // change the status, so the default scale keeps the test short).
  ServeConfig Config;
  Config.Workers = 0;
  ServeEngine Engine(Config);
  std::vector<Request> Sample(Cold.begin(), Cold.begin() + 200);
  expectServes(Engine, Sample);
  expectServes(Engine, Hot);

  std::printf("perfbench generator: all checks passed\n");
  return 0;
}
