//===-- perfbench/harness/Spans.cpp - In-memory span recorder -------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : Origin(Clock::now()) { Spans.reserve(1 << 16); }

int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

int32_t SpanRecorder::begin(const char *Name, int64_t Request,
                            int32_t Parent) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Parent;
  S.StartNs = nowNs();
  Spans.push_back(S);
  return static_cast<int32_t>(Spans.size() - 1);
}

void SpanRecorder::end(int32_t Index) { Spans[size_t(Index)].EndNs = nowNs(); }

void SpanRecorder::addDerived(
    int32_t Parent,
    const std::vector<std::pair<const char *, double>> &Phases) {
  const Span P = Spans[size_t(Parent)];
  int64_t Cursor = P.StartNs;
  for (const auto &[Name, Seconds] : Phases) {
    if (Seconds <= 0)
      continue;
    Span S;
    S.Name = Name;
    S.Request = P.Request;
    S.Parent = Parent;
    S.Derived = true;
    S.StartNs = Cursor;
    S.EndNs = std::min(P.EndNs, Cursor + int64_t(Seconds * 1e9));
    Cursor = S.EndNs;
    Spans.push_back(S);
  }
}

std::vector<double> SpanRecorder::selfMillis() const {
  // Children's intervals per parent, then parent duration minus the
  // union of its children's intervals clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[size_t(S.Parent)].push_back({S.StartNs, S.EndNs});

  std::vector<double> Out(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<std::pair<int64_t, int64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (auto [Lo, Hi] : C) {
      Lo = std::max(Lo, Reach);
      Hi = std::min(Hi, S.EndNs);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    Out[I] = double(S.EndNs - S.StartNs - Covered) * 1e-6;
  }
  return Out;
}

bool SpanRecorder::writeJsonLines(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<double> Self = selfMillis();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %lld, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ms\": %.6f, \"derived\": %s}\n",
                 I, S.Name, (long long)S.Request, S.Parent, (long long)S.StartNs,
                 (long long)S.EndNs, Self[I], S.Derived ? "true" : "false");
  }
  return std::fclose(F) == 0;
}

} // namespace perfbench
