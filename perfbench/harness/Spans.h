//===-- perfbench/harness/Spans.h - In-memory span recorder -----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans for the traced run: name, start, end, parent and request id,
/// recorded by the benchmark around its calls into each module's public
/// entry point, kept in memory and written out as JSON lines at exit.
///
/// A span's self time is its duration minus the part of it that its
/// child spans cover, so the self times of one request's spans sum to
/// the duration of its root span.
///
/// Some layers report a phase breakdown only as durations
/// (CollectStats's per-phase seconds). Those become derived child spans,
/// laid back to back from the parent's start; their start and end are
/// placements, only their lengths are measured.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char *Name = ""; ///< Static string: "<module>.<entry point>".
  int64_t StartNs = 0;   ///< From the recorder's origin.
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the parent span, -1 for a root.
  int64_t Request = 0; ///< -1 for set-up work outside any request.
  bool Derived = false; ///< Placed from a reported duration.

  double millis() const { return double(EndNs - StartNs) * 1e-6; }
};

class SpanRecorder {
public:
  SpanRecorder();

  /// Opens a span now; returns its index.
  int32_t begin(const char *Name, int64_t Request, int32_t Parent = -1);
  /// Closes span \p Index now.
  void end(int32_t Index);
  /// Adds derived children of \p Parent with the given durations (in
  /// seconds), back to back from the parent's start. Zero durations
  /// add nothing.
  void addDerived(int32_t Parent,
                  const std::vector<std::pair<const char *, double>> &Phases);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span, in milliseconds, index-aligned with
  /// spans().
  std::vector<double> selfMillis() const;

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool writeJsonLines(const std::string &Path) const;

private:
  int64_t nowNs() const;

  Clock::time_point Origin;
  std::vector<Span> Spans;
};

/// RAII span on a recorder.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const char *Name, int64_t Request,
             int32_t Parent = -1)
      : Rec(Rec), Index(Rec.begin(Name, Request, Parent)) {}
  ~ScopedSpan() { Rec.end(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int32_t index() const { return Index; }

private:
  SpanRecorder &Rec;
  int32_t Index;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
