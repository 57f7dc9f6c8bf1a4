//===-- perfbench/harness/Generator.h - Seeded serve workloads --*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request lists for the serve workloads, made from the task library
/// and a seed only. The same seed gives a byte-identical list (see
/// serializeRequests); the program under test sees only the result.
///
/// Every request is a task-library variant instantiated under a unique
/// method name with seeded renames of the task's Renameable
/// identifiers, so its source text (and with it the trace-cache key and
/// the per-request trace seed) has never been seen before. A share of
/// the cold requests get the corpus generator's non-termination defect
/// (an infinite loop at body start); every run of such a method runs
/// out of fuel, so the expected status is no-traces.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include "dataset/Tasks.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The status a request must come back with.
enum class Expected { Ok, NoTraces };

const char *expectedName(Expected E);

struct Request {
  uint32_t Id = 0; ///< Position in the arrival order.
  std::string MethodName;
  std::string Source;
  Expected Expect = Expected::Ok;
  /// Arrival time, in milliseconds from the start of the timed window.
  double DueMs = 0;
};

/// A task-library variant the serving filters accept: it parses,
/// typechecks and has at least the corpus's three statements.
struct BaseMethod {
  const liger::TaskSpec *Task = nullptr;
  size_t Variant = 0;
};

/// Every servable variant of the task library, in library order.
const std::vector<BaseMethod> &servableBases();

/// One serve_cold request in this many never terminates: 5%, Table 1's
/// "takes too long" filter rate.
constexpr size_t NonTerminatingEvery = 20;

/// serve_cold: \p Count distinct never-seen sources arriving at a fixed
/// \p RatePerSec. Each whole round of servableBases().size() requests
/// uses every base once, and each block of NonTerminatingEvery holds
/// one non-terminating request.
std::vector<Request> coldRequests(uint64_t Seed, size_t Count,
                                  double RatePerSec);

/// Requests served before serve_cold's timed window, so the engines'
/// embedding caches and allocators reach their steady state. Drawn like
/// coldRequests but named apart, so no timed request can hit their
/// trace-cache entries.
std::vector<Request> coldWarmup(uint64_t Seed, size_t Count);

/// The serve_warm hot set: \p Size distinct servable sources cycling
/// through the bases like coldRequests, none non-terminating. DueMs is
/// unused (the hot set is loaded before timing).
std::vector<Request> hotSet(uint64_t Seed, size_t Size);

/// serve_warm arrivals at a fixed \p RatePerSec: rounds over \p Hot,
/// each a fresh shuffle of it. Each arrival copies its hot entry.
std::vector<Request> warmRequests(uint64_t Seed, const std::vector<Request> &Hot,
                                  size_t Count, double RatePerSec);

/// A byte-exact rendering of \p Requests (the determinism test compares
/// these).
std::string serializeRequests(const std::vector<Request> &Requests);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
