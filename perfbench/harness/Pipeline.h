//===-- perfbench/harness/Pipeline.h - Serve pipeline pieces ----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two pieces of ServeEngine::handleOn that are private to
/// serve/Serve.cpp but that the benchmark needs to rebuild the pipeline
/// from public entry points: the corpus's statement-count filter and
/// the per-request trace seed. Both must stay identical to the serving
/// code; the traced run's name and status checks fail if they drift.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "lang/Ast.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Trace-level statement count (the "too small" filter counts < 3).
size_t countStatements(const liger::Stmt *S);

/// StableHash(source, method, seed): the trace seed ServeEngine gives a
/// request, so repeated requests key identically into the trace cache.
uint64_t requestTraceSeed(const std::string &Source,
                          const std::string &MethodName, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
