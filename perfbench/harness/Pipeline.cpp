//===-- perfbench/harness/Pipeline.cpp - Serve pipeline pieces ------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "support/Casting.h"
#include "support/Hash.h"

using namespace liger;

namespace perfbench {

size_t countStatements(const Stmt *S) {
  if (!S)
    return 0;
  switch (S->kind()) {
  case StmtKind::Block: {
    size_t Total = 0;
    for (const Stmt *Child : cast<BlockStmt>(S)->body())
      Total += countStatements(Child);
    return Total;
  }
  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    return 1 + countStatements(If->thenStmt()) +
           countStatements(If->elseStmt());
  }
  case StmtKind::While:
    return 1 + countStatements(cast<WhileStmt>(S)->body());
  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    return 1 + countStatements(For->init()) + countStatements(For->step()) +
           countStatements(For->body());
  }
  default:
    return 1;
  }
}

uint64_t requestTraceSeed(const std::string &Source,
                          const std::string &MethodName, uint64_t Seed) {
  StableHash H;
  H.addString(Source);
  H.addString(MethodName);
  H.addU64(Seed);
  return H.digest();
}

} // namespace perfbench
