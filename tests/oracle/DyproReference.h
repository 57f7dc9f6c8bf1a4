//===-- oracle/DyproReference.h - Reference DYPRO encode --------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference of DyproEncoder::encode: every state of every
/// consumed trace embedded by its own f1 chain per object value and its
/// own f2 chain over the (name ⊕ value) inputs, with no state cache and
/// no prefix trie. The production encoder shares one trie node per
/// distinct prefix; its forward values must match this chain-per-state
/// walk bit for bit.
///
/// Like the other oracles it binds the encoder's parameters by name
/// (`dypro.embed`, `dypro.f1`, `dypro.f2`, `dypro.trace`) and builds
/// its cells with ReferenceCell, so it needs GRU or LSTM cells.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TESTS_ORACLE_DYPROREFERENCE_H
#define LIGER_TESTS_ORACLE_DYPROREFERENCE_H

#include "models/Dypro.h"

namespace liger::oracle {

/// Reference of DyproEncoder::encode over the parameters in \p Store.
DyproEncoder::Encoding referenceDyproEncode(const ParamStore &Store,
                                            const Vocabulary &Vocab,
                                            const DyproConfig &Config,
                                            const MethodTraces &Traces);

} // namespace liger::oracle

#endif // LIGER_TESTS_ORACLE_DYPROREFERENCE_H
