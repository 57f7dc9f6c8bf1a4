//===-- models/StateTrie.cpp - Shared f1/f2 state-embedding walk ----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/StateTrie.h"

using namespace liger;

std::string
liger::stateKey(size_t MaxFlattenedValues, const ProgramState &State,
                std::vector<std::vector<std::string>> &ValueTokens) {
  std::string Key;
  ValueTokens.reserve(State.Values.size());
  for (const Value &V : State.Values) {
    bool IsObject = V.isArray() || V.isStruct();
    if (IsObject) {
      std::vector<std::string> Tokens = valueTokens(V);
      if (Tokens.size() > MaxFlattenedValues)
        Tokens.resize(MaxFlattenedValues);
      ValueTokens.push_back(std::move(Tokens));
    } else {
      ValueTokens.push_back({valueToken(V)});
    }
    // The kind tag keeps the key injective: a primitive embeds its
    // token directly while an object runs f1 over its flattening, so
    // int 5 and the one-element array [5] — identical token streams —
    // must not share an entry.
    Key += IsObject ? 'O' : 'P';
    for (const std::string &Token : ValueTokens.back()) {
      Key += Token;
      Key += '\x1f'; // token separator
    }
    Key += '\x1e'; // value separator (tokens can't merge across values)
  }
  return Key;
}
