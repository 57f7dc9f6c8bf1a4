//===-- nn/WeightImage.h - Immutable serving weight image -------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An immutable, flat snapshot of a ParamStore's parameters for the
/// forward-only inference runtime (models/Inference.h): one contiguous
/// float buffer plus a name -> {offset, shape} index, with a 128-bit
/// content digest that doubles as the parameter version for the
/// serving-side embedding caches (DESIGN.md §13).
///
/// The image lives in memory only. Serving restores weights through the
/// LGCK checkpoint (nn/Checkpoint.h) into a ParamStore and snapshots it
/// with fromStore(); the image carries values only and never touches
/// graph Nodes — readers get raw const float* into the buffer.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_WEIGHTIMAGE_H
#define LIGER_NN_WEIGHTIMAGE_H

#include "support/Hash.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace liger {

class ParamStore;

/// Flat, immutable parameter snapshot. Copyable/movable value type;
/// all accessors are const and safe to share across serve workers.
class WeightImage {
public:
  struct Entry {
    std::string Name;
    uint32_t Rank = 0;      ///< 1 or 2.
    size_t Dims[2] = {0, 0}; ///< Dims[1] == 1 for rank-1 tensors.
    size_t Offset = 0;       ///< First float in the flat buffer.
    size_t Size = 0;         ///< Total floats (product of dims).
  };

  WeightImage() = default;

  /// Snapshots every parameter of \p Store (store order preserved).
  static WeightImage fromStore(const ParamStore &Store);

  /// Null when \p Name is not present.
  const Entry *find(const std::string &Name) const;

  /// The named tensor's floats; fatal (LIGER_CHECK) on a missing name
  /// or shape mismatch — binding errors are bugs, not inputs.
  const float *tensor2d(const std::string &Name, size_t Rows,
                        size_t Cols) const;
  const float *tensor1d(const std::string &Name, size_t N) const;

  /// Content digest over names, shapes, and raw float bits — the
  /// parameter version key for serving-side embedding caches.
  const Digest128 &version() const { return Version; }

private:
  std::vector<float> Data;
  std::vector<Entry> Entries;
  std::unordered_map<std::string, size_t> Index;
  Digest128 Version{};
};

} // namespace liger

#endif // LIGER_NN_WEIGHTIMAGE_H
