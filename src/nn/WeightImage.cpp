//===-- nn/WeightImage.cpp - Immutable serving weight image ----------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "nn/WeightImage.h"

#include "nn/Module.h"
#include "support/Error.h"

using namespace liger;

WeightImage WeightImage::fromStore(const ParamStore &Store) {
  WeightImage Img;
  const std::vector<Var> &Params = Store.params();
  const std::vector<std::string> &Names = Store.names();
  Img.Entries.reserve(Params.size());
  Img.Index.reserve(Params.size());
  Img.Data.reserve(Store.numScalars());
  StableHash H;
  H.addU64(Params.size());
  for (size_t I = 0; I < Params.size(); ++I) {
    const Tensor &T = Params[I]->Value;
    Entry E;
    E.Name = Names[I];
    E.Rank = static_cast<uint32_t>(T.rank());
    E.Dims[0] = T.dim(0);
    E.Dims[1] = T.rank() == 2 ? T.dim(1) : 1;
    E.Offset = Img.Data.size();
    E.Size = T.size();
    H.addString(E.Name);
    H.addU32(E.Rank);
    H.addU64(E.Dims[0]);
    H.addU64(E.Dims[1]);
    Img.Index.emplace(E.Name, I);
    Img.Entries.push_back(std::move(E));
    Img.Data.insert(Img.Data.end(), T.data(), T.data() + T.size());
  }
  H.addU64(Img.Data.size());
  H.addBytes(Img.Data.data(), Img.Data.size() * sizeof(float));
  Img.Version = H.digest128();
  return Img;
}

const WeightImage::Entry *WeightImage::find(const std::string &Name) const {
  auto It = Index.find(Name);
  return It == Index.end() ? nullptr : &Entries[It->second];
}

const float *WeightImage::tensor2d(const std::string &Name, size_t Rows,
                                   size_t Cols) const {
  const Entry *E = find(Name);
  LIGER_CHECK(E, "weight image: missing tensor");
  LIGER_CHECK(E->Rank == 2 && E->Dims[0] == Rows && E->Dims[1] == Cols,
              "weight image: tensor shape mismatch");
  return Data.data() + E->Offset;
}

const float *WeightImage::tensor1d(const std::string &Name, size_t N) const {
  const Entry *E = find(Name);
  LIGER_CHECK(E, "weight image: missing tensor");
  LIGER_CHECK(E->Size == N, "weight image: tensor size mismatch");
  return Data.data() + E->Offset;
}
