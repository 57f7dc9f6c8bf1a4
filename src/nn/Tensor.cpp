//===-- nn/Tensor.cpp - Thread-local tensor buffer pool --------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The freelist behind Tensor storage. Each thread owns a pool keyed by
// size class. Below 1024 floats a class is one exact element count:
// training and inference cycle through a small, fixed set of vector
// shapes (hidden sizes, vocabulary widths). Larger buffers are mostly
// lockstep batch payloads ([lanes x k*H] for every live lane count), so
// each power of two is split into 8 classes and a request takes the
// smallest class that holds it: at most 12.5% of a buffer is slack, and
// the pool keeps a few classes per power of two instead of one freelist
// per lane count. Under AddressSanitizer the slack is poisoned while
// the buffer is out, so a write past a tensor's end is still caught.
//
// Buffers may be released on a different thread than the one that
// acquired them (the epoch loop reduces worker-produced gradient
// tensors on the main thread); a released buffer simply joins the
// releasing thread's freelist. A per-thread cap bounds drift from such
// migration, and a destroyed-pool flag keeps releases that happen
// during thread teardown (thread_local destruction order is
// unspecified across translation units) safe by falling back to plain
// delete[].
//
//===----------------------------------------------------------------------===//

#include "nn/Tensor.h"

#include <bit>
#include <new>
#include <unordered_map>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

using namespace liger;

namespace {

/// Per-thread cap on cached bytes; beyond it, released buffers are
/// freed eagerly. Bounds freelist growth when buffers migrate between
/// threads (worker-allocated gradients released by the main thread).
constexpr size_t PoolCapBytes = size_t(128) << 20;

/// Every pool buffer starts on a cache-line boundary, so an 8-lane
/// vector load of a fresh tensor never straddles two lines and the
/// compiler/CPU see consistently aligned hot loops.
constexpr std::align_val_t BufferAlign{64};

float *allocAligned(size_t N) {
  return static_cast<float *>(::operator new(N * sizeof(float), BufferAlign));
}

void freeAligned(float *Data) { ::operator delete(Data, BufferAlign); }

/// Sizes below this many floats are their own class.
constexpr size_t ExactClassLimit = 1024;

/// The element count of the pool class holding \p N floats: N itself
/// below ExactClassLimit, else N rounded up to a multiple of 1/8 of the
/// largest power of two not above N.
size_t sizeClass(size_t N) {
  if (N < ExactClassLimit)
    return N;
  size_t Step = (size_t(1) << (std::bit_width(N) - 1)) / 8;
  return (N + Step - 1) / Step * Step;
}

struct BufferPool {
  /// Size class -> free buffers of that class.
  std::unordered_map<size_t, std::vector<float *>> Free;
  size_t CachedBytes = 0;
  static thread_local bool Destroyed;

  ~BufferPool() {
    trim();
    Destroyed = true;
  }

  void trim() {
    for (auto &Entry : Free)
      for (float *Buffer : Entry.second)
        freeAligned(Buffer);
    Free.clear();
    CachedBytes = 0;
  }
};

thread_local bool BufferPool::Destroyed = false;

BufferPool &pool() {
  thread_local BufferPool Pool;
  return Pool;
}

} // namespace

float *liger::detail::bufferAcquire(size_t N) {
  if (N == 0)
    return nullptr;
  size_t Class = sizeClass(N);
  float *Buffer = nullptr;
  if (!BufferPool::Destroyed) {
    BufferPool &P = pool();
    auto It = P.Free.find(Class);
    if (It != P.Free.end() && !It->second.empty()) {
      Buffer = It->second.back();
      It->second.pop_back();
      P.CachedBytes -= Class * sizeof(float);
    }
  }
  if (!Buffer)
    Buffer = allocAligned(Class);
  ASAN_POISON_MEMORY_REGION(Buffer + N, (Class - N) * sizeof(float));
  return Buffer;
}

void liger::detail::bufferRelease(float *Data, size_t N) {
  if (!Data)
    return;
  size_t Class = sizeClass(N);
  ASAN_UNPOISON_MEMORY_REGION(Data + N, (Class - N) * sizeof(float));
  if (BufferPool::Destroyed) {
    freeAligned(Data);
    return;
  }
  BufferPool &P = pool();
  if (P.CachedBytes + Class * sizeof(float) > PoolCapBytes) {
    freeAligned(Data);
    return;
  }
  P.Free[Class].push_back(Data);
  P.CachedBytes += Class * sizeof(float);
}

void liger::detail::bufferPoolTrim() {
  if (!BufferPool::Destroyed)
    pool().trim();
}

size_t liger::detail::bufferPoolCachedBytes() {
  return BufferPool::Destroyed ? 0 : pool().CachedBytes;
}
