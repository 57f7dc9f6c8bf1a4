//===-- support/BinaryIO.h - Checked binary file I/O ------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checked binary readers/writers over stdio, plus an atomic-replace
/// file writer. These exist because naive fwrite-and-hope serialization
/// silently truncates on disk-full or a killed process; every write and
/// read here is checked, and whole-file writes go through a temp file +
/// rename so a crash can never leave a torn file at the target path.
///
/// Numbers are fixed-width little-endian (the only platform we target);
/// a magic word at the head of each format catches byte-order or
/// wrong-file mistakes before any payload is interpreted.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SUPPORT_BINARYIO_H
#define LIGER_SUPPORT_BINARYIO_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

namespace liger {

/// Error-latching binary writer over a non-owned FILE*. After the first
/// failed write every later call is a no-op and ok() stays false, so a
/// serializer can emit its whole record and check once at the end.
class BinaryWriter {
public:
  explicit BinaryWriter(FILE *F) : F(F) {}

  void writeBytes(const void *Data, size_t Size);
  void writeU8(uint8_t V) { writeBytes(&V, sizeof(V)); }
  void writeU32(uint32_t V) { writeBytes(&V, sizeof(V)); }
  void writeU64(uint64_t V) { writeBytes(&V, sizeof(V)); }
  void writeF64(double V) { writeBytes(&V, sizeof(V)); }
  void writeFloats(const float *Data, size_t Count) {
    writeBytes(Data, Count * sizeof(float));
  }
  /// u64 byte length followed by the raw bytes.
  void writeString(const std::string &S);

  bool ok() const { return !Failed; }

private:
  FILE *F = nullptr;
  bool Failed = false;
};

/// Bounded binary reader over a non-owned FILE*. Construction fixes a
/// byte budget (normally the file size); every read is checked against
/// both the budget and the actual bytes returned, so a truncated or
/// corrupt file can never read past EOF, spin, or induce an oversized
/// allocation. After the first failure every later call fails too.
class BinaryReader {
public:
  BinaryReader(FILE *F, uint64_t TotalBytes) : F(F), Left(TotalBytes) {}

  bool readBytes(void *Out, size_t Size);
  bool readU8(uint8_t &V) { return readBytes(&V, sizeof(V)); }
  bool readU32(uint32_t &V) { return readBytes(&V, sizeof(V)); }
  bool readU64(uint64_t &V) { return readBytes(&V, sizeof(V)); }
  bool readF64(double &V) { return readBytes(&V, sizeof(V)); }
  bool readFloats(float *Out, size_t Count) {
    return readBytes(Out, Count * sizeof(float));
  }
  /// Reads a writeString()-format string; fails (without allocating)
  /// when the stored length exceeds \p MaxLen or the remaining budget.
  bool readString(std::string &Out, uint64_t MaxLen);

  /// Skips \p Count bytes (bounded like a read).
  bool skip(uint64_t Count);

  /// Bytes still available under the budget.
  uint64_t remaining() const { return Left; }

  bool ok() const { return !Failed; }

private:
  FILE *F = nullptr;
  uint64_t Left = 0;
  bool Failed = false;
};

/// Writes \p Path atomically: \p Fill streams the contents into a
/// writer positioned on "Path.tmp"; on success the temp file is
/// flushed, fsync'ed, closed and renamed over \p Path in one step, so
/// a crash at any point leaves either the old file or the new one,
/// never a torn mix. On any failure the temp file is removed, \p Path
/// is untouched, false is returned, and \p Error (if non-null) gets a
/// one-line diagnostic.
bool atomicWriteFile(const std::string &Path,
                     const std::function<void(BinaryWriter &)> &Fill,
                     std::string *Error = nullptr);

/// True when \p Path exists and is a regular file.
bool fileExists(const std::string &Path);

/// Size in bytes of the regular file at \p Path, or UINT64_MAX on error.
uint64_t fileSize(const std::string &Path);

/// Creates \p Path (and missing parents) as directories, mkdir -p
/// style. Returns false when a component exists but is not a directory
/// or creation fails.
bool ensureDirExists(const std::string &Path);

} // namespace liger

#endif // LIGER_SUPPORT_BINARYIO_H
