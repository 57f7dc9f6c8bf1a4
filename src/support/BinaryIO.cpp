//===-- support/BinaryIO.cpp - Checked binary file I/O --------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/BinaryIO.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

using namespace liger;

//===----------------------------------------------------------------------===//
// BinaryWriter
//===----------------------------------------------------------------------===//

void BinaryWriter::writeBytes(const void *Data, size_t Size) {
  if (Failed || Size == 0)
    return;
  if (std::fwrite(Data, 1, Size, F) != Size)
    Failed = true;
}

void BinaryWriter::writeString(const std::string &S) {
  writeU64(S.size());
  writeBytes(S.data(), S.size());
}

//===----------------------------------------------------------------------===//
// BinaryReader
//===----------------------------------------------------------------------===//

bool BinaryReader::readBytes(void *Out, size_t Size) {
  if (Failed)
    return false;
  if (Size > Left || std::fread(Out, 1, Size, F) != Size) {
    Failed = true;
    return false;
  }
  Left -= Size;
  return true;
}

bool BinaryReader::readString(std::string &Out, uint64_t MaxLen) {
  uint64_t Len = 0;
  if (!readU64(Len))
    return false;
  if (Len > MaxLen || Len > Left) {
    Failed = true;
    return false;
  }
  Out.assign(static_cast<size_t>(Len), '\0');
  return readBytes(Out.data(), static_cast<size_t>(Len));
}

bool BinaryReader::skip(uint64_t Count) {
  if (Failed)
    return false;
  if (Count > Left ||
      std::fseek(F, static_cast<long>(Count), SEEK_CUR) != 0) {
    Failed = true;
    return false;
  }
  Left -= Count;
  return true;
}

//===----------------------------------------------------------------------===//
// Atomic file replacement and filesystem helpers
//===----------------------------------------------------------------------===//

bool liger::atomicWriteFile(
    const std::string &Path,
    const std::function<void(BinaryWriter &)> &Fill, std::string *Error) {
  auto Fail = [&](const std::string &What) {
    if (Error)
      *Error = What + ": " + std::strerror(errno);
    return false;
  };

  // The temp name carries the pid and a process-wide counter so that
  // concurrent writers of the same target (e.g. two corpus workers
  // storing the same trace-cache key) never interleave into one temp
  // file; whichever rename lands last wins, and both files are whole.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string TmpPath = Path + ".tmp." + std::to_string(::getpid()) + "." +
                        std::to_string(TmpCounter.fetch_add(1));
  FILE *F = std::fopen(TmpPath.c_str(), "wb");
  if (!F)
    return Fail("cannot create temp file " + TmpPath);

  BinaryWriter W(F);
  Fill(W);

  // A short write, a failed flush, or a failed fsync all mean the
  // payload may not be durably on disk — abandon the temp file and
  // leave any previous file at Path untouched.
  bool Ok = W.ok() && std::fflush(F) == 0 && ::fsync(::fileno(F)) == 0;
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    std::remove(TmpPath.c_str());
    return Fail("short write to " + TmpPath);
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return Fail("cannot rename " + TmpPath + " over " + Path);
  }
  return true;
}

bool liger::fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

uint64_t liger::fileSize(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
    return UINT64_MAX;
  return static_cast<uint64_t>(St.st_size);
}

bool liger::ensureDirExists(const std::string &Path) {
  if (Path.empty())
    return false;
  // Walk the path, creating each component; "a/b/c" needs a and a/b.
  for (size_t Pos = 1; Pos <= Path.size(); ++Pos) {
    if (Pos != Path.size() && Path[Pos] != '/')
      continue;
    std::string Prefix = Path.substr(0, Pos);
    if (::mkdir(Prefix.c_str(), 0755) == 0 || errno == EEXIST)
      continue;
    return false;
  }
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}
