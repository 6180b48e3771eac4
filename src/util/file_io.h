/// \file file_io.h
/// \brief Checksummed binary file primitives for the out-of-core layer.
///
/// Two small pieces under the slab log and the simulation checkpoint
/// (state/slab_log.h, state/checkpoint.h):
///
///   * `Crc32`            — the IEEE 802.3 polynomial, table-driven; every
///                          on-disk record carries one so a torn tail or a
///                          flipped bit is detected, never replayed.
///   * `RandomAccessFile` — positional pread/pwrite over one POSIX fd.
///                          Appends track the logical end so the slab log
///                          can hand out stable record offsets; reads never
///                          share seek state, so concurrent prefetch
///                          faults need no file lock of their own.
///
/// The bytes inside those records are laid out by util/wire.h, the one
/// little-endian encoder and parser.

#ifndef FEDADMM_UTIL_FILE_IO_H_
#define FEDADMM_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace fedadmm {

/// \brief CRC-32 (IEEE 802.3, reflected) of `len` bytes; `seed` chains
/// incremental computations (pass a previous return value).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// \brief One POSIX fd with positional reads/writes and a tracked append
/// end. Not thread-safe for concurrent appends; concurrent `ReadAt` calls
/// are safe against each other (pread carries its own offset).
class RandomAccessFile {
 public:
  RandomAccessFile() = default;
  ~RandomAccessFile();
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Opens (creating if absent) for read/write; `truncate` wipes existing
  /// contents. The append end starts at the existing size (0 after
  /// truncate).
  Status Open(const std::string& path, bool truncate);
  bool is_open() const { return fd_ >= 0; }

  /// Reads exactly `len` bytes at `offset`; IoError on short read.
  Status ReadAt(int64_t offset, void* out, size_t len) const;
  /// Writes exactly `len` bytes at the current append end; returns the
  /// offset they landed at via `offset_out` (may be null).
  Status Append(const void* data, size_t len, int64_t* offset_out = nullptr);
  /// Drops every byte past `end` and moves the append end there — how the
  /// slab log discards a torn tail before resuming appends.
  Status Truncate(int64_t end);
  /// fdatasync: makes every appended byte durable (checkpoint commits).
  Status Sync();

  /// Logical append end (== file size while this object is the only
  /// writer).
  int64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  void Close();

 private:
  int fd_ = -1;
  int64_t size_ = 0;
  std::string path_;
};

/// \brief Best-effort unlink (scratch-file hygiene); ignores a missing
/// file.
void RemoveFileIfExists(const std::string& path);

}  // namespace fedadmm

#endif  // FEDADMM_UTIL_FILE_IO_H_
