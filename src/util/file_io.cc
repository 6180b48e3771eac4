#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fedadmm {
namespace {

// Reflected CRC-32 table for polynomial 0xEDB88320, built once.
const uint32_t* Crc32Table() {
  static const uint32_t* const table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

RandomAccessFile::~RandomAccessFile() { Close(); }

Status RandomAccessFile::Open(const std::string& path, bool truncate) {
  Close();
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Errno("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  fd_ = fd;
  size_ = static_cast<int64_t>(st.st_size);
  path_ = path;
  return Status::OK();
}

Status RandomAccessFile::ReadAt(int64_t offset, void* out, size_t len) const {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  auto* p = static_cast<char*>(out);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, p + done, len - done,
                              static_cast<off_t>(offset) +
                                  static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path_);
    }
    if (n == 0) {
      return Status::IoError("RandomAccessFile: short read at offset " +
                              std::to_string(offset) + " in '" + path_ + "'");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RandomAccessFile::Append(const void* data, size_t len,
                                int64_t* offset_out) {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  const int64_t at = size_;
  const auto* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd_, p + done, len - done,
                               static_cast<off_t>(at) +
                                   static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite", path_);
    }
    done += static_cast<size_t>(n);
  }
  size_ = at + static_cast<int64_t>(len);
  if (offset_out != nullptr) *offset_out = at;
  return Status::OK();
}

Status RandomAccessFile::Truncate(int64_t end) {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
    return Errno("ftruncate", path_);
  }
  size_ = end;
  return Status::OK();
}

Status RandomAccessFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
  return Status::OK();
}

void RandomAccessFile::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  size_ = 0;
  path_.clear();
}

void RemoveFileIfExists(const std::string& path) { ::unlink(path.c_str()); }

}  // namespace fedadmm
