/// \file wire.h
/// \brief Byte-level primitives for codec wire formats.
///
/// Every codec serializes to little-endian bytes through these helpers so
/// `WireBytes()` accounting is exact by construction and payloads are
/// portable across hosts of the same endianness class. There is one
/// reader, `ReaderView`, which reports truncation as a Status: bytes that
/// crossed a process/network boundary (src/serve) are inputs, not bugs,
/// and must never abort. In-process payloads go through the same reader —
/// a codec's aborting `Decode` is its `TryDecode` plus a CHECK
/// (comm/codec.h).
///
/// On little-endian hosts the fixed-width paths are single memcpys (the
/// per-byte shift loops remain as the big-endian fallback and the byte
/// contract: tests/comm/wire_view_test.cc pins both against hardcoded
/// little-endian sequences).

#ifndef FEDADMM_COMM_WIRE_H_
#define FEDADMM_COMM_WIRE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/status.h"

namespace fedadmm::wire {

// The host stores integers in wire order: fixed-width puts/gets are single
// memcpys instead of per-byte shift loops (identical bytes either way).
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kHostIsLittleEndian = true;
#else
inline constexpr bool kHostIsLittleEndian = false;
#endif

/// \brief Appends fixed-width little-endian values to a byte buffer.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {
    FEDADMM_CHECK(out != nullptr);
  }

  void PutU8(uint8_t v) { out_->push_back(v); }

  void PutU16(uint16_t v) {
    out_->push_back(static_cast<uint8_t>(v));
    out_->push_back(static_cast<uint8_t>(v >> 8));
  }

  void PutU32(uint32_t v) {
    if constexpr (kHostIsLittleEndian) {
      const size_t pos = out_->size();
      out_->resize(pos + sizeof(v));
      std::memcpy(out_->data() + pos, &v, sizeof(v));
    } else {
      for (int i = 0; i < 4; ++i) {
        out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
      }
    }
  }

  void PutU64(uint64_t v) {
    if constexpr (kHostIsLittleEndian) {
      const size_t pos = out_->size();
      out_->resize(pos + sizeof(v));
      std::memcpy(out_->data() + pos, &v, sizeof(v));
    } else {
      for (int i = 0; i < 8; ++i) {
        out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
      }
    }
  }

  void PutF32(float v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }

  void PutF64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// Appends `n` uninitialized-content (zeroed) bytes and returns a pointer
  /// to them, for block writers (e.g. SIMD bit packing) that produce whole
  /// regions at once. The pointer is invalidated by any further append.
  uint8_t* Extend(size_t n) {
    const size_t pos = out_->size();
    out_->resize(pos + n);
    return out_->data() + pos;
  }

 private:
  std::vector<uint8_t>* out_;
};

/// \brief Status-returning little-endian parser over a borrowed byte span.
///
/// Every accessor reports truncation as `Status::InvalidArgument` instead
/// of aborting, so network-supplied bytes can be parsed without trusting
/// them. Out-parameters (rather than `Result<T>`) keep the hot ingest
/// path allocation-free.
class ReaderView {
 public:
  ReaderView(const uint8_t* data, size_t len) : data_(data), len_(len) {
    FEDADMM_CHECK(data != nullptr || len == 0);
  }

  Status TryU8(uint8_t* out) {
    if (pos_ + 1 > len_) return Truncated();
    *out = data_[pos_++];
    return Status::OK();
  }

  Status TryU16(uint16_t* out) {
    if (pos_ + 2 > len_) return Truncated();
    *out = static_cast<uint16_t>(
        static_cast<uint16_t>(data_[pos_]) |
        (static_cast<uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return Status::OK();
  }

  Status TryU32(uint32_t* out) {
    if (pos_ + 4 > len_) return Truncated();
    uint32_t v = 0;
    if constexpr (kHostIsLittleEndian) {
      std::memcpy(&v, data_ + pos_, sizeof(v));
    } else {
      for (int i = 0; i < 4; ++i) {
        v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
             << (8 * i);
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status TryU64(uint64_t* out) {
    if (pos_ + 8 > len_) return Truncated();
    uint64_t v = 0;
    if constexpr (kHostIsLittleEndian) {
      std::memcpy(&v, data_ + pos_, sizeof(v));
    } else {
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
             << (8 * i);
      }
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status TryF32(float* out) {
    uint32_t bits = 0;
    FEDADMM_RETURN_IF_ERROR(TryU32(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  Status TryF64(double* out) {
    uint64_t bits = 0;
    FEDADMM_RETURN_IF_ERROR(TryU64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  /// Consumes `n` bytes at once, pointing `*out` at them (valid while the
  /// underlying span lives), for block parsers (SIMD bit unpacking,
  /// payload views).
  Status TrySkip(size_t n, const uint8_t** out) {
    if (n > len_ - pos_) return Truncated();
    *out = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return len_ - pos_; }
  /// Bytes consumed so far.
  size_t consumed() const { return pos_; }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("wire: truncated payload");
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// \brief Packs fixed-width codes (1..16 bits each) into a byte stream,
/// little-endian within and across bytes. `Flush` pads the final partial
/// byte with zero bits.
class BitPacker {
 public:
  BitPacker(Writer* out, int bits) : out_(out), bits_(bits) {
    FEDADMM_CHECK_MSG(bits >= 1 && bits <= 16, "BitPacker: bits in [1,16]");
  }

  void Put(uint32_t code) {
    acc_ |= static_cast<uint64_t>(code) << filled_;
    filled_ += bits_;
    while (filled_ >= 8) {
      out_->PutU8(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  void Flush() {
    if (filled_ > 0) {
      out_->PutU8(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ = 0;
      filled_ = 0;
    }
  }

  /// Exact bytes `count` codes of `bits` bits occupy after Flush.
  static int64_t PackedBytes(int64_t count, int bits) {
    return (count * static_cast<int64_t>(bits) + 7) / 8;
  }

 private:
  Writer* out_;
  int bits_;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

}  // namespace fedadmm::wire

#endif  // FEDADMM_COMM_WIRE_H_
