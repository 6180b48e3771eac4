/// \file wire.h
/// \brief The one little-endian byte layer: every byte that leaves the
/// process goes through `Writer` and comes back through `ReaderView`.
///
/// That covers codec payloads (comm/), serve frames (serve/frame.h), the
/// slab-log record header (state/slab_log.h), event-queue records
/// (sys/event_queue.h), the engine checkpoint blob (fl/server_loop.cc)
/// and the algorithms' extra state. This header is the only code that
/// knows the host's byte order, and the only code that lays out an fp32
/// vector (`PutF32s` / `TryF32s`: raw little-endian bit patterns, no
/// prefix; `PutFloats` / `TryFloats` add a u64 count). Fixed-width fields
/// are little-endian regardless of host, so `WireBytes()` accounting is
/// exact by construction. The one exception is the slab-log payload of a
/// client-state slab (`SlabLog::AppendFloats` / `ReadFloatsAt`, and the
/// checkpoint's copy of it): a host-order memcpy, because it is the
/// tiered store's spill path, and the same bytes as `PutF32s` on a
/// little-endian host.
///
/// `ReaderView` reports truncation as one Status,
/// `InvalidArgument("wire: truncated payload")`, and never aborts: bytes
/// that crossed a process, network or disk boundary are inputs, not bugs.
/// In-process payloads go through the same reader — a codec's aborting
/// `Decode` is its `TryDecode` plus a CHECK (comm/codec.h).
///
/// On little-endian hosts the fixed-width and fp32-vector paths are
/// memcpys; the per-byte shift loops remain as the big-endian fallback and
/// the byte contract (tests/comm/wire_view_test.cc pins both against
/// hardcoded little-endian sequences).

#ifndef FEDADMM_UTIL_WIRE_H_
#define FEDADMM_UTIL_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
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

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// Raw bytes, no length prefix (the caller frames them).
  void PutBytes(const void* data, size_t n) {
    if (n == 0) return;  // `data` may be null then
    const auto* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

  /// u64 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU64(s.size());
    PutBytes(s.data(), s.size());
  }

  /// Raw little-endian fp32 bit patterns, no prefix.
  void PutF32s(std::span<const float> v) {
    if constexpr (kHostIsLittleEndian) {
      PutBytes(v.data(), v.size_bytes());
    } else {
      for (const float x : v) PutF32(x);
    }
  }

  /// u64 count prefix + `PutF32s`.
  void PutFloats(std::span<const float> v) {
    PutU64(v.size());
    PutF32s(v);
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
  /// Over a byte string (checkpoint blobs, algorithm extra state).
  explicit ReaderView(std::string_view bytes)
      : ReaderView(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size()) {}

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

  Status TryI64(int64_t* out) {
    uint64_t bits = 0;
    FEDADMM_RETURN_IF_ERROR(TryU64(&bits));
    *out = static_cast<int64_t>(bits);
    return Status::OK();
  }

  /// Reads `out.size()` raw little-endian fp32 values (the `PutF32s`
  /// layout).
  Status TryF32s(std::span<float> out) {
    const uint8_t* src = nullptr;
    FEDADMM_RETURN_IF_ERROR(TrySkip(out.size_bytes(), &src));
    if constexpr (kHostIsLittleEndian) {
      // memcpy forbids a null pointer even at length 0.
      if (!out.empty()) std::memcpy(out.data(), src, out.size_bytes());
    } else {
      for (size_t i = 0; i < out.size(); ++i) {
        uint32_t bits = 0;
        for (size_t b = 0; b < 4; ++b) {
          bits |= static_cast<uint32_t>(src[4 * i + b]) << (8 * b);
        }
        std::memcpy(&out[i], &bits, sizeof(bits));
      }
    }
    return Status::OK();
  }

  /// u64 count prefix + `TryF32s` (the `PutFloats` layout). A count past
  /// the end is truncation, caught before anything is allocated.
  Status TryFloats(std::vector<float>* out) {
    uint64_t count = 0;
    FEDADMM_RETURN_IF_ERROR(TryU64(&count));
    if (count > remaining() / sizeof(float)) return Truncated();
    out->resize(static_cast<size_t>(count));
    return TryF32s(*out);
  }

  /// u64 length prefix + raw bytes (the `PutString` layout).
  Status TryString(std::string* out) {
    uint64_t len = 0;
    FEDADMM_RETURN_IF_ERROR(TryU64(&len));
    const uint8_t* src = nullptr;
    FEDADMM_RETURN_IF_ERROR(TrySkip(static_cast<size_t>(len), &src));
    out->assign(reinterpret_cast<const char*>(src), static_cast<size_t>(len));
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

#endif  // FEDADMM_UTIL_WIRE_H_
