/// \file pack_inline.h
/// \brief Shared word-at-a-time bit packing loops.
///
/// The generic (any bit width) pack/unpack loops are pure integer code and
/// identical in every kernel table; both the scalar and the AVX2
/// translation units inline them for the widths that have no wider
/// specialization. Packing is byte-for-byte equivalent to
/// `wire::BitPacker` (util/wire.h), but writes straight into a
/// caller-sized buffer instead of pushing single bytes through a
/// `wire::Writer`; unpacking is its inverse.

#ifndef FEDADMM_TENSOR_SIMD_PACK_INLINE_H_
#define FEDADMM_TENSOR_SIMD_PACK_INLINE_H_

#include <cstddef>
#include <cstdint>

namespace fedadmm::simd::internal {

/// Packs `n` codes of `bits` (1..16) bits, little-endian within and across
/// bytes, zero-padding the final partial byte. Writes exactly
/// `(n * bits + 7) / 8` bytes.
inline void PackCodesGeneric(const uint16_t* codes, size_t n, int bits,
                             uint8_t* out) {
  uint64_t acc = 0;
  int filled = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= static_cast<uint64_t>(codes[i]) << filled;
    filled += bits;
    while (filled >= 8) {
      *out++ = static_cast<uint8_t>(acc & 0xFF);
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) *out = static_cast<uint8_t>(acc & 0xFF);
}

/// Inverse of `PackCodesGeneric`; reads exactly `(n * bits + 7) / 8` bytes.
inline void UnpackCodesGeneric(const uint8_t* bytes, size_t n, int bits,
                               uint16_t* codes) {
  uint64_t acc = 0;
  int filled = 0;
  const uint32_t mask = (1u << bits) - 1u;
  for (size_t i = 0; i < n; ++i) {
    while (filled < bits) {
      acc |= static_cast<uint64_t>(*bytes++) << filled;
      filled += 8;
    }
    codes[i] = static_cast<uint16_t>(static_cast<uint32_t>(acc) & mask);
    acc >>= bits;
    filled -= bits;
  }
}

}  // namespace fedadmm::simd::internal

#endif  // FEDADMM_TENSOR_SIMD_PACK_INLINE_H_
