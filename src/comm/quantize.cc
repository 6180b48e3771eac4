#include "comm/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "tensor/simd/simd.h"
#include "util/wire.h"

namespace fedadmm {
namespace {

// Chunk scale: max |v| over [begin, end). NaNs are rejected (a NaN delta is
// a training bug upstream); infinities cannot be gridded either.
float ChunkScale(const std::vector<float>& v, size_t begin, size_t end) {
  bool saw_nan = false;
  const float scale =
      simd::ActiveKernels().max_abs(v.data() + begin, end - begin, &saw_nan);
  FEDADMM_CHECK_MSG(!saw_nan && std::isfinite(scale),
                    "quantize: non-finite input");
  return scale;
}

}  // namespace

int ChunkedQuantCodec::ValidatedLevels(int bits) {
  FEDADMM_CHECK_MSG(bits >= 1 && bits <= 16,
                    "ChunkedQuantCodec: bits in [1, 16]");
  return (1 << bits) - 1;
}

ChunkedQuantCodec::ChunkedQuantCodec(int bits, int chunk)
    : bits_(bits), chunk_(chunk), levels_(ValidatedLevels(bits)) {
  FEDADMM_CHECK_MSG(chunk >= 1, "ChunkedQuantCodec: chunk >= 1");
}

Payload ChunkedQuantCodec::EncodeImpl(const std::vector<float>& v, Rng* rng) {
  const int64_t dim = static_cast<int64_t>(v.size());
  Payload payload;
  payload.bytes.reserve(static_cast<size_t>(WireBytes(dim)));
  wire::Writer writer(&payload.bytes);
  writer.PutU64(v.size());
  const size_t chunk = static_cast<size_t>(chunk_);
  const simd::KernelTable& kern = simd::ActiveKernels();
  // Deterministic-grid subclasses (round-to-nearest, no Rng) run the batch
  // quantize + pack kernels; the codes they produce are exactly what the
  // per-element path below would feed the BitPacker, so both paths emit
  // identical bytes. Stochastic subclasses keep the sequential path: one
  // Rng draw per coordinate, in coordinate order, is the replay contract.
  const bool batch = UsesDeterministicGrid();
  std::vector<uint16_t> codes(batch ? std::min(chunk, v.size()) : 0);
  for (size_t begin = 0; begin < v.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, v.size());
    const float scale = ChunkScale(v, begin, end);
    writer.PutF32(scale);
    const size_t len = end - begin;
    if (batch) {
      kern.quantize_uniform(v.data() + begin, len, scale, levels_,
                            codes.data());
      uint8_t* out = writer.Extend(static_cast<size_t>(
          wire::BitPacker::PackedBytes(static_cast<int64_t>(len), bits_)));
      kern.pack_codes(codes.data(), len, bits_, out);
      continue;
    }
    wire::BitPacker packer(&writer, bits_);
    for (size_t i = begin; i < end; ++i) {
      // Grid position in [0, L] of v on the symmetric range [-s, +s]. An
      // all-zero chunk quantizes the grid origin (x = 0): code 0 decodes
      // to exactly 0, and the stochastic subclass still consumes its one
      // draw per coordinate, keeping the stream advance data-independent.
      double x = 0.0;
      if (scale > 0.0f) {
        const double dx = static_cast<double>(v[i]) / scale;
        x = (dx + 1.0) / 2.0 * levels_;
      }
      uint32_t code = Quantize(x, rng);
      if (code > static_cast<uint32_t>(levels_)) {
        code = static_cast<uint32_t>(levels_);
      }
      packer.Put(code);
    }
    packer.Flush();
  }
  return payload;
}

std::vector<float> ChunkedQuantCodec::Decode(const Payload& payload) const {
  return DecodeOrDie(payload, LeadingDim(payload));
}

Result<std::vector<float>> ChunkedQuantCodec::TryDecode(
    const uint8_t* data, size_t len, int64_t expected_dim) const {
  wire::ReaderView reader(data, len);
  uint64_t dim = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU64(&dim));
  if (expected_dim < 0 || dim != static_cast<uint64_t>(expected_dim)) {
    return Status::InvalidArgument(
        "ChunkedQuantCodec: payload dim " + std::to_string(dim) +
        " != expected " + std::to_string(expected_dim));
  }
  if (len != static_cast<size_t>(WireBytes(expected_dim))) {
    return Status::InvalidArgument(
        "ChunkedQuantCodec: payload is " + std::to_string(len) +
        " bytes, want " + std::to_string(WireBytes(expected_dim)));
  }
  std::vector<float> v(static_cast<size_t>(dim));
  const size_t chunk = static_cast<size_t>(chunk_);
  // Decoding is the deterministic grid inverse for every subclass (the
  // rounding rule only affects encoding), so the batch kernels always
  // apply: unpack a whole chunk, then map codes to grid points.
  const simd::KernelTable& kern = simd::ActiveKernels();
  std::vector<uint16_t> codes(std::min(chunk, v.size()));
  for (size_t begin = 0; begin < v.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, v.size());
    float scale = 0.0f;
    FEDADMM_RETURN_IF_ERROR(reader.TryF32(&scale));
    // A hostile scale cannot crash the grid inverse, but it would smuggle
    // non-finite values into the aggregation reduce; reject at the door.
    if (!std::isfinite(scale) || scale < 0.0f) {
      return Status::InvalidArgument(
          "ChunkedQuantCodec: non-finite or negative chunk scale");
    }
    const size_t packed = static_cast<size_t>(wire::BitPacker::PackedBytes(
        static_cast<int64_t>(end - begin), bits_));
    const uint8_t* bytes = nullptr;
    FEDADMM_RETURN_IF_ERROR(reader.TrySkip(packed, &bytes));
    kern.unpack_codes(bytes, end - begin, bits_, codes.data());
    kern.dequantize_grid(codes.data(), end - begin, scale, levels_,
                         v.data() + begin);
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "ChunkedQuantCodec: trailing payload bytes");
  }
  return {std::move(v)};
}

int64_t ChunkedQuantCodec::WireBytes(int64_t dim) const {
  FEDADMM_CHECK_MSG(dim >= 0, "ChunkedQuantCodec: negative dim");
  int64_t bytes = 8;  // u64 dim
  for (int64_t begin = 0; begin < dim; begin += chunk_) {
    const int64_t len = std::min<int64_t>(chunk_, dim - begin);
    bytes += 4 + wire::BitPacker::PackedBytes(len, bits_);
  }
  return bytes;
}

std::string UniformQuantCodec::name() const {
  std::string n = "q";
  n += std::to_string(bits());
  if (chunk() != kDefaultQuantChunk) {
    n += "c";
    n += std::to_string(chunk());
  }
  return n;
}

Payload UniformQuantCodec::Encode(int64_t stream, const std::vector<float>& v,
                                  Rng* rng) {
  (void)stream;
  return EncodeImpl(v, rng);
}

uint32_t UniformQuantCodec::Quantize(double x, Rng* rng) const {
  (void)rng;
  return static_cast<uint32_t>(std::floor(x + 0.5));
}

std::string StochasticQuantCodec::name() const {
  std::string n = "sq";
  n += std::to_string(bits());
  if (chunk() != kDefaultQuantChunk) {
    n += "c";
    n += std::to_string(chunk());
  }
  return n;
}

Payload StochasticQuantCodec::Encode(int64_t stream,
                                     const std::vector<float>& v, Rng* rng) {
  (void)stream;
  FEDADMM_CHECK_MSG(rng != nullptr, "StochasticQuantCodec: Encode needs Rng");
  return EncodeImpl(v, rng);
}

uint32_t StochasticQuantCodec::Quantize(double x, Rng* rng) const {
  const double base = std::floor(x);
  const double frac = x - base;
  // One uniform draw per coordinate, even when frac == 0, keeps the stream
  // advance independent of the data — replay-stable under tiny perturbations.
  const bool up = rng->Uniform() < frac;
  return static_cast<uint32_t>(base) + (up ? 1u : 0u);
}

}  // namespace fedadmm
