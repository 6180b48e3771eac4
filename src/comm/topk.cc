#include "comm/topk.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/wire.h"

namespace fedadmm {

TopKCodec::TopKCodec(double fraction) : fraction_(fraction) {
  FEDADMM_CHECK_MSG(fraction > 0.0 && fraction <= 1.0,
                    "TopKCodec: fraction in (0, 1]");
}

std::string TopKCodec::name() const {
  // Canonical integer-percent spelling; factory specs are integer percents.
  return "topk" + std::to_string(static_cast<int>(
                      std::lround(fraction_ * 100.0)));
}

int64_t TopKCodec::KForDim(int64_t dim) const {
  FEDADMM_CHECK_MSG(dim >= 0, "TopKCodec: negative dim");
  if (dim == 0) return 0;
  const int64_t k = static_cast<int64_t>(
      std::ceil(fraction_ * static_cast<double>(dim)));
  return std::min(dim, std::max<int64_t>(1, k));
}

Payload TopKCodec::Encode(int64_t stream, const std::vector<float>& v,
                          Rng* rng) {
  (void)stream;
  (void)rng;
  const int64_t dim = static_cast<int64_t>(v.size());
  const int64_t k = KForDim(dim);

  // Select the k largest magnitudes; ties prefer the lower index so the
  // wire form is a pure function of the input.
  std::vector<uint32_t> order(v.size());
  std::iota(order.begin(), order.end(), 0u);
  auto larger = [&v](uint32_t a, uint32_t b) {
    const float ma = std::fabs(v[a]);
    const float mb = std::fabs(v[b]);
    if (ma != mb) return ma > mb;
    return a < b;
  };
  if (k < dim) {
    std::nth_element(order.begin(), order.begin() + k, order.end(), larger);
    order.resize(static_cast<size_t>(k));
  }
  std::sort(order.begin(), order.end());

  Payload payload;
  payload.bytes.reserve(static_cast<size_t>(WireBytes(dim)));
  wire::Writer writer(&payload.bytes);
  writer.PutU64(static_cast<uint64_t>(dim));
  writer.PutU64(static_cast<uint64_t>(k));
  for (uint32_t idx : order) writer.PutU32(idx);
  for (uint32_t idx : order) writer.PutF32(v[idx]);
  return payload;
}

std::vector<float> TopKCodec::Decode(const Payload& payload) const {
  return DecodeOrDie(payload, LeadingDim(payload));
}

Result<std::vector<float>> TopKCodec::TryDecode(const uint8_t* data,
                                                size_t len,
                                                int64_t expected_dim) const {
  wire::ReaderView reader(data, len);
  uint64_t dim = 0;
  uint64_t k = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU64(&dim));
  FEDADMM_RETURN_IF_ERROR(reader.TryU64(&k));
  if (expected_dim < 0 || dim != static_cast<uint64_t>(expected_dim)) {
    return Status::InvalidArgument(
        "TopKCodec: payload dim " + std::to_string(dim) + " != expected " +
        std::to_string(expected_dim));
  }
  if (k > dim || len != 16 + 8 * k) {
    return Status::InvalidArgument(
        "TopKCodec: payload is " + std::to_string(len) + " bytes with k=" +
        std::to_string(k) + " at dim " + std::to_string(dim));
  }
  std::vector<uint32_t> indices(k);
  for (uint64_t i = 0; i < k; ++i) {
    FEDADMM_RETURN_IF_ERROR(reader.TryU32(&indices[i]));
    // Encode emits strictly ascending indices; that single check also
    // rejects duplicates and (with the last index) out-of-range writes.
    if (indices[i] >= dim || (i > 0 && indices[i] <= indices[i - 1])) {
      return Status::InvalidArgument(
          "TopKCodec: indices not strictly ascending within dim");
    }
  }
  std::vector<float> v(dim, 0.0f);
  for (uint64_t i = 0; i < k; ++i) {
    FEDADMM_RETURN_IF_ERROR(reader.TryF32(&v[indices[i]]));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("TopKCodec: trailing payload bytes");
  }
  return {std::move(v)};
}

int64_t TopKCodec::WireBytes(int64_t dim) const {
  return 16 + 8 * KForDim(dim);
}

}  // namespace fedadmm
