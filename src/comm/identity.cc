#include "comm/identity.h"

#include "util/wire.h"

namespace fedadmm {

Payload IdentityCodec::Encode(int64_t stream, const std::vector<float>& v,
                              Rng* rng) {
  (void)stream;
  (void)rng;
  Payload payload;
  payload.bytes.reserve(v.size() * sizeof(float));
  wire::Writer(&payload.bytes).PutF32s(v);
  return payload;
}

std::vector<float> IdentityCodec::Decode(const Payload& payload) const {
  const size_t dim = payload.bytes.size() / sizeof(float);
  return DecodeOrDie(payload, static_cast<int64_t>(dim));
}

Result<std::vector<float>> IdentityCodec::TryDecode(
    const uint8_t* data, size_t len, int64_t expected_dim) const {
  if (expected_dim < 0 ||
      len != static_cast<size_t>(expected_dim) * sizeof(float)) {
    return Status::InvalidArgument(
        "IdentityCodec: payload is " + std::to_string(len) +
        " bytes, want " + std::to_string(expected_dim) + " * 4");
  }
  std::vector<float> v(static_cast<size_t>(expected_dim));
  FEDADMM_RETURN_IF_ERROR(wire::ReaderView(data, len).TryF32s(v));
  return {std::move(v)};
}

int64_t IdentityCodec::WireBytes(int64_t dim) const {
  FEDADMM_CHECK_MSG(dim >= 0, "IdentityCodec: negative dim");
  return dim * static_cast<int64_t>(sizeof(float));
}

}  // namespace fedadmm
