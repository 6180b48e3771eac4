#include "comm/codec.h"

#include <cstdlib>

#include "comm/error_feedback.h"
#include "comm/identity.h"
#include "comm/quantize.h"
#include "comm/topk.h"
#include "util/wire.h"

namespace fedadmm {
namespace {

// Parses the integer suffix of `spec` after `prefix`; returns -1 when the
// prefix does not match or the suffix is not a bare positive integer.
int ParseIntSuffix(const std::string& spec, const std::string& prefix) {
  if (spec.size() <= prefix.size() ||
      spec.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  const std::string digits = spec.substr(prefix.size());
  char* end = nullptr;
  const long v = std::strtol(digits.c_str(), &end, 10);
  if (end == digits.c_str() || *end != '\0' || v <= 0) return -1;
  return static_cast<int>(v);
}

}  // namespace

std::vector<float> UpdateCodec::DecodeOrDie(const Payload& payload,
                                            int64_t dim) const {
  Result<std::vector<float>> decoded =
      TryDecode(payload.bytes.data(), payload.bytes.size(), dim);
  FEDADMM_CHECK_MSG(decoded.ok(), decoded.status().message());
  return std::move(decoded).ValueOrDie();
}

int64_t UpdateCodec::LeadingDim(const Payload& payload) {
  uint64_t dim = 0;
  wire::ReaderView reader(payload.bytes.data(), payload.bytes.size());
  if (!reader.TryU64(&dim).ok()) return 0;
  return static_cast<int64_t>(dim);
}

Result<std::unique_ptr<UpdateCodec>> MakeUpdateCodec(const std::string& spec) {
  if (spec == "identity") {
    return std::unique_ptr<UpdateCodec>(new IdentityCodec());
  }
  if (spec == "fp16") {
    return std::unique_ptr<UpdateCodec>(new UniformQuantCodec(16));
  }
  if (spec.rfind("ef:", 0) == 0) {
    const std::string inner_spec = spec.substr(3);
    if (inner_spec.rfind("ef:", 0) == 0) {
      return Status::InvalidArgument(
          "MakeUpdateCodec: nested error feedback '" + spec + "'");
    }
    FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<UpdateCodec> inner,
                             MakeUpdateCodec(inner_spec));
    return std::unique_ptr<UpdateCodec>(
        new ErrorFeedbackCodec(std::move(inner)));
  }
  // "sq" must be probed before "q": both prefixes match "sq8".
  if (const int bits = ParseIntSuffix(spec, "sq"); bits > 0) {
    if (bits > 16) {
      return Status::InvalidArgument(
          "MakeUpdateCodec: sq bits must be in 1..16, got '" + spec + "'");
    }
    return std::unique_ptr<UpdateCodec>(new StochasticQuantCodec(bits));
  }
  if (const int bits = ParseIntSuffix(spec, "q"); bits > 0) {
    if (bits > 16) {
      return Status::InvalidArgument(
          "MakeUpdateCodec: q bits must be in 1..16, got '" + spec + "'");
    }
    return std::unique_ptr<UpdateCodec>(new UniformQuantCodec(bits));
  }
  if (const int percent = ParseIntSuffix(spec, "topk"); percent > 0) {
    if (percent > 100) {
      return Status::InvalidArgument(
          "MakeUpdateCodec: topk percent must be in 1..100, got '" + spec +
          "'");
    }
    return std::unique_ptr<UpdateCodec>(new TopKCodec(percent / 100.0));
  }
  return Status::InvalidArgument(
      "MakeUpdateCodec: unknown codec spec '" + spec +
      "' (try identity, q8, fp16, sq4, topk10, ef:topk10)");
}

const std::vector<std::string>& UpdateCodecExampleSpecs() {
  static const std::vector<std::string> kSpecs = {
      "identity", "fp16", "q8", "sq8", "sq4", "topk10", "ef:topk10", "ef:sq4",
  };
  return kSpecs;
}

}  // namespace fedadmm
