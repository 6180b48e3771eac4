#include "state/client_state_store.h"

#include <cstdlib>

#include "state/dense_store.h"
#include "state/lazy_store.h"
#include "state/sharded_store.h"
#include "state/tiered_store.h"

namespace fedadmm {
namespace {

constexpr char kShardedPrefix[] = "sharded:";
constexpr char kTieredPrefix[] = "tiered:";

// The one grammar string every factory error quotes, so a bad spec always
// tells the caller both what it said and what would have parsed.
constexpr char kSpecGrammar[] =
    "dense | lazy | tiered:<capacity_mb|<n>f>:<path>[:dense] | "
    "sharded:<W>:<inner>";

Status SpecError(const std::string& spec, const std::string& why) {
  return Status::InvalidArgument("MakeClientStateStore: " + why +
                                 " in spec '" + spec +
                                 "' (accepted: " + kSpecGrammar + ")");
}

// Parses the tiered capacity token: "<n>" = n MiB of pool, "<n>f" = exactly
// n frames (the test hook — MiB granularity is useless at toy dims).
bool ParseCapacityToken(const std::string& token, TieredStoreOptions* out) {
  std::string digits = token;
  bool frames = false;
  if (!digits.empty() && digits.back() == 'f') {
    frames = true;
    digits.pop_back();
  }
  char* end = nullptr;
  const long long n = std::strtoll(digits.c_str(), &end, 10);
  if (digits.empty() || end == nullptr || *end != '\0' || n < 1) return false;
  out->capacity_token = token;
  if (frames) {
    out->capacity_frames = static_cast<int64_t>(n);
  } else {
    out->capacity_bytes = static_cast<int64_t>(n) * (int64_t{1} << 20);
  }
  return true;
}

Result<std::unique_ptr<ClientStateStore>> MakeTieredStore(
    const std::string& spec) {
  const std::string arg = spec.substr(sizeof(kTieredPrefix) - 1);
  const size_t colon = arg.find(':');
  if (colon == std::string::npos) {
    return SpecError(spec, "tiered needs a capacity and a path");
  }
  TieredStoreOptions options;
  if (!ParseCapacityToken(arg.substr(0, colon), &options)) {
    return SpecError(spec, "bad tiered capacity '" + arg.substr(0, colon) +
                               "' (want MiB >= 1, or '<n>f' frames)");
  }
  std::string rest = arg.substr(colon + 1);
  // Only the raw-fp32 inner exists: slabs must round-trip bitwise through
  // the log, which a codec inner cannot promise. The ":dense" suffix is
  // accepted and normalized away (short form is canonical in name()).
  constexpr char kDenseSuffix[] = ":dense";
  const size_t suffix_len = sizeof(kDenseSuffix) - 1;
  if (rest.size() > suffix_len &&
      rest.compare(rest.size() - suffix_len, suffix_len, kDenseSuffix) == 0) {
    rest.resize(rest.size() - suffix_len);
  } else {
    const size_t tail_colon = rest.rfind(':');
    const std::string tail =
        tail_colon == std::string::npos ? "" : rest.substr(tail_colon + 1);
    if (tail == "lazy" || rest.find(":quantized:") != std::string::npos ||
        rest.find(":tiered:") != std::string::npos ||
        rest.find(":sharded:") != std::string::npos) {
      return SpecError(spec,
                       "tiered inner must be dense (slabs are raw fp32; "
                       "codec inners cannot replay bitwise)");
    }
  }
  if (rest.empty()) {
    return SpecError(spec, "tiered needs a non-empty slab-log path");
  }
  options.path = rest;
  return {std::make_unique<TieredStateStore>(std::move(options))};
}

}  // namespace

Result<std::unique_ptr<ClientStateStore>> MakeClientStateStore(
    const std::string& spec) {
  if (spec == "dense") return {std::make_unique<DenseStateStore>()};
  if (spec == "lazy") return {std::make_unique<LazyStateStore>()};
  if (spec.rfind(kTieredPrefix, 0) == 0) return MakeTieredStore(spec);
  if (spec.rfind(kShardedPrefix, 0) == 0) {
    const std::string arg = spec.substr(sizeof(kShardedPrefix) - 1);
    const size_t colon = arg.find(':');
    if (colon == std::string::npos) {
      return SpecError(spec, "sharded needs a worker count and an inner spec");
    }
    const std::string count = arg.substr(0, colon);
    const std::string inner = arg.substr(colon + 1);
    char* end = nullptr;
    const long shards = std::strtol(count.c_str(), &end, 10);
    if (count.empty() || end == nullptr || *end != '\0' || shards < 1) {
      return SpecError(spec, "bad shard count '" + count + "' (want >= 1)");
    }
    if (inner.rfind(kShardedPrefix, 0) == 0) {
      return SpecError(spec, "sharded specs do not nest");
    }
    // Validate the inner spec through the same factory so error text stays
    // uniform; W = 1 then *is* the inner store — one partition of
    // everything, bitwise the unsharded backend.
    FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<ClientStateStore> probe,
                             MakeClientStateStore(inner));
    if (shards == 1) return {std::move(probe)};
    return {std::make_unique<ShardedStateStore>(static_cast<int>(shards),
                                                inner)};
  }
  return SpecError(spec, "unknown spec");
}

Result<std::unique_ptr<ClientStateStore>> MakeConfiguredClientStateStore(
    const std::string& override_spec, const std::string& fallback_spec,
    int num_clients, std::vector<StateSlotSpec> slots, int num_shards) {
  std::string spec = override_spec.empty() ? fallback_spec : override_spec;
  // The engine's num_shards partitions whatever backend was chosen, but an
  // explicit sharded: spec keeps its own W.
  if (num_shards > 1 && spec.rfind(kShardedPrefix, 0) != 0) {
    spec = std::string(kShardedPrefix) + std::to_string(num_shards) + ":" +
           spec;
  }
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<ClientStateStore> store,
                           MakeClientStateStore(spec));
  store->Configure(num_clients, std::move(slots));
  return {std::move(store)};
}

const std::vector<std::string>& ClientStateStoreExampleSpecs() {
  static const std::vector<std::string>* const kSpecs =
      new std::vector<std::string>(
          {"dense", "lazy", "tiered:64:/tmp/fedadmm_state.slab",
           "sharded:4:lazy"});
  return *kSpecs;
}

}  // namespace fedadmm
