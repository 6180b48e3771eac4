/// \file shard.h
/// \brief The canonical client-id → shard partition function.
///
/// The sharded aggregation server splits its per-client structures — the
/// partitioned client-state store (state/sharded_store.h), the
/// hierarchical reduce partials (tensor/vec.h AxpyManySharded), the
/// client executor's shard-major schedule and the serving frontend's
/// ingest queues (serve/frontend.h) — by the *same* modulo partition, so a
/// client's state and its contribution to the aggregate always land on the
/// same worker. Keeping the function here, in the dependency-free util
/// layer, is what lets state, tensor, fl and serve agree without including
/// each other.

#ifndef FEDADMM_UTIL_SHARD_H_
#define FEDADMM_UTIL_SHARD_H_

namespace fedadmm {

/// Shard owning `client_id` under `num_shards` workers. `num_shards <= 1`
/// always maps to shard 0 (the unsharded server). Client ids are dense
/// [0, m), so modulo is both a balanced and a churn-stable partition: a
/// client keeps its shard for the lifetime of the fleet.
inline int ShardOfClient(int client_id, int num_shards) {
  if (num_shards <= 1) return 0;
  return client_id % num_shards;
}

}  // namespace fedadmm

#endif  // FEDADMM_UTIL_SHARD_H_
