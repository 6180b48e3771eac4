/// \file checkpoint.h
/// \brief Crash-safe simulation checkpoints over the slab log.
///
/// A checkpoint is one record *group* appended to a `SlabLog`:
///
///   kMeta   (value = round, payload = opaque engine blob)
///   kSlab*  (one per touched (client, slot), payload = raw fp32 slab)
///   kCommit (value = round)
///
/// The commit record is the transaction boundary: recovery scans the whole
/// file and keeps the *last* group whose commit landed with a matching
/// round, so a SIGKILL anywhere — mid-meta, mid-slab, even mid-commit —
/// degrades to "resume from the previous checkpoint", never to reading a
/// half-written state. The log is append-only; successive checkpoints of
/// the same run stack in one file and recovery always picks the newest
/// committed one.
///
/// The engine blob is opaque here: `fl/server_loop.cc` packs whatever its
/// mode needs (theta, RNG streams, history, algorithm extras, the event
/// queue) with the `util/wire.h` writer and hands the bytes down. This
/// layer owns only the store contents and the commit protocol.

#ifndef FEDADMM_STATE_CHECKPOINT_H_
#define FEDADMM_STATE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "state/client_state_store.h"
#include "state/slab_log.h"
#include "util/status.h"

namespace fedadmm {

/// \brief One recovered checkpoint group.
struct SimulationCheckpoint {
  /// The committed round (rounds completed when the group was written).
  int64_t round = 0;
  /// The engine's opaque state blob (the kMeta payload).
  std::string engine_blob;

  /// One persisted store slab.
  struct Slab {
    int client = 0;
    int slot = 0;
    std::vector<float> value;
  };
  /// Touched store contents in increasing (client, slot) order.
  std::vector<Slab> slabs;
};

/// \brief Appends one committed checkpoint group for `round` and syncs.
/// `store` may be null (stateless algorithms checkpoint zero slabs).
Status AppendSimulationCheckpoint(SlabLog* log, int64_t round,
                                  const std::string& engine_blob,
                                  const ClientStateStore* store);

/// \brief Scans `path` and returns the newest complete group. NotFound
/// when the file is missing, empty, or holds no committed group (torn or
/// corrupt tails are silently skipped — that is the recovery semantic).
Result<SimulationCheckpoint> LoadLatestSimulationCheckpoint(
    const std::string& path);

/// \brief Copies `checkpoint.slabs` into a Configure-d `store` (geometry
/// must match: InvalidArgument on client/slot/dim out of range).
Status RestoreStoreContents(const SimulationCheckpoint& checkpoint,
                            ClientStateStore* store);

}  // namespace fedadmm

#endif  // FEDADMM_STATE_CHECKPOINT_H_
