/// \file server_loop.h
/// \brief The federation engine: one event loop under three execution
/// modes.
///
/// Every dispatched client becomes a `ClientCompletionEvent` stamped at its
/// own `ComputeClientTiming` finish and judged by the straggler policy
/// (the per-event admission predicate). The loop resolves events, admits
/// or drops each, and aggregates when the mode's trigger fires:
///
///   selection → CommPipeline (downlink) → ClientExecutor (fan-out)
///             → admission (straggler policy) → CommPipeline (uplink)
///             → aggregation → metrics
///
///   * **sync**: a *wave barrier*. The whole cohort is dispatched as one
///     wave and aggregated once every member has resolved, in selection
///     order, at the latest member's event time (= the previous barrier +
///     the slowest member's finish). The barrier's dispatch also pre-draws
///     the next cohort, hints the state store to prefetch it, and — in
///     serve mode — collects the wave from the ingest source. Arrival
///     order is irrelevant at a barrier, so its members never pass
///     through the event heap.
///   * **buffered / async**: events pop from one `sys/EventQueue` heap in
///     (time, sequence) order at every aggregation worker count
///     `SimulationConfig::num_shards`. Async aggregates every admitted
///     arrival via `FederatedAlgorithm::AggregateOne`; buffered collects
///     `buffer_size` admitted arrivals, discounts them by the staleness
///     weight and applies one batched `ServerUpdate`. Each freed slot is
///     refilled with a one-client wave against the current θ. A full wave
///     of consecutive drops with nothing to aggregate emits an all-dropped
///     record (NaN train_loss), so a starved deadline still terminates
///     after `max_rounds` records.
///
/// Every aggregation emits one `RoundRecord` whose `sim_seconds` is the
/// triggering event's absolute time.
///
/// Determinism: parallel client execution only happens within a dispatch
/// wave (all members share one θ snapshot and per-(wave, client) RNG
/// forks); everything else runs serially in event order, which the queue
/// resolves by (time, dispatch sequence). Hence all three modes replay
/// bitwise for a fixed seed, independent of thread count.

#ifndef FEDADMM_FL_SERVER_LOOP_H_
#define FEDADMM_FL_SERVER_LOOP_H_

#include <memory>
#include <vector>

#include "fl/client_executor.h"
#include "fl/comm_pipeline.h"
#include "fl/simulation.h"
#include "sys/event_queue.h"
#include "util/stopwatch.h"

namespace fedadmm {

class SlabLog;

/// \brief Executes one federated training session for `Simulation`.
///
/// Borrow-only: problem/algorithm/selector/system model/codecs/observer —
/// and the θ output buffer, which the loop mutates in place so observers
/// can read the live model mid-run — must outlive the loop. Single-use:
/// `Run` may be called once.
class ServerLoop {
 public:
  ServerLoop(FederatedProblem* problem, FederatedAlgorithm* algorithm,
             ClientSelector* selector, const SimulationConfig& config,
             const SystemModel* system_model, UpdateCodec* uplink_codec,
             UpdateCodec* downlink_codec, IngestSource* ingest,
             const RoundObserver* observer, std::vector<float>* theta);

  /// Detaches the reduction pool lent to the algorithm: the pool dies with
  /// this loop, but the algorithm object outlives it and may serve direct
  /// calls (diagnostics, invariant probes) afterwards.
  ~ServerLoop();

  /// Validates the configuration and runs the configured execution mode to
  /// completion.
  Result<History> Run();

 private:
  /// The event loop shared by every mode.
  Result<History> RunLoop();

  /// Draws θ⁰ and calls the algorithm's Setup.
  void InitializeModel();

  /// Shared record tail: evaluates on the eval_every cadence (NaN
  /// sentinels otherwise), stamps wall seconds, appends to `history`,
  /// notifies the observer and logs. Returns true when the record's
  /// evaluated accuracy reached the configured target (caller stops).
  /// `record.round` must be set; `watch` is restarted.
  bool FinalizeRecord(RoundRecord record, Stopwatch* watch,
                      History* history);

  /// Dispatches a fresh cohort when nothing is in flight: the pre-drawn
  /// next cohort at the barrier, the selector's draw otherwise. Every
  /// barrier round starts here; the event modes only at a fresh start.
  Status DispatchCohort();

  /// Dispatches `clients` as wave `wave` at `now_` against the current θ:
  /// downlink encode + billing, the client phase (parallel execution, or
  /// ingest collection in serve mode), uplink size prediction, and one
  /// judged completion event per client — appended to the aggregation
  /// buffer in selection order at the barrier, or pushed onto the event
  /// heap.
  Status DispatchWave(const std::vector<int>& clients, int wave);

  /// Picks a replacement client for a freed slot: the selector's draw for
  /// `wave` filtered by in-flight status, falling back to the first idle
  /// client id. Returns -1 when every client is busy.
  int PickReplacement(int wave);

  /// Opens (or resumes) the checkpoint log when `checkpoint_path` is set;
  /// null otherwise. Never truncates an existing log — groups stack.
  Result<std::unique_ptr<SlabLog>> OpenCheckpointLog();

  /// Appends one committed checkpoint group: the mode, θ, selection RNG,
  /// algorithm extras, `history`, the loop state below (clock, counters,
  /// aggregation buffer, event queue, pre-drawn cohort), and every touched
  /// store slab. Written at the loop top, where nothing is half-processed.
  Status Checkpoint(SlabLog* log, const History& history);

  /// Restores from the newest committed group. Returns false (untouched
  /// state) when no committed group exists — the fresh start; errors on a
  /// malformed group or one written by a different execution mode.
  Result<bool> TryRestore(History* history);

  FederatedProblem* problem_;
  FederatedAlgorithm* algorithm_;
  ClientSelector* selector_;
  const SimulationConfig& config_;
  const SystemModel* system_model_;
  const RoundObserver* observer_;
  /// Kept only for the checkpoint pre-flight: codec state (error-feedback
  /// residuals) is not serialized, so checkpointing rejects codec runs.
  UpdateCodec* uplink_codec_;
  UpdateCodec* downlink_codec_;
  /// Serve-mode wave source (fl/ingest.h); null for in-process execution.
  IngestSource* ingest_;
  /// Sync mode: aggregate once the whole dispatched wave has resolved.
  const bool barrier_;

  Rng master_;
  Rng selection_rng_;
  Rng init_rng_;
  CommPipeline pipeline_;
  ClientExecutor executor_;

  /// Borrowed live model buffer (owned by Simulation).
  std::vector<float>& theta_;

  // Loop state between iterations; the checkpoint blob carries all of it.
  EventQueue queue_;
  /// Admitted events awaiting aggregation; at the barrier, also the wave
  /// in flight (always flushed before the loop top).
  std::vector<ClientCompletionEvent> buffer_;
  /// The barrier's next cohort, drawn one wave ahead so the store can
  /// prefetch it; empty when none is pending.
  std::vector<int> next_cohort_;
  std::vector<char> in_flight_;
  /// Simulated time of the latest resolved event (the virtual clock).
  double now_ = 0.0;
  int64_t sequence_ = 0;
  int64_t pending_download_bytes_ = 0;
  int64_t pending_download_bytes_raw_ = 0;
  int wave_counter_ = 0;
  int server_version_ = 0;
  /// Size of the latest fresh cohort: the event modes' in-flight slots.
  int concurrency_ = 0;
  int pending_dropped_ = 0;
  int pending_partial_ = 0;
  int drops_since_aggregate_ = 0;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_SERVER_LOOP_H_
