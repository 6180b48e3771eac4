#include "fl/server_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "fl/history_csv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "state/checkpoint.h"
#include "state/client_state_store.h"
#include "state/slab_log.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/wire.h"

namespace fedadmm {
namespace {

// Fork tags for the selection and init streams; the codec tags live in
// fl/comm_pipeline.cc and the client tag in fl/client_executor.cc. All five
// are pairwise distinct, so no stage can perturb another's stream.
constexpr uint64_t kSelectionTag = 0x5E1EC7;
constexpr uint64_t kInitTag = 0x1417;

// Mean training loss over aggregated updates; NaN when nothing aggregated
// (the record's established skipped-metric sentinel).
double MeanTrainLoss(double loss_sum, size_t count) {
  return count == 0 ? std::numeric_limits<double>::quiet_NaN()
                    : loss_sum / static_cast<double>(count);
}

// Scales both payload vectors in place (deadline partial admissions and
// staleness discounts).
void ScalePayload(float scale, UpdateMessage* msg) {
  for (float& v : msg->delta) v *= scale;
  for (float& v : msg->delta2) v *= scale;
}

// Fraction-aware download billing: a client dropped before its download
// completed is billed only the bytes that reached it by the cut-off.
int64_t BilledBytes(double fraction, int64_t per_client) {
  if (fraction >= 1.0) return per_client;
  return static_cast<int64_t>(
      std::llround(fraction * static_cast<double>(per_client)));
}

// Cached handles into the global metrics registry (stable for the process
// lifetime). The phase histograms are the engine's time budget: select →
// dispatch (downlink encode + client wave + size prediction) → admit
// (admission + uplink encode of resolved events) → aggregate (ServerUpdate
// or AggregateOne) → finalize (eval + bookkeeping).
struct EngineMetrics {
  obs::Counter* rounds;
  obs::Counter* clients_selected;
  obs::Counter* clients_dropped;
  obs::Counter* clients_admitted_partial;
  obs::Gauge* state_bytes_resident;
  obs::Histogram* phase_select;
  obs::Histogram* phase_dispatch;
  obs::Histogram* phase_admit;
  obs::Histogram* phase_aggregate;
  obs::Histogram* phase_finalize;
};

EngineMetrics& Metrics() {
  static EngineMetrics* metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    auto* m = new EngineMetrics();
    m->rounds = registry.counter("server/rounds_count");
    m->clients_selected = registry.counter("server/clients_selected_count");
    m->clients_dropped = registry.counter("server/clients_dropped_count");
    m->clients_admitted_partial =
        registry.counter("server/clients_admitted_partial_count");
    m->state_bytes_resident = registry.gauge("server/state_bytes_resident");
    m->phase_select = registry.histogram("server/phase/select_seconds");
    m->phase_dispatch = registry.histogram("server/phase/dispatch_seconds");
    m->phase_admit = registry.histogram("server/phase/admit_seconds");
    m->phase_aggregate = registry.histogram("server/phase/aggregate_seconds");
    m->phase_finalize = registry.histogram("server/phase/finalize_seconds");
    return m;
  }();
  return *metrics;
}

// Engine-blob layout version, written first: an older layout (which led
// with a sync/event tag of 1 or 2, or carried binary round records) is
// rejected instead of misparsed.
constexpr uint8_t kEngineBlobVersion = 4;

// The history rides in the blob as its canonical CSV fields
// (fl/history_csv.h): `%.17g` doubles round-trip bitwise, NaN sentinels
// included, so one serializer spells out the record's fields.
void WriteHistoryBlob(const History& history, wire::Writer* w) {
  w->PutU32(static_cast<uint32_t>(history.size()));
  for (const RoundRecord& r : history.records()) {
    for (const std::string& field : RoundCsvRow(r)) w->PutString(field);
  }
}

// `config` is the resuming run's: FinalizeRecord evaluated the writer's
// last round even off the eval_every schedule, and a run that goes on past
// that round would not have, so its metrics are cleared to the skipped-eval
// sentinels here.
Result<History> ReadHistoryBlob(wire::ReaderView* reader,
                                const SimulationConfig& config) {
  History history;
  uint32_t count = 0;
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&count));
  std::vector<std::string> fields(RoundCsvColumns().size());
  for (uint32_t i = 0; i < count; ++i) {
    for (std::string& field : fields) {
      FEDADMM_RETURN_IF_ERROR(reader->TryString(&field));
    }
    FEDADMM_ASSIGN_OR_RETURN(RoundRecord record, RoundFromCsvRow(fields));
    if (i + 1 == count && record.round % config.eval_every != 0 &&
        record.round < config.max_rounds - 1) {
      record.test_accuracy = std::numeric_limits<double>::quiet_NaN();
      record.test_loss = std::numeric_limits<double>::quiet_NaN();
    }
    history.Add(record);
  }
  return {std::move(history)};
}

}  // namespace

ServerLoop::ServerLoop(FederatedProblem* problem,
                       FederatedAlgorithm* algorithm,
                       ClientSelector* selector,
                       const SimulationConfig& config,
                       const SystemModel* system_model,
                       UpdateCodec* uplink_codec, UpdateCodec* downlink_codec,
                       IngestSource* ingest, const RoundObserver* observer,
                       std::vector<float>* theta)
    : problem_(problem),
      algorithm_(algorithm),
      selector_(selector),
      config_(config),
      system_model_(system_model),
      observer_(observer),
      uplink_codec_(uplink_codec),
      downlink_codec_(downlink_codec),
      ingest_(ingest),
      barrier_(config.mode == ExecutionMode::kSync),
      master_(config.seed),
      selection_rng_(master_.Fork(kSelectionTag)),
      init_rng_(master_.Fork(kInitTag)),
      pipeline_(uplink_codec, downlink_codec, master_),
      executor_(problem, algorithm, master_, config.num_threads,
                config.num_shards),
      theta_(*theta) {}

ServerLoop::~ServerLoop() { algorithm_->DetachReducePool(); }

void ServerLoop::InitializeModel() {
  theta_ = problem_->InitialParameters(&init_rng_);
  AlgorithmContext ctx;
  ctx.num_clients = problem_->num_clients();
  ctx.dim = problem_->dim();
  ctx.state_store = config_.state_store;
  // Lend the client-phase pool for blocked server-side reductions: it is
  // idle whenever ServerUpdate / AggregateOne runs (waves are joined before
  // aggregation in every mode).
  ctx.reduce_pool = executor_.pool();
  ctx.num_shards = config_.num_shards;
  algorithm_->Setup(ctx, theta_);
}

bool ServerLoop::FinalizeRecord(RoundRecord record, Stopwatch* watch,
                                History* history) {
  obs::TraceScope scope("finalize", "engine", Metrics().phase_finalize);
  scope.set_arg("round", record.round);
  const int round = record.round;
  const bool last_round = (round == config_.max_rounds - 1);
  const bool evaluate = last_round || (round % config_.eval_every == 0);
  if (evaluate) {
    const EvalResult eval = problem_->Evaluate(theta_, /*worker=*/0);
    record.test_accuracy = eval.accuracy;
    record.test_loss = eval.loss;
  } else {
    record.test_accuracy = std::numeric_limits<double>::quiet_NaN();
    record.test_loss = std::numeric_limits<double>::quiet_NaN();
  }
  record.wall_seconds = watch->ElapsedSeconds();
  // Stamp the state-cost surface: what the algorithm's per-client store
  // holds resident at the end of this round.
  record.state_bytes_resident = algorithm_->StateBytesResident();
  watch->Reset();
  history->Add(record);
  if (obs::MetricsEnabled()) {
    EngineMetrics& m = Metrics();
    m.rounds->Add(1);
    m.clients_selected->Add(record.num_selected);
    m.clients_dropped->Add(record.num_dropped);
    m.clients_admitted_partial->Add(record.num_admitted_partial);
    m.state_bytes_resident->Set(record.state_bytes_resident);
  }
  if (observer_ && *observer_) (*observer_)(record);
  if (config_.log_rounds && evaluate) {
    if (config_.mode == ExecutionMode::kSync) {
      FEDADMM_LOG(Info) << algorithm_->name() << " round " << round
                        << " acc=" << record.test_accuracy
                        << " loss=" << record.train_loss;
    } else {
      FEDADMM_LOG(Info) << algorithm_->name() << " ["
                        << ExecutionModeName(config_.mode) << "] round "
                        << round << " t=" << record.sim_seconds
                        << " acc=" << record.test_accuracy
                        << " stale=" << record.staleness_mean;
    }
  }
  return evaluate && config_.target_accuracy > 0.0 &&
         record.test_accuracy >= config_.target_accuracy;
}

Result<std::unique_ptr<SlabLog>> ServerLoop::OpenCheckpointLog() {
  if (config_.checkpoint_path.empty()) {
    return {std::unique_ptr<SlabLog>()};
  }
  // Never truncate: groups stack, and recovery (which already ran by the
  // time this opens in restore mode) picks the newest committed one. A
  // torn tail is cut by Open so appends resume after the last intact
  // record.
  return SlabLog::Open(config_.checkpoint_path, /*truncate=*/false);
}

Status ServerLoop::Checkpoint(SlabLog* log, const History& history) {
  std::vector<uint8_t> blob;
  wire::Writer writer(&blob);
  writer.PutU8(kEngineBlobVersion);
  writer.PutU8(static_cast<uint8_t>(config_.mode));
  writer.PutFloats(theta_);
  writer.PutString(selection_rng_.SerializeState());
  writer.PutString(algorithm_->SerializeExtraState());
  WriteHistoryBlob(history, &writer);
  writer.PutF64(now_);
  writer.PutI64(sequence_);
  writer.PutI64(pending_download_bytes_);
  writer.PutI64(pending_download_bytes_raw_);
  for (const int counter : {wave_counter_, server_version_, concurrency_,
                            pending_dropped_, pending_partial_,
                            drops_since_aggregate_}) {
    writer.PutU32(static_cast<uint32_t>(counter));
  }
  writer.PutU32(static_cast<uint32_t>(buffer_.size()));
  for (const ClientCompletionEvent& event : buffer_) {
    SerializeClientCompletionEvent(event, &writer);
  }
  writer.PutU32(static_cast<uint32_t>(queue_.size()));
  for (const ClientCompletionEvent& event : queue_.events()) {
    SerializeClientCompletionEvent(event, &writer);
  }
  // The barrier draws its next cohort before this point (the prefetch),
  // so the serialized RNG has already moved past it; the cohort itself
  // must ride along or the restored run would skip it.
  writer.PutU32(static_cast<uint32_t>(next_cohort_.size()));
  for (const int client : next_cohort_) {
    writer.PutU32(static_cast<uint32_t>(client));
  }
  return AppendSimulationCheckpoint(log, history.size(),
                                    std::string(blob.begin(), blob.end()),
                                    algorithm_->mutable_state_store());
}

Result<bool> ServerLoop::TryRestore(History* history) {
  auto loaded = LoadLatestSimulationCheckpoint(config_.checkpoint_path);
  if (!loaded.ok()) {
    if (loaded.status().IsNotFound() || loaded.status().IsIoError()) {
      // Missing file, no committed group, or an unreadable one: start
      // fresh — the crash-before-first-checkpoint semantic.
      return {false};
    }
    return loaded.status();
  }
  const SimulationCheckpoint& checkpoint = loaded.ValueOrDie();
  wire::ReaderView reader(checkpoint.engine_blob);
  uint8_t version = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU8(&version));
  if (version != kEngineBlobVersion) {
    return Status::InvalidArgument(
        "Simulation: checkpoint in '" + config_.checkpoint_path +
        "' has engine-blob version " + std::to_string(version) +
        " (this build reads " + std::to_string(kEngineBlobVersion) + ")");
  }
  uint8_t mode = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU8(&mode));
  if (mode != static_cast<uint8_t>(config_.mode)) {
    return Status::InvalidArgument(
        "Simulation: checkpoint in '" + config_.checkpoint_path +
        "' was written by a different execution mode");
  }
  std::vector<float> theta;
  FEDADMM_RETURN_IF_ERROR(reader.TryFloats(&theta));
  if (theta.size() != theta_.size()) {
    return Status::InvalidArgument(
        "Simulation: checkpoint θ dim " + std::to_string(theta.size()) +
        " != problem dim " + std::to_string(theta_.size()));
  }
  theta_ = std::move(theta);
  std::string rng_state;
  FEDADMM_RETURN_IF_ERROR(reader.TryString(&rng_state));
  FEDADMM_RETURN_IF_ERROR(selection_rng_.RestoreState(rng_state));
  std::string extra;
  FEDADMM_RETURN_IF_ERROR(reader.TryString(&extra));
  FEDADMM_RETURN_IF_ERROR(algorithm_->RestoreExtraState(extra));
  FEDADMM_ASSIGN_OR_RETURN(*history, ReadHistoryBlob(&reader, config_));
  FEDADMM_RETURN_IF_ERROR(reader.TryF64(&now_));
  FEDADMM_RETURN_IF_ERROR(reader.TryI64(&sequence_));
  FEDADMM_RETURN_IF_ERROR(reader.TryI64(&pending_download_bytes_));
  FEDADMM_RETURN_IF_ERROR(reader.TryI64(&pending_download_bytes_raw_));
  for (int* counter : {&wave_counter_, &server_version_, &concurrency_,
                       &pending_dropped_, &pending_partial_,
                       &drops_since_aggregate_}) {
    uint32_t value = 0;
    FEDADMM_RETURN_IF_ERROR(reader.TryU32(&value));
    *counter = static_cast<int>(value);
  }
  uint32_t buffered = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&buffered));
  buffer_.clear();
  for (uint32_t i = 0; i < buffered; ++i) {
    FEDADMM_ASSIGN_OR_RETURN(ClientCompletionEvent event,
                             DeserializeClientCompletionEvent(&reader));
    buffer_.push_back(std::move(event));
  }
  uint32_t queued = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&queued));
  for (uint32_t i = 0; i < queued; ++i) {
    FEDADMM_ASSIGN_OR_RETURN(ClientCompletionEvent event,
                             DeserializeClientCompletionEvent(&reader));
    // in_flight_ is derivable: exactly the queued (not yet completed)
    // clients occupy slots.
    in_flight_[static_cast<size_t>(event.client_id)] = 1;
    queue_.Push(std::move(event));
  }
  uint32_t pending = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&pending));
  next_cohort_.clear();
  for (uint32_t i = 0; i < pending; ++i) {
    uint32_t client = 0;
    FEDADMM_RETURN_IF_ERROR(reader.TryU32(&client));
    next_cohort_.push_back(static_cast<int>(client));
  }
  if (ClientStateStore* store = algorithm_->mutable_state_store()) {
    FEDADMM_RETURN_IF_ERROR(RestoreStoreContents(checkpoint, store));
  }
  return {true};
}

Result<History> ServerLoop::Run() {
  if (config_.max_rounds <= 0) {
    return Status::InvalidArgument("Simulation: max_rounds must be > 0");
  }
  if (selector_->num_clients() != problem_->num_clients()) {
    return Status::InvalidArgument(
        "Simulation: selector and problem disagree on client count");
  }
  if (config_.eval_every < 1) {
    return Status::InvalidArgument("Simulation: eval_every must be >= 1");
  }
  if (config_.num_shards < 1) {
    return Status::InvalidArgument(
        "Simulation: num_shards must be >= 1 (1 = unsharded server)");
  }
  // Fail fast on a bad spec — config-level or algorithm-default — since
  // Setup runs deep inside the first round and can only CHECK.
  const std::string effective_store = config_.state_store.empty()
                                          ? algorithm_->DefaultStateStoreSpec()
                                          : config_.state_store;
  if (!effective_store.empty()) {
    auto probe = MakeClientStateStore(effective_store);
    if (!probe.ok()) return probe.status();
  }
  if (!config_.checkpoint_path.empty()) {
    if (config_.checkpoint_every < 1) {
      return Status::InvalidArgument(
          "Simulation: checkpoint_every must be >= 1");
    }
    // Codec state (error-feedback residuals, codec RNG forks) is not part
    // of the checkpoint blob; restoring around it would silently change
    // the trajectory. Fail fast instead.
    if (uplink_codec_ != nullptr || downlink_codec_ != nullptr) {
      return Status::InvalidArgument(
          "Simulation: checkpoint_path does not cover codec state "
          "(error-feedback residuals); detach the uplink/downlink codecs "
          "or disable checkpointing");
    }
  }
  if (ingest_ != nullptr) {
    // Serve mode replaces the in-process client phase with wire-protocol
    // collection (fl/ingest.h); the preconditions that keep the trajectory
    // reproducible are checked here, before any round runs.
    if (config_.mode != ExecutionMode::kSync) {
      return Status::InvalidArgument(
          "Simulation: an ingest source requires sync mode (event modes "
          "schedule the client phase in-process)");
    }
    if (!config_.checkpoint_path.empty()) {
      return Status::InvalidArgument(
          "Simulation: checkpoint_path does not cover frontend session "
          "state; detach the ingest source or disable checkpointing");
    }
    if (uplink_codec_ != nullptr &&
        (!uplink_codec_->deterministic() || uplink_codec_->stateful())) {
      return Status::InvalidArgument(
          "Simulation: serve mode needs a deterministic, stateless uplink "
          "codec ('" + uplink_codec_->name() +
          "' is not): remote encoders cannot share the server's Rng forks "
          "or residual history");
    }
  }
  if (!barrier_) {
    if (system_model_ == nullptr) {
      return Status::InvalidArgument(
          "Simulation: mode '" + ExecutionModeName(config_.mode) +
          "' needs a system model (event times come from the virtual "
          "clock)");
    }
    // Let methods whose aggregation semantics break under per-arrival or
    // small-batch updates reject the run up front (FedADMM with a fixed η
    // silently overshoots m-fold; FedPD cannot form its full-population
    // mean).
    FEDADMM_RETURN_IF_ERROR(algorithm_->ValidateForEventMode());
  }
  return RunLoop();
}

Result<History> ServerLoop::RunLoop() {
  InitializeModel();
  in_flight_.assign(static_cast<size_t>(problem_->num_clients()), 0);
  if (ingest_) {
    FEDADMM_RETURN_IF_ERROR(
        ingest_->StartServing(problem_->num_clients(), problem_->dim()));
  }
  const StalenessWeightFn weight = config_.staleness_weight
                                       ? config_.staleness_weight
                                       : ConstantStalenessWeight();

  History history;
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<SlabLog> checkpoint_log,
                           OpenCheckpointLog());
  if (checkpoint_log && config_.restore_from_checkpoint) {
    FEDADMM_RETURN_IF_ERROR(TryRestore(&history).status());
  }
  int records_at_last_checkpoint = history.size();
  Stopwatch watch;

  // One iteration per resolved wave (barrier) or event (event modes); one
  // RoundRecord per aggregation, or per starved wave of drops.
  while (history.size() < config_.max_rounds) {
    // The loop top is the quiescent point: no event half-processed, the
    // queue and buffer complete, no barrier wave in flight (the barrier
    // always flushes its buffer). Checkpoint here on the cadence.
    if (checkpoint_log && history.size() > records_at_last_checkpoint &&
        history.size() % config_.checkpoint_every == 0) {
      FEDADMM_RETURN_IF_ERROR(Checkpoint(checkpoint_log.get(), history));
      records_at_last_checkpoint = history.size();
    }
    if (queue_.empty() && buffer_.empty()) {
      FEDADMM_RETURN_IF_ERROR(DispatchCohort());
    }

    // Resolve buffer_[first..]: the barrier's whole wave, dispatched
    // straight into the buffer in selection order (every member has
    // resolved by the latest member's time), or the earliest event. Drops
    // are compacted out; admitted events stay in arrival order.
    const size_t first = barrier_ ? 0 : buffer_.size();
    if (!barrier_) buffer_.push_back(queue_.Pop());
    const size_t resolved = buffer_.size() - first;
    size_t kept = first;
    obs::TraceScope admit_scope("admit", "engine", Metrics().phase_admit);
    for (size_t i = first; i < buffer_.size(); ++i) {
      ClientCompletionEvent& event = buffer_[i];
      now_ = std::max(now_, event.time);
      in_flight_[static_cast<size_t>(event.client_id)] = 0;
      if (event.decision.fate == ClientFate::kDropped) {
        ++pending_dropped_;
        ++drops_since_aggregate_;
        continue;
      }
      drops_since_aggregate_ = 0;
      if (event.decision.fate == ClientFate::kAdmittedPartial) {
        // The client shipped its iterate at the deadline: model the
        // shorter SGD path as a proportionally smaller delta. Per-client
        // algorithm state keeps the full pass — see the modeling note on
        // DeadlineAdmitPartialPolicy.
        ++pending_partial_;
        ScalePayload(static_cast<float>(event.decision.work_fraction),
                     &event.message);
      }
      // Encode what the server actually receives, serially in arrival
      // (at the barrier: selection) order, so stateful codecs see a
      // deterministic schedule and dropped uploads never feed residuals.
      // Serve-mode payloads were encoded client-side and decoded once on
      // the shard workers; re-encoding would apply the codec twice.
      if (!ingest_) pipeline_.EncodeUplink(event.wave, &event.message);
      if (kept != i) buffer_[kept] = std::move(event);
      ++kept;
    }
    buffer_.erase(buffer_.begin() + static_cast<ptrdiff_t>(kept),
                  buffer_.end());
    admit_scope.Stop();

    const int buffer_target =
        config_.mode == ExecutionMode::kAsync
            ? 1
            : (config_.buffer_size > 0
                   ? std::min(config_.buffer_size, concurrency_)
                   : std::max(1, concurrency_ / 2));
    const bool aggregated =
        barrier_ || static_cast<int>(buffer_.size()) >= buffer_target;
    // A full wave of consecutive deadline misses forces a flush: aggregate
    // whatever the buffer holds (a timeout flush), or — with an empty
    // buffer — emit the all-dropped record (NaN train_loss, θ untouched).
    // Either way the run keeps emitting records and terminates even when
    // every completion event misses the deadline forever.
    const bool force_flush =
        !aggregated && drops_since_aggregate_ >= concurrency_;

    if (aggregated || force_flush) {
      obs::TraceScope aggregate_scope("aggregate", "engine",
                                      Metrics().phase_aggregate);
      const int round = history.size();
      aggregate_scope.set_arg("round", round);
      RoundRecord record;
      record.round = round;
      // The barrier's cohort counts its drops; an event-mode record counts
      // the updates it aggregated.
      record.num_selected =
          static_cast<int>(barrier_ ? resolved : buffer_.size());
      record.num_dropped = pending_dropped_;
      record.num_admitted_partial = pending_partial_;
      record.sim_seconds = now_;
      pending_dropped_ = 0;
      pending_partial_ = 0;
      drops_since_aggregate_ = 0;

      double loss_sum = 0.0;
      int64_t upload = 0;
      int64_t upload_raw = 0;
      double staleness_sum = 0.0;
      int staleness_max = 0;
      for (ClientCompletionEvent& e : buffer_) {
        const int staleness = server_version_ - e.theta_version;
        staleness_sum += staleness;
        staleness_max = std::max(staleness_max, staleness);
        loss_sum += e.message.train_loss;
        upload += e.message.UploadBytes();
        upload_raw += e.message.RawBytes();
        // Discount stale payloads (FedBuff/FedAsync); the raw count still
        // reaches AggregateOne for methods that adapt further. A barrier
        // aggregates its own wave, which is always fresh.
        if (barrier_) continue;
        const double w = weight(staleness);
        FEDADMM_CHECK_MSG(w >= 0.0 && std::isfinite(w),
                          "staleness weight must be finite and >= 0");
        if (w != 1.0) ScalePayload(static_cast<float>(w), &e.message);
      }
      record.train_loss = MeanTrainLoss(loss_sum, buffer_.size());
      record.staleness_mean =
          buffer_.empty()
              ? std::numeric_limits<double>::quiet_NaN()
              : staleness_sum / static_cast<double>(buffer_.size());
      record.staleness_max = staleness_max;
      record.upload_bytes = upload;
      record.upload_bytes_raw = upload_raw;
      record.download_bytes = pending_download_bytes_;
      record.download_bytes_raw = pending_download_bytes_raw_;
      pending_download_bytes_ = 0;
      pending_download_bytes_raw_ = 0;

      // An all-dropped aggregation leaves θ untouched.
      if (config_.mode == ExecutionMode::kAsync && !buffer_.empty()) {
        ClientCompletionEvent& e = buffer_.front();
        algorithm_->AggregateOne(std::move(e.message), round,
                                 server_version_ - e.theta_version, &theta_);
        ++server_version_;
      } else if (!buffer_.empty()) {
        std::vector<UpdateMessage> batch;
        batch.reserve(buffer_.size());
        for (ClientCompletionEvent& e : buffer_) {
          batch.push_back(std::move(e.message));
        }
        algorithm_->ServerUpdate(batch, round, &theta_);
        ++server_version_;
      }
      buffer_.clear();
      aggregate_scope.Stop();

      // Both stop paths break before the replacement dispatch below, so
      // every billed download has been flushed into a record by the time
      // the loop exits — pending_download_bytes_ is always 0 on return.
      if (FinalizeRecord(record, &watch, &history)) break;
      if (history.size() >= config_.max_rounds) break;
    }

    if (!barrier_) {
      // Refill the freed slot. After an async aggregation this dispatch
      // sees the fresh θ (and version), which is the whole point of the
      // mode.
      const int replacement = PickReplacement(wave_counter_);
      if (replacement >= 0) {
        FEDADMM_RETURN_IF_ERROR(DispatchWave({replacement}, wave_counter_));
      }
      ++wave_counter_;
    }
  }
  // Final group off the cadence: max_rounds, target accuracy, and a
  // starved queue all land here, so a finished run restores as finished.
  if (checkpoint_log && history.size() > records_at_last_checkpoint) {
    FEDADMM_RETURN_IF_ERROR(Checkpoint(checkpoint_log.get(), history));
  }
  return history;
}

Status ServerLoop::DispatchCohort() {
  const int wave = wave_counter_++;
  std::vector<int> cohort = std::move(next_cohort_);
  next_cohort_.clear();
  if (cohort.empty()) {
    obs::TraceScope scope("select", "engine", Metrics().phase_select);
    scope.set_arg("wave", wave);
    cohort = selector_->Select(wave, &selection_rng_);
  }
  FEDADMM_CHECK_MSG(!cohort.empty(), "selector returned empty set");
  // The event modes' fresh cohort fixes their concurrency: one in-flight
  // client per slot, each freed slot refilled on completion.
  concurrency_ = static_cast<int>(cohort.size());
  return DispatchWave(cohort, wave);
}

Status ServerLoop::DispatchWave(const std::vector<int>& clients, int wave) {
  obs::TraceScope dispatch_scope("dispatch", "engine",
                                 Metrics().phase_dispatch);
  dispatch_scope.set_arg("wave", wave);
  // Downlink: the server encodes θ once per wave; every member trains on
  // the decoded broadcast (what it actually received) and is billed the
  // compressed size. Algorithm extras beyond θ (e.g. SCAFFOLD's control
  // variate) stay uncompressed.
  const DownlinkPlan downlink = pipeline_.PrepareDownlink(
      wave, theta_, algorithm_->DownloadBytesPerClient());
  std::vector<UpdateMessage> updates;
  if (ingest_) {
    // Serve mode: open the wave to the frontend's sessions. Clients pull
    // the broadcast and push updates while the loop prefetches the next
    // cohort below; collection joins after the prefetch so the selection
    // stream keeps the exact Select(0), Select(1), ... order.
    FEDADMM_RETURN_IF_ERROR(
        ingest_->BeginRound(wave, clients, downlink, theta_));
  } else {
    executor_.RunWave(wave, clients, downlink.ThetaForClients(theta_),
                      &updates);
    // Predict each upload's wire size before admission: the virtual clock
    // bills bytes, and WireBytes() gives the exact size without
    // materializing payloads. Actual encoding happens after admission so
    // stateful codecs only see admitted uploads. (In serve mode the
    // frontend stamps the actual frame payload sizes instead.)
    pipeline_.PredictUplinkBytes(&updates);
  }
  dispatch_scope.Stop();

  if (barrier_) {
    // Draw the next cohort now and hint the store: an out-of-core backend
    // faults those slabs on the executor pool (idle until the next wave)
    // while the serial admit/aggregate/finalize phases run. The selection
    // stream still sees exactly the call sequence Select(0), Select(1), ...
    // of a lockstep draw.
    if (wave + 1 < config_.max_rounds) {
      obs::TraceScope scope("select", "engine", Metrics().phase_select);
      scope.set_arg("wave", wave + 1);
      next_cohort_ = selector_->Select(wave + 1, &selection_rng_);
      if (ClientStateStore* store = algorithm_->mutable_state_store()) {
        store->PrefetchClients(next_cohort_, executor_.pool());
      }
    }
    if (ingest_) {
      // One message per cohort member, in selection order, decoded exactly
      // once on the frontend's shard workers; admission below stays the
      // single judge of fates.
      FEDADMM_ASSIGN_OR_RETURN(updates, ingest_->CollectWave(wave));
    }
  }

  for (size_t i = 0; i < clients.size(); ++i) {
    const int client = clients[i];
    ClientCompletionEvent event;
    if (system_model_) {
      event = MakeClientCompletionEvent(
          system_model_->fleet().profile(client), system_model_->policy(),
          now_, downlink.per_client_bytes, std::move(updates[i]), wave,
          server_version_, sequence_++);
    } else {
      // No system model (sync only): every member resolves at dispatch
      // time, admitted, with its whole download billed.
      event.time = now_;
      event.sequence = sequence_++;
      event.client_id = client;
      event.wave = wave;
      event.theta_version = server_version_;
      event.message = std::move(updates[i]);
    }
    pending_download_bytes_ += BilledBytes(event.decision.download_fraction,
                                           downlink.per_client_bytes);
    pending_download_bytes_raw_ += BilledBytes(
        event.decision.download_fraction, downlink.per_client_bytes_raw);
    if (barrier_) {
      buffer_.push_back(std::move(event));
    } else {
      in_flight_[static_cast<size_t>(client)] = 1;
      queue_.Push(std::move(event));
    }
  }
  return Status::OK();
}

int ServerLoop::PickReplacement(int wave) {
  obs::TraceScope scope("select", "engine", Metrics().phase_select);
  scope.set_arg("wave", wave);
  const std::vector<int> candidates = selector_->Select(wave, &selection_rng_);
  for (const int client : candidates) {
    if (!in_flight_[static_cast<size_t>(client)]) return client;
  }
  for (size_t client = 0; client < in_flight_.size(); ++client) {
    if (!in_flight_[client]) return static_cast<int>(client);
  }
  return -1;
}

}  // namespace fedadmm
