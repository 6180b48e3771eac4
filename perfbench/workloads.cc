#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "bench/bench_common.h"
#include "bench/mean_field_problem.h"
#include "comm/codec.h"
#include "core/fedadmm.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "decorators.h"
#include "fl/nn_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "serve/frontend.h"
#include "serve/loadgen.h"
#include "serve/loopback.h"
#include "spans.h"
#include "sys/system_model.h"

namespace fedadmm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Sizes. Each workload's "why" is in README.md. ----

constexpr int kPaperClients = 200;       // Table III MNIST* row
constexpr double kPaperFraction = 0.1;   // 20 clients per round
constexpr int kPaperRounds = 200;        // past the round-~116 collapse
constexpr int kPaperThreads = 4;

constexpr int kFleetClients = 50000;
constexpr int64_t kFleetDim = 256;
constexpr double kFleetFraction = 0.01;  // 500-client waves
constexpr int kFleetAggregations = 2000;
// One executor thread: each dispatch is one client of negligible compute,
// and every extra idle thread is one more vCPU that ParallelFor's
// notify_all wakes per dispatch. On a shared VM those wake-ups add steal
// time to the aggregation tail.
constexpr int kFleetThreads = 1;
constexpr int kFleetShards = 2;
// 128 one-slot frames of 1 KiB: far below the ~2 slabs x 2.5k clients a
// repetition touches, so the pool spills to the slab log.
constexpr int kFleetPoolFrames = 128;

constexpr int kServeClients = 12000;
constexpr int64_t kServeDim = 64;
constexpr int kServeRounds = 30;
constexpr int kServeShards = 2;
constexpr int kServeQueue = 512;
constexpr int kTwinClients = 256;  // served-vs-in-process check
constexpr int kTwinRounds = 3;

/// Cuts into the metered-cellular cohort, so deadline drops (and, served,
/// mirrored REJECTED acks) are part of both fleet workloads.
constexpr double kDeadlineSeconds = 0.23;

// ---- Seeds: every input stream is derived from the workload seed. ----

enum class Stream : uint64_t {
  kData = 1,       // synthetic images / mean-field targets
  kPartition = 2,  // non-IID label shards
  kFleet = 3,      // device and network profiles
  kEngine = 4,     // SimulationConfig::seed: θ⁰, selection, client streams
};

uint64_t SubSeed(uint64_t seed, Stream stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(stream);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Owns the decorators of a traced repetition. `Wrap` returns the object
/// itself when untraced.
struct Tracing {
  explicit Tracing(bool on) : traced(on) {}

  template <typename Timed, typename Base>
  Base* Wrap(Base* inner) {
    if (!traced || inner == nullptr) return inner;
    auto timed = std::make_unique<Timed>(inner);
    Base* out = timed.get();
    owned.push_back(std::shared_ptr<void>(std::move(timed)));
    return out;
  }

  bool traced;
  std::vector<std::shared_ptr<void>> owned;
};

/// Starts the obs registry (traced only) before set-up: the tiered store
/// and the frontend resolve their instruments at construction.
class ObsScope {
 public:
  explicit ObsScope(bool on) : on_(on) {
    if (!on_) return;
    obs::MetricsRegistry::Global().ResetValues();
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  ~ObsScope() {
    if (!on_) return;
    obs::MetricsRegistry::Global().set_enabled(false);
    obs::MetricsRegistry::Global().ResetValues();
  }
  obs::MetricsSnapshot Snapshot() const {
    return on_ ? obs::MetricsRegistry::Global().Snapshot()
               : obs::MetricsSnapshot{};
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  bool on_;
};

/// Times records between observer calls and finds the target crossing.
RoundObserver MakeObserver(RepResult* rep, double target,
                           Clock::time_point* last,
                           Clock::time_point* run_start) {
  return [rep, target, last, run_start](const RoundRecord& record) {
    const Clock::time_point now = Clock::now();
    rep->record_ms.push_back(
        std::chrono::duration<double, std::milli>(now - *last).count());
    *last = now;
    if (target > 0 && rep->tta_s < 0 && record.test_accuracy >= target) {
      rep->tta_s = std::chrono::duration<double>(now - *run_start).count();
    }
  };
}

/// Runs `sim` with the record observer and the recorder around it. For a
/// served run, `loadgen` drives the sessions from its own thread until the
/// engine finishes and `frontend` stops serving.
Status TimedRun(Simulation* sim, const Workload& w, bool traced,
                RepResult* rep, serve::Frontend* frontend = nullptr,
                serve::LoadGenerator* loadgen = nullptr) {
  Clock::time_point last;
  Clock::time_point run_start;
  sim->set_observer(MakeObserver(rep, w.target, &last, &run_start));
  if (traced) SpanRecorder::Global().Start();
  run_start = last = Clock::now();
  std::thread driver;
  if (loadgen != nullptr) {
    driver = std::thread([rep, loadgen] { rep->loadgen = loadgen->Run(); });
  }
  Result<History> history = sim->Run();
  if (frontend != nullptr) frontend->FinishServing();
  if (driver.joinable()) driver.join();
  rep->run_s = SecondsSince(run_start);
  if (traced) SpanRecorder::Global().Stop();
  sim->set_observer(nullptr);  // it points at this frame's clocks
  if (!history.ok()) return history.status();
  rep->history = std::move(history).ValueOrDie();
  rep->theta = sim->theta();
  return Status::OK();
}

// ---- paper-mlp ----

Result<RepResult> RunPaperMlp(const Workload& w, uint64_t seed, bool traced,
                              bool setup_only) {
  RepResult rep;
  Tracing tracing(traced);
  ObsScope obs_scope(traced);
  const auto setup_start = Clock::now();

  // bench_common's MakeScenario, with the data stream seeded too.
  const bench::TaskKind task = bench::TaskKind::kMnistLike;
  SyntheticSpec spec = SyntheticBenchSpec(
      /*channels=*/1, /*hw=*/12,
      kPaperClients * /*samples_per_client=*/12 / 10,
      /*test_per_class=*/30, bench::TaskNoise(task));
  spec.seed = SubSeed(seed, Stream::kData);
  const DataSplit split = GenerateSynthetic(spec);
  Rng partition_rng(SubSeed(seed, Stream::kPartition));
  FEDADMM_ASSIGN_OR_RETURN(
      Partition partition,
      PartitionShards(split.train.labels(), kPaperClients, 2,
                      &partition_rng));
  NnFederatedProblem problem(bench::BenchModel(task), &split.train,
                             &split.test, std::move(partition),
                             /*num_workers=*/kPaperThreads);
  FedAdmm algo(bench::BenchAdmmOptions());
  UniformFractionSelector selector(kPaperClients, kPaperFraction);

  SimulationConfig config;
  config.max_rounds = w.rounds;
  config.seed = SubSeed(seed, Stream::kEngine);
  config.num_threads = w.engine_threads;
  Simulation sim(tracing.Wrap<TimedProblem>(
                     static_cast<FederatedProblem*>(&problem)),
                 tracing.Wrap<TimedAlgorithm>(
                     static_cast<FederatedAlgorithm*>(&algo)),
                 tracing.Wrap<TimedSelector>(
                     static_cast<ClientSelector*>(&selector)),
                 config);
  rep.setup_s = SecondsSince(setup_start);
  if (setup_only) return rep;

  FEDADMM_RETURN_IF_ERROR(TimedRun(&sim, w, traced, &rep));
  rep.obs = obs_scope.Snapshot();
  return rep;
}

/// FedADMM with one exact-gradient step per client, for the mean-field
/// workloads: client compute stays negligible next to the layers under
/// test.
FedAdmmOptions OneStepAdmmOptions() {
  FedAdmmOptions options;
  options.local.learning_rate = 0.3f;
  options.local.batch_size = 0;
  options.local.max_epochs = 1;
  options.local.variable_epochs = false;
  options.rho = StepSchedule(1.0);
  return options;
}

// ---- fleet-async ----

Result<RepResult> RunFleetAsync(const Workload& w, uint64_t seed, bool traced,
                                bool setup_only, const std::string& work_dir) {
  RepResult rep;
  Tracing tracing(traced);
  ObsScope obs_scope(traced);
  const auto setup_start = Clock::now();

  bench::MeanFieldProblem problem(kFleetClients, kFleetDim,
                                  SubSeed(seed, Stream::kData));
  FEDADMM_ASSIGN_OR_RETURN(
      FleetModel fleet,
      FleetModel::FromPreset("cellular", kFleetClients,
                             SubSeed(seed, Stream::kFleet)));
  FEDADMM_ASSIGN_OR_RETURN(
      std::unique_ptr<StragglerPolicy> policy,
      MakeStragglerPolicy("deadline-drop", kDeadlineSeconds));
  SystemModel model(FleetModel(fleet), std::move(policy));

  FedAdmmOptions options = OneStepAdmmOptions();
  options.eta_active_fraction = true;  // η = |S|/m
  FedAdmm algo(options);

  UniformFractionSelector base(kFleetClients, kFleetFraction);
  AvailabilityFilterSelector selector(&base, &fleet);
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<UpdateCodec> uplink,
                           MakeUpdateCodec("q8"));
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<UpdateCodec> downlink,
                           MakeUpdateCodec("q8"));

  SimulationConfig config;
  config.max_rounds = w.rounds;
  config.seed = SubSeed(seed, Stream::kEngine);
  config.num_threads = w.engine_threads;
  config.mode = ExecutionMode::kAsync;
  config.num_shards = kFleetShards;
  config.state_store = "tiered:" + std::to_string(kFleetPoolFrames) + "f:" +
                       work_dir + "/fleet-state.slab";
  Simulation sim(tracing.Wrap<TimedProblem>(
                     static_cast<FederatedProblem*>(&problem)),
                 tracing.Wrap<TimedAlgorithm>(
                     static_cast<FederatedAlgorithm*>(&algo)),
                 tracing.Wrap<TimedSelector>(
                     static_cast<ClientSelector*>(&selector)),
                 config);
  sim.set_system_model(&model);
  sim.set_uplink_codec(tracing.Wrap<TimedCodec>(uplink.get()));
  sim.set_downlink_codec(tracing.Wrap<TimedCodec>(downlink.get()));
  rep.setup_s = SecondsSince(setup_start);
  if (setup_only) return rep;

  FEDADMM_RETURN_IF_ERROR(TimedRun(&sim, w, traced, &rep));
  rep.obs = obs_scope.Snapshot();
  return rep;
}

// ---- serve-ingest ----

/// One serve-ingest run of `clients` sessions for `rounds` rounds: over
/// loopback wire sessions when `served`, else its in-process twin (same
/// inputs, no frontend). `setup_only` applies to the served run.
Result<RepResult> RunServe(const Workload& w, int clients, int rounds,
                           uint64_t seed, bool traced, bool setup_only,
                           bool served) {
  RepResult rep;
  Tracing tracing(traced);
  ObsScope obs_scope(traced);
  const auto setup_start = Clock::now();

  bench::MeanFieldProblem problem(clients, kServeDim,
                                  SubSeed(seed, Stream::kData));
  FEDADMM_ASSIGN_OR_RETURN(
      FleetModel fleet, FleetModel::FromPreset("cellular", clients,
                                               SubSeed(seed, Stream::kFleet)));
  FEDADMM_ASSIGN_OR_RETURN(
      std::unique_ptr<StragglerPolicy> policy,
      MakeStragglerPolicy("deadline-drop", kDeadlineSeconds));
  SystemModel model(std::move(fleet), std::move(policy));
  FedAdmm algo(OneStepAdmmOptions());
  UniformFractionSelector selector(clients, 1.0);

  // Server-side codecs and the sessions' client-side twins.
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<UpdateCodec> uplink,
                           MakeUpdateCodec("q8"));
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<UpdateCodec> uplink_twin,
                           MakeUpdateCodec("q8"));
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<UpdateCodec> downlink,
                           MakeUpdateCodec("q8"));
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<UpdateCodec> downlink_twin,
                           MakeUpdateCodec("q8"));

  FederatedProblem* run_problem =
      tracing.Wrap<TimedProblem>(static_cast<FederatedProblem*>(&problem));
  FederatedAlgorithm* run_algo =
      tracing.Wrap<TimedAlgorithm>(static_cast<FederatedAlgorithm*>(&algo));

  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = SubSeed(seed, Stream::kEngine);
  config.num_threads = w.engine_threads;
  config.num_shards = kServeShards;
  Simulation sim(run_problem, run_algo,
                 tracing.Wrap<TimedSelector>(
                     static_cast<ClientSelector*>(&selector)),
                 config);
  sim.set_system_model(&model);
  sim.set_uplink_codec(tracing.Wrap<TimedCodec>(uplink.get()));
  sim.set_downlink_codec(tracing.Wrap<TimedCodec>(downlink.get()));
  if (!served) {
    rep.setup_s = SecondsSince(setup_start);
    FEDADMM_RETURN_IF_ERROR(TimedRun(&sim, w, traced, &rep));
    return rep;
  }

  serve::FrontendOptions frontend_options;
  frontend_options.num_shards = kServeShards;
  frontend_options.queue_capacity = kServeQueue;
  // Throttled clients resend at once instead of sleeping 1 ms per THROTTLED
  // ack: with one driver those sleeps serialize, so a burst of throttles
  // (its size depends on how the shard workers were scheduled) turned into
  // seconds of idle wall time and made run time bimodal.
  frontend_options.throttle_retry_seconds = 0.0;
  frontend_options.collect_timeout_seconds = 30.0;
  frontend_options.uplink_codec = tracing.Wrap<TimedCodec>(uplink.get());
  frontend_options.system_model = &model;
  serve::Frontend frontend(frontend_options);
  sim.set_ingest(
      tracing.Wrap<TimedIngest>(static_cast<IngestSource*>(&frontend)));

  serve::LoopbackTransport loopback;
  UploadLedger ledger;
  TimedTransport transport(&loopback, &ledger);
  FEDADMM_RETURN_IF_ERROR(transport.Start(&frontend));

  serve::LoadGenOptions loadgen_options;
  loadgen_options.driver_threads = 1;
  loadgen_options.uplink_codec = tracing.Wrap<TimedCodec>(uplink_twin.get());
  loadgen_options.downlink_codec =
      tracing.Wrap<TimedCodec>(downlink_twin.get());
  loadgen_options.poll_timeout_seconds = 30.0;
  serve::LoadGenerator loadgen(run_problem, run_algo, config.seed,
                               config.num_threads, kServeShards, &frontend,
                               &transport, loadgen_options);
  rep.setup_s = SecondsSince(setup_start);
  if (setup_only) {
    transport.Stop();
    return rep;
  }

  const Status status =
      TimedRun(&sim, w, traced, &rep, &frontend, &loadgen);
  transport.Stop();
  FEDADMM_RETURN_IF_ERROR(status);
  rep.uploads = ledger.Stats();
  rep.obs = obs_scope.Snapshot();
  return rep;
}

bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

Result<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper-mlp") {
    w.kind = WorkloadKind::kPaperMlp;
    w.rounds = kPaperRounds;
    w.target = bench::TaskTarget(bench::TaskKind::kMnistLike);
    w.engine_threads = kPaperThreads;
    w.thread_plan = {"main: selection, aggregation, evaluation",
                     "4 executor threads: local training (main waits)"};
  } else if (name == "fleet-async") {
    w.kind = WorkloadKind::kFleetAsync;
    w.rounds = kFleetAggregations;
    w.engine_threads = kFleetThreads;
    w.thread_plan = {
        "main: event loop, selection, codecs, AggregateOne",
        "1 executor thread: one-client dispatches and the W=2 reduce "
        "(main waits)"};
  } else if (name == "serve-ingest") {
    w.kind = WorkloadKind::kServeIngest;
    w.rounds = kServeRounds;
    w.engine_threads = 1;
    w.thread_plan = {
        "main: engine (Simulation::Run)",
        "driver: LoadGenerator::Run, handing each phase to its 1-thread "
        "session pool and 1-thread client executor (driver waits)",
        "engine executor (1 thread, idle in serve mode)",
        "2 ingest shard workers: TryDecode and ACK"};
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "'; expected one of " + WorkloadNames());
  }
  return w;
}

std::string WorkloadNames() { return "paper-mlp, fleet-async, serve-ingest"; }

ModelConfig PaperMlpModel() {
  return bench::BenchModel(bench::TaskKind::kMnistLike);
}

Result<RepResult> RunRepetition(const Workload& workload, uint64_t seed,
                                bool traced, bool setup_only,
                                const std::string& work_dir) {
  switch (workload.kind) {
    case WorkloadKind::kPaperMlp:
      return RunPaperMlp(workload, seed, traced, setup_only);
    case WorkloadKind::kFleetAsync:
      return RunFleetAsync(workload, seed, traced, setup_only, work_dir);
    case WorkloadKind::kServeIngest:
      return RunServe(workload, kServeClients, workload.rounds, seed, traced,
                      setup_only, /*served=*/true);
  }
  return Status::InvalidArgument("unknown workload kind");
}

Status CheckServedMatchesInProcess(uint64_t seed) {
  FEDADMM_ASSIGN_OR_RETURN(const Workload w, FindWorkload("serve-ingest"));
  FEDADMM_ASSIGN_OR_RETURN(const RepResult served,
                           RunServe(w, kTwinClients, kTwinRounds, seed,
                                    /*traced=*/false, /*setup_only=*/false,
                                    /*served=*/true));
  FEDADMM_RETURN_IF_ERROR(served.loadgen);
  FEDADMM_ASSIGN_OR_RETURN(const RepResult local,
                           RunServe(w, kTwinClients, kTwinRounds, seed,
                                    /*traced=*/false, /*setup_only=*/false,
                                    /*served=*/false));
  if (!SameBits(served.theta, local.theta)) {
    return Status::Internal("served theta differs from its in-process twin");
  }
  if (!SameHistory(served.history, local.history)) {
    return Status::Internal(
        "served round records differ from the in-process twin");
  }
  return Status::OK();
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameRecord(const RoundRecord& x, const RoundRecord& y) {
  return x.round == y.round && x.num_selected == y.num_selected &&
         SameDouble(x.train_loss, y.train_loss) &&
         SameDouble(x.test_accuracy, y.test_accuracy) &&
         SameDouble(x.test_loss, y.test_loss) &&
         x.upload_bytes == y.upload_bytes &&
         x.download_bytes == y.download_bytes &&
         x.upload_bytes_raw == y.upload_bytes_raw &&
         x.download_bytes_raw == y.download_bytes_raw &&
         SameDouble(x.sim_seconds, y.sim_seconds) &&
         x.num_dropped == y.num_dropped &&
         x.num_admitted_partial == y.num_admitted_partial &&
         SameDouble(x.staleness_mean, y.staleness_mean) &&
         x.staleness_max == y.staleness_max &&
         x.state_bytes_resident == y.state_bytes_resident;
}

bool SameHistory(const History& a, const History& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.records().size(); ++i) {
    if (!SameRecord(a.records()[i], b.records()[i])) return false;
  }
  return true;
}

}  // namespace fedadmm::perfbench
