// Cross-commit golden pin of the engine's trajectories.
//
// Every other replay test compares two runs of the same binary, so a
// refactor that moves both sides passes them all. This file pins absolute
// constants instead: for each scenario, an FNV-1a hash of the final θ's
// bytes and every RoundRecord field except wall_seconds (doubles compared
// by bit pattern, so NaN sentinels pin too). Most scenarios run on the
// quadratic problem, whose trajectory involves no transcendental libm
// calls. The NN scenarios (MLP and CNN on the synthetic bench data) pin the
// dense kernels, the layers' backward passes and the fused local step;
// their softmax/cross-entropy call expf/log, so they pin for the x86-64
// glibc the suite runs on.
//
// Capture (prints the GOLDEN_* tables below as C++ source; paste them in):
//
//   FEDADMM_GOLDEN_CAPTURE=1 ./build/tests/engine_engine_golden_test
//
// Re-capturing is a deliberate trajectory change and belongs in the
// change log with its reason.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/codec.h"
#include "core/fedadmm.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/fedprox.h"
#include "fl/algorithms/scaffold.h"
#include "fl/nn_problem.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "sys/system_model.h"
#include "util/file_io.h"

namespace fedadmm {
namespace {

constexpr int kClients = 12;
constexpr int kDim = 7;
constexpr int kRounds = 6;

// One record, every deterministic field; doubles as IEEE-754 bit patterns.
// (long long fields print with plain %lld / %llx.)
struct GoldenRow {
  int round;
  int num_selected;
  int num_dropped;
  int num_admitted_partial;
  int staleness_max;
  long long upload_bytes;
  long long download_bytes;
  long long upload_bytes_raw;
  long long download_bytes_raw;
  long long state_bytes_resident;
  unsigned long long train_loss;
  unsigned long long test_accuracy;
  unsigned long long test_loss;
  unsigned long long sim_seconds;
  unsigned long long staleness_mean;
};

struct GoldenRun {
  const char* name;
  unsigned long long theta_hash;
  std::vector<GoldenRow> rows;
};

bool CaptureMode() {
  const char* env = std::getenv("FEDADMM_GOLDEN_CAPTURE");
  return env != nullptr && std::string(env) == "1";
}

unsigned long long HashTheta(const std::vector<float>& theta) {
  unsigned long long h = 0xcbf29ce484222325ull;
  for (const float v : theta) {
    const uint32_t bits = std::bit_cast<uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

GoldenRow RowOf(const RoundRecord& r) {
  GoldenRow g;
  g.round = r.round;
  g.num_selected = r.num_selected;
  g.num_dropped = r.num_dropped;
  g.num_admitted_partial = r.num_admitted_partial;
  g.staleness_max = r.staleness_max;
  g.upload_bytes = r.upload_bytes;
  g.download_bytes = r.download_bytes;
  g.upload_bytes_raw = r.upload_bytes_raw;
  g.download_bytes_raw = r.download_bytes_raw;
  g.state_bytes_resident = r.state_bytes_resident;
  g.train_loss = std::bit_cast<uint64_t>(r.train_loss);
  g.test_accuracy = std::bit_cast<uint64_t>(r.test_accuracy);
  g.test_loss = std::bit_cast<uint64_t>(r.test_loss);
  g.sim_seconds = std::bit_cast<uint64_t>(r.sim_seconds);
  g.staleness_mean = std::bit_cast<uint64_t>(r.staleness_mean);
  return g;
}

void PrintCapture(const char* name, unsigned long long theta_hash,
                  const History& history) {
  std::printf("// %s\n{\"%s\", 0x%016llxull, {\n", name, name, theta_hash);
  for (const RoundRecord& r : history.records()) {
    const GoldenRow g = RowOf(r);
    std::printf("  {%d, %d, %d, %d, %d, %lld, %lld, %lld, %lld, %lld,\n",
                g.round, g.num_selected, g.num_dropped, g.num_admitted_partial,
                g.staleness_max, g.upload_bytes, g.download_bytes,
                g.upload_bytes_raw, g.download_bytes_raw,
                g.state_bytes_resident);
    std::printf("   0x%016llxull, 0x%016llxull, 0x%016llxull,\n",
                g.train_loss, g.test_accuracy, g.test_loss);
    std::printf("   0x%016llxull, 0x%016llxull},\n", g.sim_seconds,
                g.staleness_mean);
  }
  std::printf("}},\n");
}

void ExpectGolden(const GoldenRun& golden, const std::vector<float>& theta,
                  const History& history) {
  if (CaptureMode()) {
    PrintCapture(golden.name, HashTheta(theta), history);
    return;
  }
  SCOPED_TRACE(golden.name);
  EXPECT_EQ(HashTheta(theta), golden.theta_hash);
  ASSERT_EQ(static_cast<size_t>(history.size()), golden.rows.size());
  for (size_t i = 0; i < golden.rows.size(); ++i) {
    const GoldenRow got = RowOf(history.records()[i]);
    const GoldenRow& want = golden.rows[i];
    EXPECT_EQ(got.round, want.round) << i;
    EXPECT_EQ(got.num_selected, want.num_selected) << i;
    EXPECT_EQ(got.num_dropped, want.num_dropped) << i;
    EXPECT_EQ(got.num_admitted_partial, want.num_admitted_partial) << i;
    EXPECT_EQ(got.staleness_max, want.staleness_max) << i;
    EXPECT_EQ(got.upload_bytes, want.upload_bytes) << i;
    EXPECT_EQ(got.download_bytes, want.download_bytes) << i;
    EXPECT_EQ(got.upload_bytes_raw, want.upload_bytes_raw) << i;
    EXPECT_EQ(got.download_bytes_raw, want.download_bytes_raw) << i;
    EXPECT_EQ(got.state_bytes_resident, want.state_bytes_resident) << i;
    EXPECT_EQ(got.train_loss, want.train_loss) << i;
    EXPECT_EQ(got.test_accuracy, want.test_accuracy) << i;
    EXPECT_EQ(got.test_loss, want.test_loss) << i;
    EXPECT_EQ(got.sim_seconds, want.sim_seconds) << i;
    EXPECT_EQ(got.staleness_mean, want.staleness_mean) << i;
  }
}

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = kClients;
  spec.dim = kDim;
  spec.heterogeneity = 1.2;
  spec.seed = 91;
  return spec;
}

LocalTrainSpec Local() {
  LocalTrainSpec local;
  local.learning_rate = 0.05f;
  local.batch_size = 4;
  local.max_epochs = 3;
  local.variable_epochs = true;
  return local;
}

std::unique_ptr<FederatedAlgorithm> MakeAlgo(const std::string& name) {
  if (name == "FedPD") {
    return std::make_unique<FedPd>(Local(), 0.5f, 0.6, /*seed=*/7);
  }
  if (name == "SCAFFOLD") return std::make_unique<Scaffold>(Local());
  if (name == "FedAvg") return std::make_unique<FedAvg>(Local());
  FedAdmmOptions options;
  options.local = Local();
  options.rho = StepSchedule(0.1);
  // η = |S_t|/m: required by the event modes, and kept in sync runs so
  // every FedADMM scenario shares one configuration.
  options.eta_active_fraction = true;
  options.freeze_duals = name == "FedADMM-frozen";
  return std::make_unique<FedAdmm>(options);
}

SystemModel CellularModel(const std::string& policy, double deadline) {
  FleetModel fleet =
      FleetModel::FromPreset("cellular", kClients, 3).ValueOrDie();
  return SystemModel(std::move(fleet),
                     MakeStragglerPolicy(policy, deadline).ValueOrDie());
}

// Everything a scenario may vary; the defaults are the plain sync run.
struct Scenario {
  std::string algo = "FedADMM";
  ExecutionMode mode = ExecutionMode::kSync;
  const SystemModel* model = nullptr;
  std::string uplink;
  std::string downlink;
  std::string state_store;
  int num_shards = 1;
  int max_rounds = kRounds;
  std::string checkpoint_path;
  bool restore = false;
};

struct RunOutput {
  std::vector<float> theta;
  History history;
};

RunOutput RunScenario(const Scenario& s) {
  QuadraticProblem problem(Spec());
  auto algo = MakeAlgo(s.algo);
  std::unique_ptr<ClientSelector> selector;
  if (s.algo == "FedPD") {
    selector = std::make_unique<FullParticipationSelector>(kClients);
  } else {
    selector = std::make_unique<UniformFractionSelector>(kClients, 0.5);
  }
  std::unique_ptr<UpdateCodec> uplink;
  std::unique_ptr<UpdateCodec> downlink;
  if (!s.uplink.empty()) uplink = MakeUpdateCodec(s.uplink).ValueOrDie();
  if (!s.downlink.empty()) downlink = MakeUpdateCodec(s.downlink).ValueOrDie();
  SimulationConfig config;
  config.max_rounds = s.max_rounds;
  config.seed = 7;
  config.num_threads = 2;
  config.mode = s.mode;
  config.state_store = s.state_store;
  config.num_shards = s.num_shards;
  config.checkpoint_path = s.checkpoint_path;
  config.restore_from_checkpoint = s.restore;
  Simulation sim(&problem, algo.get(), selector.get(), config);
  sim.set_system_model(s.model);
  sim.set_uplink_codec(uplink.get());
  sim.set_downlink_codec(downlink.get());
  RunOutput out;
  out.history = std::move(sim.Run()).ValueOrDie();
  out.theta = sim.theta();
  return out;
}

// The NN scenarios: the bench MLP (144 -> 256 -> 10) or the bench CNN on
// the 12x12 synthetic digits, 100 clients holding 12 samples each in two
// label shards (non-IID), 10% sync participation on 4 threads, batch 5 and
// up to 10 variable local epochs; evaluation streams the 300 test samples
// in batches of 256 + 44.
constexpr int kNnClients = 100;

RunOutput RunNnScenario(const ModelConfig& model, const std::string& algo,
                        int rounds) {
  const DataSplit split = GenerateSynthetic(SyntheticBenchSpec(
      /*channels=*/1, /*hw=*/12, /*train_per_class=*/kNnClients * 12 / 10,
      /*test_per_class=*/30, /*noise_stddev=*/1.0f));
  Rng part_rng(5);
  Partition partition =
      PartitionShards(split.train.labels(), kNnClients, 2, &part_rng)
          .ValueOrDie();
  NnFederatedProblem problem(model, &split.train, &split.test,
                             std::move(partition), /*num_workers=*/4);
  LocalTrainSpec local;
  local.learning_rate = 0.1f;
  local.batch_size = 5;
  local.max_epochs = 10;
  local.variable_epochs = true;
  std::unique_ptr<FederatedAlgorithm> algorithm;
  if (algo == "FedProx") {
    algorithm = std::make_unique<FedProx>(local, /*rho=*/1.0f);
  } else {
    FedAdmmOptions options;
    options.local = local;
    options.rho = StepSchedule(1.0);
    algorithm = std::make_unique<FedAdmm>(options);
  }
  UniformFractionSelector selector(kNnClients, 0.1);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = 3;
  config.num_threads = 4;
  Simulation sim(&problem, algorithm.get(), &selector, config);
  RunOutput out;
  out.history = std::move(sim.Run()).ValueOrDie();
  out.theta = sim.theta();
  return out;
}

ModelConfig BenchMlp() {
  ModelConfig config = MlpConfig(144, 256, 10);
  config.height = 12;
  config.width = 12;
  return config;
}

// GOLDEN_BEGIN (captured at the commit that introduced this file)
// clang-format off
const GoldenRun kSyncPlain =
{"sync_plain", 0xbc6319bfabad0245ull, {
  {0, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xbfa08db750808ed0ull, 0x3fd1d1d28746bd8dull, 0x40157b3909081779ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xbf87c85f11f84455ull, 0x3fd55243f87c0029ull, 0x4005c0b33ae15d05ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc015f756826f2251ull, 0x3fd791fb0bfade81ull, 0x3ffc18ac7c39fd27ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {3, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc003d8e68858f7c7ull, 0x3fd81af1c03cad6dull, 0x3ff74e57a60d8fd3ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {4, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc0097220328b18edull, 0x3fd9e942950753bcull, 0x3fecde666b5e4b01ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {5, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc01c883f27044ef5ull, 0x3fddbe0839109719ull, 0x3fc2db19da5e3918ull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
const GoldenRun kSyncCellularDrop =
{"sync_cellular_drop", 0x6911d5dfd71a61b5ull, {
  {0, 6, 3, 0, 0, 84, 168, 84, 168, 672,
   0x3fe8626d4bb7f9adull, 0x3fd0949b39bff1dbull, 0x401a7c07b684e815ull,
   0x3fc999999999999aull, 0x0000000000000000ull},
  {1, 6, 2, 0, 0, 112, 168, 112, 168, 672,
   0x3ff11a9f4f0e42f4ull, 0x3fd403c0979c9af3ull, 0x400ad6688cf0b301ull,
   0x3fd999999999999aull, 0x0000000000000000ull},
  {2, 6, 4, 0, 0, 56, 168, 56, 168, 672,
   0xc01c597da74d6e86ull, 0x3fd54c89e3f2ee34ull, 0x400452461d3bcbbbull,
   0x3fe3333333333334ull, 0x0000000000000000ull},
  {3, 6, 3, 0, 0, 84, 168, 84, 168, 672,
   0x3fea10549e042ef3ull, 0x3fd6018e78e41b8aull, 0x4001506a725bd891ull,
   0x3fe999999999999aull, 0x0000000000000000ull},
  {4, 6, 2, 0, 0, 112, 168, 112, 168, 672,
   0xc00ae01862e4f9e6ull, 0x3fd7e03b60d62260ull, 0x3ff712d99ac51284ull,
   0x3ff0000000000000ull, 0x0000000000000000ull},
  {5, 6, 1, 0, 0, 140, 168, 140, 168, 672,
   0xc01c3b09f50035f3ull, 0x3fdafb5ffd399efcull, 0x3fe57714eea9bba3ull,
   0x3ff3333333333333ull, 0x0000000000000000ull},
}};
const GoldenRun kSyncPartialQ8Ef =
{"sync_partial_q8_ef", 0xb75eb6aa97d487baull, {
  {0, 6, 0, 2, 0, 114, 114, 168, 168, 672,
   0xbfa08a8dd5c190f5ull, 0x3fd1328bbc5b5443ull, 0x4017f741395206c3ull,
   0x3fcc28f5c28f5c29ull, 0x0000000000000000ull},
  {1, 6, 0, 1, 0, 114, 114, 168, 168, 672,
   0xbf819bb99c7c7f00ull, 0x3fd4ceac4fd4c6ecull, 0x4007e8ead8b2de23ull,
   0x3fdc28f5c28f5c29ull, 0x0000000000000000ull},
  {2, 6, 0, 4, 0, 114, 114, 168, 168, 672,
   0xc015f0f2bf9d30c0ull, 0x3fd69fee889a59f7ull, 0x4000775c9a7ee518ull,
   0x3fe51eb851eb851full, 0x0000000000000000ull},
  {3, 6, 0, 2, 0, 114, 114, 168, 168, 672,
   0xc003ce64c12eaf0dull, 0x3fd79cf4577e8d63ull, 0x3ff926b3e810c82full,
   0x3fec28f5c28f5c29ull, 0x0000000000000000ull},
  {4, 6, 0, 1, 0, 114, 114, 168, 168, 672,
   0xc00962334022ec70ull, 0x3fd96f8e938a6e43ull, 0x3fefcd355317cde8ull,
   0x3ff199999999999aull, 0x0000000000000000ull},
  {5, 6, 0, 1, 0, 114, 114, 168, 168, 672,
   0xc01c7f7b00111a1full, 0x3fdce49fb2ba33dcull, 0x3fd234ca556bf7c0ull,
   0x3ff51eb851eb851full, 0x0000000000000000ull},
}};
const GoldenRun kSyncW2Tiered =
{"sync_w2_tiered", 0xf6b561c6e48a8319ull, {
  {0, 6, 0, 0, 0, 168, 168, 168, 168, 280,
   0xbfa08db750808ed0ull, 0x3fd1d1d27760e254ull, 0x40157b394b4a0ee9ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 6, 0, 0, 0, 168, 168, 168, 168, 280,
   0xbf87c85f11f84455ull, 0x3fd55243edd23b22ull, 0x4005c0b369636c25ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 6, 0, 0, 0, 168, 168, 168, 168, 280,
   0xc015f75682720f85ull, 0x3fd791faffcf620dull, 0x3ffc18acc0fe8a93ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {3, 6, 0, 0, 0, 168, 168, 168, 168, 280,
   0xc003d8e68850d351ull, 0x3fd81af1b8939e4eull, 0x3ff74e57ced1caecull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {4, 6, 0, 0, 0, 168, 168, 168, 168, 280,
   0xc009722032813413ull, 0x3fd9e942954bea23ull, 0x3fecde666dd1ace0ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {5, 6, 0, 0, 0, 168, 168, 168, 168, 280,
   0xc01c883f2708c213ull, 0x3fddbe082b159c5eull, 0x3fc2db1ae29facf7ull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
const GoldenRun kBuffered =
{"buffered", 0x329271179ca8522eull, {
  {0, 3, 0, 0, 0, 84, 224, 84, 224, 672,
   0x3fe8626d4bb7f9adull, 0x3fd0949b39bff1dbull, 0x401a7c07b684e815ull,
   0x3fc20c82eda3f85bull, 0x0000000000000000ull},
  {1, 3, 3, 0, 1, 84, 168, 84, 168, 672,
   0xbfc3e80d192d8b6dull, 0x3fd430eee3179059ull, 0x400a0a686e48ec0full,
   0x3fd2065feea10f73ull, 0x3fe5555555555555ull},
  {2, 3, 0, 0, 1, 84, 84, 84, 84, 672,
   0xc01dafb0b868a78dull, 0x3fd819b4f12398e2ull, 0x3ff6c8f918c0e257ull,
   0x3fd3e007cfb1ffacull, 0x3ff0000000000000ull},
  {3, 3, 2, 0, 1, 84, 140, 84, 140, 672,
   0xbfc93330bd26c4f9ull, 0x3fd9cd34b00b84bdull, 0x3fef92e9303c1775ull,
   0x3fdb58dfdd02a4cbull, 0x3fe5555555555555ull},
  {4, 3, 2, 0, 1, 84, 140, 84, 140, 672,
   0xc022bb9fda523b02ull, 0x3fdc9faec5ca8097ull, 0x3fd715cbb7426fe0ull,
   0x3fe15be3ce20a4f9ull, 0x3fd5555555555555ull},
  {5, 3, 2, 0, 1, 84, 140, 84, 140, 672,
   0xc01163e02fcc7de9ull, 0x3fdd0adc7e7ab205ull, 0x3fd5d0e859b9d9c5ull,
   0x3fe4ec7d4b16698bull, 0x3fe5555555555555ull},
  {6, 3, 0, 0, 1, 84, 84, 84, 84, 672,
   0xc02411743c280df5ull, 0x3fdf83064370702bull, 0xbf93fd45c8d79e3bull,
   0x3fe654627e60b0c7ull, 0x3ff0000000000000ull},
  {7, 3, 4, 0, 1, 84, 196, 84, 196, 672,
   0xc01ccb9af474c1f1ull, 0x3fdec6f3b9dfd637ull, 0x3fbde2391ca274c1ull,
   0x3fecb00084aca319ull, 0x3fd5555555555555ull},
  {8, 3, 1, 0, 1, 84, 112, 84, 112, 672,
   0xc0233e11c90a1873ull, 0x3fe015bcc578a1c8ull, 0xbf9bc006d312a5f5ull,
   0x3fee5b687bba6d81ull, 0x3ff0000000000000ull},
  {9, 3, 1, 0, 1, 84, 112, 84, 112, 672,
   0xc020afdbfa1064d9ull, 0x3fe0990452e8f4e3ull, 0xbfc0d192a90535ecull,
   0x3ff13a54c11b08e1ull, 0x3fe5555555555555ull},
  {10, 3, 3, 0, 1, 84, 168, 84, 168, 672,
   0xc01a6d1beabb6eddull, 0x3fe07caa9c005994ull, 0xbfc3f349b77c32a3ull,
   0x3ff2970b2b6d8cb8ull, 0x3fe5555555555555ull},
  {11, 3, 0, 0, 1, 84, 84, 84, 84, 672,
   0xc0237c1c0ef14ec7ull, 0x3fe0eee8b67f2e2eull, 0xbfcd5a0d32573325ull,
   0x3ff31f92c1a4d6edull, 0x3ff0000000000000ull},
}};
const GoldenRun kAsync =
{"async", 0xff3e92b46dd3c873ull, {
  {0, 1, 0, 0, 0, 28, 168, 28, 168, 672,
   0x401b1cc261b6b855ull, 0x3fcdeac61fa5783dull, 0x4022921cdf5e3419ull,
   0x3fb0a8973ab80ecfull, 0x0000000000000000ull},
  {1, 1, 0, 0, 1, 28, 28, 28, 28, 672,
   0xc01543b060f763faull, 0x3fd020be8bab6684ull, 0x401d6713dbbfe703ull,
   0x3fbbf58d0810adf2ull, 0x3ff0000000000000ull},
  {2, 1, 0, 0, 2, 28, 28, 28, 28, 672,
   0x3fea5eb7dd2d4a32ull, 0x3fd0949b39bff1dbull, 0x401a7c07b684e815ull,
   0x3fc20c82eda3f85bull, 0x4000000000000000ull},
  {3, 1, 0, 0, 2, 28, 28, 28, 28, 672,
   0x4004d75651ed2724ull, 0x3fd2344f1bcf7d07ull, 0x40132c65c2453176ull,
   0x3fc25165d9d8da9cull, 0x4000000000000000ull},
  {4, 1, 0, 0, 4, 28, 28, 28, 28, 672,
   0xbff5dfd072ffcbfaull, 0x3fd26699d492067eull, 0x4012acdc23c55940ull,
   0x3fcb860a019707fbull, 0x4010000000000000ull},
  {5, 1, 0, 1, 5, 28, 28, 28, 28, 672,
   0x3fef1d4a0eeb818dull, 0x3fd296e408194efdull, 0x401207594135d9dcull,
   0x3fcc28f5c28f5c29ull, 0x4014000000000000ull},
  {6, 1, 0, 1, 6, 28, 28, 28, 28, 672,
   0xc000ae857291030cull, 0x3fd3061863ae2376ull, 0x4010b01c70dd210dull,
   0x3fcc28f5c28f5c29ull, 0x4018000000000000ull},
  {7, 1, 0, 0, 5, 28, 28, 28, 28, 672,
   0xc0040113da133600ull, 0x3fd3f70123b1ee4bull, 0x400b5bd9a9995503ull,
   0x3fccb91edcd20a34ull, 0x4014000000000000ull},
  {8, 1, 0, 0, 3, 28, 28, 28, 28, 672,
   0xbfe47993cf93e3c8ull, 0x3fd4d08a8edfca55ull, 0x4007864eb3e0952cull,
   0x3fd2fc98229fc6a3ull, 0x4008000000000000ull},
  {9, 1, 0, 0, 1, 28, 28, 28, 28, 672,
   0xc02476ee16ca596bull, 0x3fd5f35336c92bc4ull, 0x4002757173ba9dc2ull,
   0x3fd3e007cfb1ffacull, 0x3ff0000000000000ull},
  {10, 1, 0, 0, 4, 28, 28, 28, 28, 672,
   0xc02676f605d5323eull, 0x3fd843069f132012ull, 0x3ff676ea38d3ff33ull,
   0x3fd44a7d3ebc001cull, 0x4010000000000000ull},
  {11, 1, 0, 0, 4, 28, 28, 28, 28, 672,
   0xbfeb87f95e26d832ull, 0x3fd8318afcb45f6dull, 0x3ff67db7e733f123ull,
   0x3fd4f332106f33c8ull, 0x4010000000000000ull},
  {12, 1, 0, 0, 9, 28, 28, 28, 28, 672,
   0x401a0217b2bcd1f2ull, 0x3fd8e079ebf8d1e6ull, 0x3ff2d760e9f6db40ull,
   0x3fd6a49086812b50ull, 0x4022000000000000ull},
  {13, 1, 0, 1, 9, 28, 28, 28, 28, 672,
   0xc00c94259af0cff5ull, 0x3fd925c7bb9c9148ull, 0x3ff1aa158e14594dull,
   0x3fd73d2dce341b62ull, 0x4022000000000000ull},
  {14, 1, 0, 0, 3, 28, 28, 28, 28, 672,
   0xc02494578e6e0d68ull, 0x3fda1f3765163523ull, 0x3fecea19e7847433ull,
   0x3fdad908a19117b6ull, 0x4008000000000000ull},
  {15, 1, 0, 0, 2, 28, 28, 28, 28, 672,
   0x4023633fddb5c837ull, 0x3fd9a9416af385f4ull, 0x3ff06468ed39e847ull,
   0x3fdbab364bcc48afull, 0x4000000000000000ull},
  {16, 1, 0, 0, 6, 28, 28, 28, 28, 672,
   0xbfb2be25e0421150ull, 0x3fda850f2c228574ull, 0x3fe94073b8d1c7a4ull,
   0x3fdc3618827385a3ull, 0x4018000000000000ull},
  {17, 1, 0, 0, 3, 28, 28, 28, 28, 672,
   0xc0116bc942cd45baull, 0x3fdb1ece44b8f0d3ull, 0x3fe4663eb8087c78ull,
   0x3fde9c59fa98f500ull, 0x4008000000000000ull},
}};
const GoldenRun kScaffoldSync =
{"scaffold_sync_drop", 0x8dcb4a513fcad616ull, {
  {0, 6, 3, 0, 0, 168, 336, 168, 336, 336,
   0x3fe6d19a8cad3858ull, 0x3fd2bf2b7960bcb4ull, 0x4010a3d28a4b1bdbull,
   0x3fc999999999999aull, 0x0000000000000000ull},
  {1, 6, 2, 0, 0, 224, 336, 224, 336, 336,
   0x4004b39ad500ee22ull, 0x3fd70c99907845f7ull, 0x3ffbb468586b7a24ull,
   0x3fd999999999999aull, 0x0000000000000000ull},
  {2, 6, 4, 0, 0, 112, 336, 112, 336, 336,
   0xbfded958205cac8aull, 0x3fd8730e2eb76d97ull, 0x3ff3afd85c057abcull,
   0x3fe3333333333334ull, 0x0000000000000000ull},
  {3, 6, 3, 0, 0, 168, 336, 168, 336, 336,
   0xbffe7a64ad8a65c8ull, 0x3fe023ae972e2b96ull, 0xbfc69ea592a1e044ull,
   0x3fe999999999999aull, 0x0000000000000000ull},
  {4, 6, 2, 0, 0, 224, 336, 224, 336, 336,
   0xbff1433868f22229ull, 0x3fe1c4708218c5d6ull, 0xbfdb8ae768ffc200ull,
   0x3ff0000000000000ull, 0x0000000000000000ull},
  {5, 6, 1, 0, 0, 280, 336, 280, 336, 336,
   0xbffe511038618d86ull, 0x3fe24c01b7305eb8ull, 0xbfdf6b848dc37893ull,
   0x3ff3333333333333ull, 0x0000000000000000ull},
}};
const GoldenRun kFedPdSync =
{"fedpd_sync", 0x768b176bdf7792e8ull, {
  {0, 12, 0, 0, 0, 336, 336, 336, 336, 672,
   0xbfe37441945c46ccull, 0x3fdbbbcf5c7f0f16ull, 0x3fdfef539f296b7dull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 12, 0, 0, 0, 0, 336, 0, 336, 672,
   0xc0108df64dd5775bull, 0x3fdbbbcf5c7f0f16ull, 0x3fdfef539f296b7dull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 12, 0, 0, 0, 336, 336, 336, 336, 672,
   0xc0184427f2a03d24ull, 0x3fdd39420fa06002ull, 0x3fd20d0fd4d5d258ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {3, 12, 0, 0, 0, 0, 336, 0, 336, 672,
   0xc01a42f8d4aca1f7ull, 0x3fdd39420fa06002ull, 0x3fd20d0fd4d5d258ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {4, 12, 0, 0, 0, 0, 336, 0, 336, 672,
   0xc01a709979f63fccull, 0x3fdd39420fa06002ull, 0x3fd20d0fd4d5d258ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {5, 12, 0, 0, 0, 0, 336, 0, 336, 672,
   0xc018cefd86320f4dull, 0x3fdd39420fa06002ull, 0x3fd20d0fd4d5d258ull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
// Added later, captured before the multi-row dense forward, the
// parameter-only first-layer backward and the fused proximal step landed;
// those must leave every constant here unchanged.
const GoldenRun kFedAvgSync =
{"fedavg_sync", 0x4aceba5d94bb4b67ull, {
  {0, 6, 0, 0, 0, 168, 168, 168, 168, 0,
   0xbfb03b65dae83360ull, 0x3fd1db34d2814e26ull, 0x40155418c645975cull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 6, 0, 0, 0, 168, 168, 168, 168, 0,
   0x3ff0cf01c853b775ull, 0x3fd62746b4d5f126ull, 0x400260103dc7b552ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 6, 0, 0, 0, 168, 168, 168, 168, 0,
   0xc00f872cf91fc048ull, 0x3fd8bcd0821c23abull, 0x3ff5e16ba7529dddull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {3, 6, 0, 0, 0, 168, 168, 168, 168, 0,
   0xc0031a2bf227db4cull, 0x3fdc517b72c58382ull, 0x3fda316c69051b30ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {4, 6, 0, 0, 0, 168, 168, 168, 168, 0,
   0xbff43fc13993a524ull, 0x3fdfb73de3faf356ull, 0xbfc027710a2473f5ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {5, 6, 0, 0, 0, 168, 168, 168, 168, 0,
   0xc0157b4a9ade7771ull, 0x3fe4433b3fb4b9d3ull, 0xbfe7bfae5e03cff4ull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
const GoldenRun kFrozenDualsSync =
{"fedadmm_frozen_duals_sync", 0x17bdd8a3b87a9f75ull, {
  {0, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xbfa08db750808ed0ull, 0x3fd01d06afa03073ull, 0x401dc937347449e1ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xbf8c543a668079abull, 0x3fd1d16fd91fdbd8ull, 0x401575311256e093ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc0160eb35c70cb6bull, 0x3fd38172ff6a464aull, 0x400f4fc8c65d2644ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {3, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc003d57c302fafe7ull, 0x3fd55914eda61559ull, 0x40058aba12d475edull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {4, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc00990a2cc9d058cull, 0x3fd6b762518deae0ull, 0x40002fb2c5d59f6full,
   0x0000000000000000ull, 0x0000000000000000ull},
  {5, 6, 0, 0, 0, 168, 168, 168, 168, 672,
   0xc01ce56103ed111cull, 0x3fd8e59260ad4b00ull, 0x3ff3ccef3d16277eull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
const GoldenRun kNnMlpFedAdmm =
{"nn_mlp_fedadmm", 0xad410b2575a80b6full, {
  {0, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fba53f545c00fa3ull, 0x3fd06d3a06d3a06dull, 0x40018d730f5a06f1ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fe44a54ddb0ded6ull, 0x3fe2222222222222ull, 0x3ff721b366f56502ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fcd50e7ce698eebull, 0x3fe3bbbbbbbbbbbcull, 0x3ff207dbb5b38249ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {3, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fc40c7117820637ull, 0x3fe8da740da740daull, 0x3fe607ddb5df495full,
   0x0000000000000000ull, 0x0000000000000000ull},
  {4, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fe30edf7492bb22ull, 0x3fe6666666666666ull, 0x3feebd8530e182fdull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {5, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fb9f139d8506845ull, 0x3fe8888888888889ull, 0x3fed211e6a84c88eull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {6, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fa137559af81aafull, 0x3fe7ae147ae147aeull, 0x3ff4624c2c1357d4ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {7, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fc1c8c1ad7dbacdull, 0x3fe317e4b17e4b18ull, 0x400cca1e5d29c718ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {8, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fda4a1a6c4c6466ull, 0x3fe051eb851eb852ull, 0x401b0c108cf8746cull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {9, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 31752000,
   0x3fa9e15ee9a26c83ull, 0x3fdeeeeeeeeeeeefull, 0x4024ad23b2f0a71eull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
const GoldenRun kNnMlpFedProx =
{"nn_mlp_fedprox", 0xc45e0925ef032987ull, {
  {0, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3fba53f545c00fa3ull, 0x3fbf92c5f92c5f93ull, 0x4005efb632fe47abull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3fbd86aea10b5e03ull, 0x3fd1eb851eb851ecull, 0x4000eb769f379f70ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3fc2c53bf6a9d491ull, 0x3fdb4e81b4e81b4full, 0x3ffaf472552c2074ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {3, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3fc735c5650d2dc2ull, 0x3fe0a3d70a3d70a4ull, 0x3ff65436f24ed253ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {4, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3f99d72c134b3993ull, 0x3fe147ae147ae148ull, 0x3ff4d6c371e1c785ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {5, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3fb02e9c85a9cb41ull, 0x3fe28f5c28f5c28full, 0x3ff4412285dd8542ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {6, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3f95c27184cd1e33ull, 0x3fe40da740da740eull, 0x3ff256b81a0525afull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {7, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3f93ce5d49a023f8ull, 0x3fe58bf258bf258cull, 0x3ff06dd140a0034full,
   0x0000000000000000ull, 0x0000000000000000ull},
  {8, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3fc4972359536936ull, 0x3fe7e4b17e4b17e5ull, 0x3fe98aa93ba191f9ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {9, 10, 0, 0, 0, 1587600, 1587600, 1587600, 1587600, 0,
   0x3fa94a7bf086e81cull, 0x3fe740da740da741ull, 0x3fe9b20cac9a07f1ull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
const GoldenRun kNnCnnFedAdmm =
{"nn_cnn_fedadmm", 0x8e3f7a0c77426445ull, {
  {0, 10, 0, 0, 0, 231440, 231440, 231440, 231440, 4628800,
   0x3ff9f082ac6d2b68ull, 0x3fc70a3d70a3d70aull, 0x40025233a0d44216ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {1, 10, 0, 0, 0, 231440, 231440, 231440, 231440, 4628800,
   0x3ff002e9765209a5ull, 0x3fc4e81b4e81b4e8ull, 0x4001f114d42e79c7ull,
   0x0000000000000000ull, 0x0000000000000000ull},
  {2, 10, 0, 0, 0, 231440, 231440, 231440, 231440, 4628800,
   0x3ff0ceaf600c00eaull, 0x3fc5c28f5c28f5c3ull, 0x4001655305867856ull,
   0x0000000000000000ull, 0x0000000000000000ull},
}};
// clang-format on
// GOLDEN_END

TEST(EngineGoldenTest, SyncWithoutSystemModel) {
  const RunOutput out = RunScenario(Scenario{});
  ExpectGolden(kSyncPlain, out.theta, out.history);
}

TEST(EngineGoldenTest, SyncCellularDeadlineDrop) {
  const SystemModel model = CellularModel("deadline-drop", 0.2);
  Scenario s;
  s.model = &model;
  const RunOutput out = RunScenario(s);
  ExpectGolden(kSyncCellularDrop, out.theta, out.history);
}

TEST(EngineGoldenTest, SyncAdmitPartialWithQ8ErrorFeedback) {
  const SystemModel model = CellularModel("deadline-admit-partial", 0.22);
  Scenario s;
  s.model = &model;
  s.uplink = "ef:q8";
  s.downlink = "ef:q8";
  const RunOutput out = RunScenario(s);
  ExpectGolden(kSyncPartialQ8Ef, out.theta, out.history);
}

TEST(EngineGoldenTest, SyncShardedOverTieredStore) {
  const std::string slab =
      ::testing::TempDir() + "engine_golden_tiered.slab";
  Scenario s;
  s.state_store = "tiered:5f:" + slab;
  s.num_shards = 2;
  const RunOutput out = RunScenario(s);
  ExpectGolden(kSyncW2Tiered, out.theta, out.history);
}

TEST(EngineGoldenTest, SyncResumedFromMidRunCheckpoint) {
  // A run killed after half its budget and resumed must land on the
  // uninterrupted run's constants.
  const std::string path = ::testing::TempDir() + "engine_golden_ckpt.slab";
  RemoveFileIfExists(path);
  Scenario s;
  s.checkpoint_path = path;
  s.max_rounds = kRounds / 2;
  (void)RunScenario(s);
  s.max_rounds = kRounds;
  s.restore = true;
  const RunOutput out = RunScenario(s);
  RemoveFileIfExists(path);
  if (CaptureMode()) return;  // same constants as the plain sync run
  ExpectGolden(kSyncPlain, out.theta, out.history);
}

TEST(EngineGoldenTest, Buffered) {
  const SystemModel model = CellularModel("deadline-drop", 0.2);
  Scenario s;
  s.mode = ExecutionMode::kBuffered;
  s.model = &model;
  s.max_rounds = 2 * kRounds;
  const RunOutput out = RunScenario(s);
  ExpectGolden(kBuffered, out.theta, out.history);
}

TEST(EngineGoldenTest, Async) {
  const SystemModel model = CellularModel("deadline-admit-partial", 0.22);
  Scenario s;
  s.mode = ExecutionMode::kAsync;
  s.model = &model;
  s.max_rounds = 3 * kRounds;
  const RunOutput out = RunScenario(s);
  ExpectGolden(kAsync, out.theta, out.history);
}

TEST(EngineGoldenTest, ScaffoldSyncDeadlineDrop) {
  const SystemModel model = CellularModel("deadline-drop", 0.2);
  Scenario s;
  s.algo = "SCAFFOLD";
  s.model = &model;
  const RunOutput out = RunScenario(s);
  ExpectGolden(kScaffoldSync, out.theta, out.history);
}

TEST(EngineGoldenTest, FedPdSync) {
  Scenario s;
  s.algo = "FedPD";
  const RunOutput out = RunScenario(s);
  ExpectGolden(kFedPdSync, out.theta, out.history);
}

TEST(EngineGoldenTest, FedAvgSync) {
  Scenario s;
  s.algo = "FedAvg";
  const RunOutput out = RunScenario(s);
  ExpectGolden(kFedAvgSync, out.theta, out.history);
}

TEST(EngineGoldenTest, FedAdmmFrozenDualsSync) {
  Scenario s;
  s.algo = "FedADMM-frozen";
  const RunOutput out = RunScenario(s);
  ExpectGolden(kFrozenDualsSync, out.theta, out.history);
}

TEST(EngineGoldenTest, NnMlpFedAdmmNonIid) {
  const RunOutput out = RunNnScenario(BenchMlp(), "FedADMM", 10);
  ExpectGolden(kNnMlpFedAdmm, out.theta, out.history);
}

TEST(EngineGoldenTest, NnMlpFedProxNonIid) {
  const RunOutput out = RunNnScenario(BenchMlp(), "FedProx", 10);
  ExpectGolden(kNnMlpFedProx, out.theta, out.history);
}

TEST(EngineGoldenTest, NnCnnFedAdmmNonIid) {
  const RunOutput out = RunNnScenario(BenchCnnConfig(1, 12), "FedADMM", 3);
  ExpectGolden(kNnCnnFedAdmm, out.theta, out.history);
}

}  // namespace
}  // namespace fedadmm
