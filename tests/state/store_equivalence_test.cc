// Store-backend equivalence property: `lazy` and `tiered` (out-of-core,
// raw fp32 slabs — here with a pool of just 3 frames, so nearly every round
// churns through the slab log) replay bitwise identically to `dense` — the
// historical layout — on
// seeded FedADMM + FedPD + SCAFFOLD runs, across thread counts; and `lazy`
// resident bytes track the touched population.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fedadmm.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/scaffold.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"

namespace fedadmm {
namespace {

constexpr int kClients = 12;
constexpr int kDim = 9;
constexpr int kRounds = 14;

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = kClients;
  spec.dim = kDim;
  spec.heterogeneity = 1.3;
  spec.seed = 55;
  return spec;
}

std::unique_ptr<FederatedAlgorithm> MakeAlgo(const std::string& name) {
  LocalTrainSpec local;
  local.learning_rate = 0.05f;
  local.batch_size = 3;
  local.max_epochs = 2;
  if (name == "FedADMM") {
    FedAdmmOptions options;
    options.local = local;
    options.rho = StepSchedule(0.4);
    options.eta_active_fraction = true;
    return std::make_unique<FedAdmm>(options);
  }
  if (name == "FedPD") {
    return std::make_unique<FedPd>(local, 0.5f, 0.6, /*seed=*/7);
  }
  return std::make_unique<Scaffold>(local);
}

struct RunOutput {
  std::vector<float> theta;
  History history;
};

RunOutput RunWith(const std::string& algo_name,
                  const std::string& state_store, int threads) {
  QuadraticProblem problem(Spec());
  auto algo = MakeAlgo(algo_name);
  std::unique_ptr<ClientSelector> selector;
  if (algo_name == "FedPD") {
    selector = std::make_unique<FullParticipationSelector>(kClients);
  } else {
    selector = std::make_unique<UniformFractionSelector>(kClients, 0.5);
  }
  SimulationConfig config;
  config.max_rounds = kRounds;
  config.seed = 21;
  config.num_threads = threads;
  config.state_store = state_store;
  Simulation sim(&problem, algo.get(), selector.get(), config);
  RunOutput out;
  out.history = std::move(sim.Run()).ValueOrDie();
  out.theta = sim.theta();
  return out;
}

class BackendEquivalenceSweep
    : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendEquivalenceSweep, LazyAndTieredMatchDenseBitwise) {
  const std::string algo = GetParam();
  const RunOutput dense = RunWith(algo, "dense", /*threads=*/1);
  // The tiered pool holds 3 frames against 12 clients × up-to-2 slots:
  // constant eviction/fault traffic, yet bitwise replay must hold.
  const std::string tiered =
      "tiered:3f:" + ::testing::TempDir() + "store_eq_" + algo + ".slab";
  for (const std::string& backend : {std::string("lazy"), tiered}) {
    for (int threads : {1, 4}) {
      const RunOutput run = RunWith(algo, backend, threads);
      EXPECT_EQ(run.theta, dense.theta)
          << algo << " " << backend << " threads=" << threads;
      ASSERT_EQ(run.history.size(), dense.history.size());
      for (int r = 0; r < run.history.size(); ++r) {
        const RoundRecord& a = run.history.records()[static_cast<size_t>(r)];
        const RoundRecord& b =
            dense.history.records()[static_cast<size_t>(r)];
        EXPECT_EQ(a.train_loss, b.train_loss) << backend << " round " << r;
        EXPECT_EQ(a.test_accuracy, b.test_accuracy);
        EXPECT_EQ(a.upload_bytes, b.upload_bytes);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BackendEquivalenceSweep,
                         ::testing::Values("FedADMM", "FedPD", "SCAFFOLD"));

// A fixed-set selector so the touched population is known exactly.
class FixedSetSelector : public ClientSelector {
 public:
  FixedSetSelector(int num_clients, std::vector<int> set)
      : num_clients_(num_clients), set_(std::move(set)) {}
  std::vector<int> Select(int round, Rng* rng) override {
    (void)round;
    (void)rng;
    return set_;
  }
  int num_clients() const override { return num_clients_; }
  std::string name() const override { return "fixed-set"; }

 private:
  int num_clients_;
  std::vector<int> set_;
};

TEST(StateBytesResidentTest, LazyEqualsTouchedClientsTimesSlotBytes) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.max_epochs = 2;
  options.rho = StepSchedule(0.4);
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  FixedSetSelector selector(kClients, {2, 5, 7});
  SimulationConfig config;
  config.max_rounds = 6;
  config.seed = 3;
  config.state_store = "lazy";
  Simulation sim(&problem, &algo, &selector, config);
  const History history = std::move(sim.Run()).ValueOrDie();

  // 3 touched clients × 2 slots (w_i, y_i) × d floats.
  const int64_t expected = 3 * 2 * kDim * 4;
  EXPECT_EQ(algo.StateBytesResident(), expected);
  EXPECT_EQ(algo.state_store().num_touched_clients(), 3);
  // The cost surface reaches the per-round records (and the CSV schema).
  for (const RoundRecord& r : history.records()) {
    EXPECT_EQ(r.state_bytes_resident, expected);
  }
}

TEST(StateBytesResidentTest, DenseReportsFullArenaFromRoundZero) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.local.max_epochs = 1;
  options.rho = StepSchedule(0.4);
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  FixedSetSelector selector(kClients, {0});
  SimulationConfig config;
  config.max_rounds = 2;
  config.seed = 3;
  // Default (empty) spec → FedAdmmOptions default "dense".
  Simulation sim(&problem, &algo, &selector, config);
  const History history = std::move(sim.Run()).ValueOrDie();
  const int64_t dense_bytes = static_cast<int64_t>(kClients) * 2 * kDim * 4;
  for (const RoundRecord& r : history.records()) {
    EXPECT_EQ(r.state_bytes_resident, dense_bytes);
  }
}

TEST(StateStoreConfigTest, BadSpecFailsFastWithStatus) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  config.state_store = "zstd";
  Simulation sim(&problem, &algo, &selector, config);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("zstd"), std::string::npos);
}

// FedADMM whose own fallback spec is unparseable.
class BadDefaultStoreFedAdmm : public FedAdmm {
 public:
  using FedAdmm::FedAdmm;
  std::string DefaultStateStoreSpec() const override { return "quantized:20"; }
};

TEST(StateStoreConfigTest, BadAlgorithmDefaultSpecAlsoFailsFast) {
  // The algorithm-default path: SimulationConfig::state_store empty, the
  // algorithm's own default bad — still a Status, not a CHECK mid-Setup.
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  BadDefaultStoreFedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  Simulation sim(&problem, &algo, &selector, config);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("20"), std::string::npos);
}

}  // namespace
}  // namespace fedadmm
