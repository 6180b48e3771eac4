#include "fl/algorithms/fedpd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "util/file_io.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 5;
  spec.dim = 6;
  spec.heterogeneity = 1.0;
  spec.seed = 41;
  return spec;
}

LocalTrainSpec Local() {
  LocalTrainSpec local;
  local.learning_rate = 0.05f;
  local.batch_size = 0;
  local.max_epochs = 5;
  local.variable_epochs = false;
  return local;
}

TEST(FedPdTest, CommunicatesOnlyWithProbabilityP) {
  QuadraticProblem problem(Spec());
  FedPd algo(Local(), /*rho=*/1.0f, /*comm_probability=*/0.3, /*seed=*/7);
  FullParticipationSelector selector(problem.num_clients());
  SimulationConfig config;
  config.max_rounds = 120;
  config.seed = 2;
  config.num_threads = 2;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  // Roughly p*T aggregation rounds (the paper's point: global update
  // frequency is throttled by p).
  EXPECT_GT(algo.communication_rounds(), 15);
  EXPECT_LT(algo.communication_rounds(), 60);
}

TEST(FedPdTest, NonCommunicationRoundsUploadNothing) {
  QuadraticProblem problem(Spec());
  FedPd algo(Local(), 1.0f, /*comm_probability=*/0.0, 7);
  FullParticipationSelector selector(problem.num_clients());
  SimulationConfig config;
  config.max_rounds = 5;
  config.seed = 3;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->TotalUploadBytes(), 0);
  EXPECT_EQ(algo.communication_rounds(), 0);
}

TEST(FedPdTest, AlwaysCommunicateConvergesToConsensusOptimum) {
  QuadraticProblem problem(Spec());
  FedPd algo(Local(), /*rho=*/2.0f, /*comm_probability=*/1.0, 7);
  FullParticipationSelector selector(problem.num_clients());
  SimulationConfig config;
  config.max_rounds = 400;
  config.seed = 4;
  config.num_threads = 2;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  EXPECT_LT(problem.DistanceToOptimum(sim.theta()), 0.15);
}

TEST(FedPdTest, AllClientsComputeEveryRound) {
  // The paper's critique: FedPD keeps every device busy each round. The
  // simulator reflects this via full participation in every record.
  QuadraticProblem problem(Spec());
  FedPd algo(Local(), 1.0f, 0.5, 7);
  FullParticipationSelector selector(problem.num_clients());
  SimulationConfig config;
  config.max_rounds = 10;
  config.seed = 5;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  for (const RoundRecord& r : history->records()) {
    EXPECT_EQ(r.num_selected, problem.num_clients());
  }
}

TEST(FedPdTest, ExtraStateBytesArePinned) {
  // The extra-state blob rides in every checkpoint: u64 length + the coin
  // stream's text state, u32 communication rounds, u8 this-round coin.
  QuadraticProblem problem(Spec());
  FedPd algo(Local(), 1.0f, 0.5, 7);
  FullParticipationSelector selector(problem.num_clients());
  SimulationConfig config;
  config.max_rounds = 6;
  config.seed = 5;
  Simulation sim(&problem, &algo, &selector, config);
  ASSERT_TRUE(sim.Run().ok());
  const std::string blob = algo.SerializeExtraState();
  ASSERT_EQ(blob.size(), 6357u);
  const std::vector<uint8_t> head(blob.begin(), blob.begin() + 8);
  EXPECT_EQ(head, (std::vector<uint8_t>{0xC8, 0x18, 0, 0, 0, 0, 0, 0}));  // 6344
  const std::vector<uint8_t> tail(blob.end() - 5, blob.end());
  EXPECT_EQ(tail, (std::vector<uint8_t>{0x02, 0x00, 0x00, 0x00, 0x01}));
  EXPECT_EQ(Crc32(blob.data(), blob.size()), 0x494FF1F3u);
}

}  // namespace
}  // namespace fedadmm
