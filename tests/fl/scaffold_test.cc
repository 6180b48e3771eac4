#include "fl/algorithms/scaffold.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 6;
  spec.dim = 8;
  spec.heterogeneity = 2.0;
  spec.seed = 31;
  return spec;
}

AlgorithmContext Ctx(const QuadraticProblem& p) {
  AlgorithmContext ctx;
  ctx.num_clients = p.num_clients();
  ctx.dim = p.dim();
  return ctx;
}

LocalTrainSpec Local() {
  LocalTrainSpec local;
  local.learning_rate = 0.05f;
  local.batch_size = 0;
  local.max_epochs = 3;
  local.variable_epochs = false;
  return local;
}

TEST(ScaffoldTest, ControlsStartAtZero) {
  QuadraticProblem problem(Spec());
  Scaffold algo(Local());
  std::vector<float> theta(8, 0.0f);
  algo.Setup(Ctx(problem), theta);
  EXPECT_EQ(vec::L2Norm(algo.server_control()), 0.0);
  for (int i = 0; i < problem.num_clients(); ++i) {
    EXPECT_EQ(vec::L2Norm(algo.client_control(i)), 0.0);
  }
}

TEST(ScaffoldTest, UploadsTwoVectors) {
  QuadraticProblem problem(Spec());
  Scaffold algo(Local());
  std::vector<float> theta(8, 0.5f);
  algo.Setup(Ctx(problem), theta);
  auto lp = problem.MakeLocalProblem(0, 0);
  const UpdateMessage msg = algo.ClientUpdate(0, 0, theta, lp.get(), Rng(1));
  EXPECT_EQ(msg.delta.size(), 8u);
  EXPECT_EQ(msg.delta2.size(), 8u);
  // Both upload and download are doubled vs FedAvg (paper Section I/III-B).
  EXPECT_EQ(msg.UploadBytes(), 2 * 8 * 4);
  EXPECT_EQ(algo.DownloadBytesPerClient(), 2 * 8 * 4);
}

TEST(ScaffoldTest, ControlRefreshMatchesOptionII) {
  QuadraticProblem problem(Spec());
  const LocalTrainSpec local = Local();
  Scaffold algo(local);
  std::vector<float> theta(8, 0.5f);
  algo.Setup(Ctx(problem), theta);
  auto lp = problem.MakeLocalProblem(2, 0);
  const UpdateMessage msg = algo.ClientUpdate(2, 0, theta, lp.get(), Rng(2));

  // With c = c_i = 0: c_i+ = (θ - w+)/(K η_l) = -Δw / (K η_l).
  const float inv = 1.0f / (static_cast<float>(msg.steps_run) *
                            local.learning_rate);
  const auto& c_i = algo.client_control(2);
  for (size_t k = 0; k < c_i.size(); ++k) {
    EXPECT_NEAR(c_i[k], -msg.delta[k] * inv, 1e-5f);
    EXPECT_NEAR(msg.delta2[k], c_i[k], 1e-6f);  // Δc from zero init
  }
}

TEST(ScaffoldTest, ServerControlUpdateScalesByParticipation) {
  QuadraticProblem problem(Spec());  // m = 6
  Scaffold algo(Local());
  std::vector<float> theta(8, 0.0f);
  algo.Setup(Ctx(problem), theta);

  UpdateMessage m1, m2, m3;
  for (UpdateMessage* m : {&m1, &m2, &m3}) {
    m->delta.assign(8, 0.0f);
    m->delta2.assign(8, 1.0f);
  }
  algo.ServerUpdate({m1, m2, m3}, 0, &theta);
  // c += (|S|/m) * mean(Δc) = (3/6) * 1 = 0.5.
  for (float v : algo.server_control()) EXPECT_FLOAT_EQ(v, 0.5f);
}

TEST(ScaffoldTest, FirstRoundMatchesFedAvgGivenZeroControls) {
  // With all controls zero the correction term vanishes, so the first
  // ClientUpdate must follow the FedAvg trajectory exactly.
  QuadraticProblem problem(Spec());
  Scaffold algo(Local());
  std::vector<float> theta(8, 1.0f);
  algo.Setup(Ctx(problem), theta);
  auto lp = problem.MakeLocalProblem(1, 0);
  const UpdateMessage msg = algo.ClientUpdate(1, 0, theta, lp.get(), Rng(3));

  std::vector<float> w = theta;
  std::vector<float> grad(8);
  for (int e = 0; e < 3; ++e) {
    problem.ClientGradient(1, w, grad);
    vec::Axpy(-0.05f, grad, std::span<float>(w));
  }
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(msg.delta[i], w[i] - theta[i], 1e-5f);
  }
}

TEST(ScaffoldTest, ConvergesOnHeterogeneousQuadratic) {
  QuadraticProblem problem(Spec());
  Scaffold algo(Local());
  UniformFractionSelector selector(problem.num_clients(), 0.5);
  SimulationConfig config;
  config.max_rounds = 250;
  config.seed = 9;
  config.num_threads = 2;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  EXPECT_LT(problem.DistanceToOptimum(sim.theta()), 0.2);
}

TEST(ScaffoldTest, RequiresControlDeltasInServerUpdate) {
  QuadraticProblem problem(Spec());
  Scaffold algo(Local());
  std::vector<float> theta(8, 0.0f);
  algo.Setup(Ctx(problem), theta);
  UpdateMessage bad;
  bad.delta.assign(8, 0.0f);  // missing delta2
  EXPECT_DEATH(algo.ServerUpdate({bad}, 0, &theta), "control deltas");
}

TEST(ScaffoldTest, ExtraStateBytesArePinned) {
  // The extra-state blob rides in every checkpoint: u64 count + the
  // server control c as raw little-endian fp32.
  QuadraticProblem problem(Spec());  // m = 6
  Scaffold algo(Local());
  std::vector<float> theta(8, 0.0f);
  algo.Setup(Ctx(problem), theta);
  UpdateMessage msg;
  msg.delta.assign(8, 0.0f);
  for (int k = 0; k < 8; ++k) msg.delta2.push_back(0.25f * (k - 3));
  algo.ServerUpdate({msg, msg}, 0, &theta);
  const std::string blob = algo.SerializeExtraState();
  const std::vector<uint8_t> bytes(blob.begin(), blob.end());
  const std::vector<uint8_t> expected = {
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // count
      0x00, 0x00, 0x80, 0xBE, 0xAB, 0xAA, 0x2A, 0xBE,  // -1/4, -1/6
      0xAB, 0xAA, 0xAA, 0xBD, 0x00, 0x00, 0x00, 0x00,  // -1/12, 0
      0xAB, 0xAA, 0xAA, 0x3D, 0xAB, 0xAA, 0x2A, 0x3E,  // 1/12, 1/6
      0x00, 0x00, 0x80, 0x3E, 0xAB, 0xAA, 0xAA, 0x3E,  // 1/4, 1/3
  };
  EXPECT_EQ(bytes, expected);
}

}  // namespace
}  // namespace fedadmm
