#include "fl/local_solver.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "fl/quadratic_problem.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

QuadraticProblem MakeProblem(double heterogeneity = 1.0) {
  QuadraticSpec spec;
  spec.num_clients = 4;
  spec.dim = 6;
  spec.heterogeneity = heterogeneity;
  spec.seed = 11;
  return QuadraticProblem(spec);
}

TEST(SampleEpochsTest, FixedWhenHeterogeneityOff) {
  LocalTrainSpec spec;
  spec.max_epochs = 5;
  spec.variable_epochs = false;
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SampleEpochs(spec, &rng), 5);
}

TEST(SampleEpochsTest, UniformWhenHeterogeneityOn) {
  LocalTrainSpec spec;
  spec.max_epochs = 5;
  spec.variable_epochs = true;
  Rng rng(2);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 5000; ++i) {
    const int e = SampleEpochs(spec, &rng);
    ASSERT_GE(e, 1);
    ASSERT_LE(e, 5);
    ++counts[static_cast<size_t>(e)];
  }
  for (int e = 1; e <= 5; ++e) EXPECT_NEAR(counts[static_cast<size_t>(e)], 1000, 150);
}

TEST(LocalSolverTest, ReducesLocalObjective) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(0, 0);
  std::vector<float> w(6, 2.0f);
  std::vector<float> grad(6);
  const double before = local->FullLossGradient(w, grad);

  LocalTrainSpec spec;
  spec.learning_rate = 0.1f;
  spec.batch_size = 0;
  spec.max_epochs = 10;
  Rng rng(3);
  const auto result = RunLocalSgd(local.get(), spec, 10, w, &rng, {});
  const double after = local->FullLossGradient(w, grad);
  EXPECT_LT(after, before);
  EXPECT_EQ(result.epochs_run, 10);
  EXPECT_EQ(result.steps_run, 10);  // full batch: one step per epoch
}

TEST(LocalSolverTest, ProximalTermChangesTrajectory) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(1, 0);
  LocalTrainSpec spec;
  spec.learning_rate = 0.05f;
  spec.batch_size = 0;
  spec.max_epochs = 3;

  std::vector<float> w_plain(6, 1.0f), w_prox(6, 1.0f);
  Rng rng_a(4), rng_b(4);
  RunLocalSgd(local.get(), spec, 3, w_plain, &rng_a, {});
  const std::vector<float> anchor(6, 1.0f);
  ProximalTerm prox;  // g += 10 (w - anchor)
  prox.anchor = anchor;
  prox.rho = 10.0f;
  RunLocalSgd(local.get(), spec, 3, w_prox, &rng_b, prox);
  // The proximal pull keeps w_prox closer to the anchor.
  EXPECT_LT(vec::SquaredDistance(w_prox, anchor),
            vec::SquaredDistance(w_plain, anchor));
}

TEST(LocalSolverTest, ReportsFinalTransformedGradNorm) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(2, 0);
  std::vector<float> w(6, 0.5f);
  LocalTrainSpec spec;
  spec.learning_rate = 0.2f;
  spec.batch_size = 0;
  Rng rng(5);
  const auto result = RunLocalSgd(local.get(), spec, 50, w, &rng, {});
  std::vector<float> grad(6);
  local->FullLossGradient(w, grad);
  EXPECT_NEAR(result.final_grad_norm_sq, vec::SquaredL2Norm(grad), 1e-6);
  EXPECT_LT(result.final_grad_norm_sq, 1e-4);
}

TEST(LocalSolverTest, EpsilonStopsEarly) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(0, 0);
  std::vector<float> w(6, 1.0f);
  LocalTrainSpec spec;
  spec.learning_rate = 0.2f;
  spec.batch_size = 0;
  spec.epsilon = 1e-2;  // generous target: reached before 100 epochs
  Rng rng(6);
  const auto result = RunLocalSgd(local.get(), spec, 100, w, &rng, {});
  EXPECT_LT(result.epochs_run, 100);
  EXPECT_LE(result.final_grad_norm_sq, 1e-2);
}

TEST(LocalSolverTest, MoreEpochsYieldSmallerInexactness) {
  // Table IV intuition: larger local workload -> smaller attained ε_i.
  QuadraticProblem problem = MakeProblem();
  LocalTrainSpec spec;
  spec.learning_rate = 0.1f;
  spec.batch_size = 0;

  auto run = [&](int epochs) {
    auto local = problem.MakeLocalProblem(3, 0);
    std::vector<float> w(6, 1.5f);
    Rng rng(7);
    return RunLocalSgd(local.get(), spec, epochs, w, &rng, {})
        .final_grad_norm_sq;
  };
  const double e1 = run(1);
  const double e5 = run(5);
  const double e20 = run(20);
  EXPECT_GT(e1, e5);
  EXPECT_GT(e5, e20);
}

TEST(LocalSolverTest, DeterministicGivenSeed) {
  QuadraticProblem problem = MakeProblem();
  LocalTrainSpec spec;
  spec.learning_rate = 0.05f;
  spec.batch_size = 2;
  auto run = [&](uint64_t seed) {
    auto local = problem.MakeLocalProblem(1, 0);
    std::vector<float> w(6, 0.3f);
    Rng rng(seed);
    RunLocalSgd(local.get(), spec, 4, w, &rng, {});
    return w;
  };
  EXPECT_EQ(run(42), run(42));
}

// The former two-pass solver: the term added to each batch gradient in
// place, then w += -lr * g through vec::Axpy; the final full gradient gets
// the term alone. Returns the final iterate and its gradient-plus-term norm.
std::pair<std::vector<float>, double> TwoPassReference(
    LocalProblem* local, const LocalTrainSpec& spec, int epochs,
    std::vector<float> w, Rng* rng, const ProximalTerm& term) {
  std::vector<float> grad(w.size());
  auto add_term = [&] {
    for (size_t i = 0; i < grad.size(); ++i) {
      if (!term.anchor.empty() && !term.offset.empty()) {
        grad[i] += term.offset[i] + term.rho * (w[i] - term.anchor[i]);
      } else if (!term.anchor.empty()) {
        grad[i] += term.rho * (w[i] - term.anchor[i]);
      } else if (!term.offset.empty()) {
        grad[i] += term.offset[i];
      }
    }
  };
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const auto& batch : local->EpochBatches(spec.batch_size, rng)) {
      local->BatchLossGradient(w, batch, grad);
      add_term();
      vec::Axpy(-spec.learning_rate, grad, w);
    }
  }
  local->FullLossGradient(w, grad);
  add_term();
  return {w, vec::SquaredL2Norm(grad)};
}

TEST(LocalSolverTest, FusedStepMatchesTwoPassReferenceForEveryTermShape) {
  QuadraticProblem problem = MakeProblem(2.0);
  LocalTrainSpec spec;
  spec.learning_rate = 0.07f;
  spec.batch_size = 2;
  const std::vector<float> offset = {0.3f, -1.1f, 0.0f, 2.5f, -0.25f, 0.9f};
  const std::vector<float> anchor = {1.0f, 0.5f, -0.7f, 0.2f, 3.0f, -2.0f};
  for (int shape = 0; shape < 4; ++shape) {
    SCOPED_TRACE(shape);
    ProximalTerm term;
    if ((shape & 1) != 0) term.offset = offset;
    if ((shape & 2) != 0) term.anchor = anchor;
    term.rho = 0.6f;
    auto local = problem.MakeLocalProblem(2, 0);
    std::vector<float> w(6, 0.4f);
    Rng rng_a(12), rng_b(12);
    const auto [want_w, want_norm] =
        TwoPassReference(local.get(), spec, 3, w, &rng_a, term);
    const auto result = RunLocalSgd(local.get(), spec, 3, w, &rng_b, term);
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(w[i]),
                std::bit_cast<uint32_t>(want_w[i]))
          << i;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(result.final_grad_norm_sq),
              std::bit_cast<uint64_t>(want_norm));
  }
}

TEST(LocalSolverTest, StrongConvexityFromLargeRhoPreventsDivergence) {
  // With a large proximal coefficient the augmented objective is strongly
  // convex even under an aggressive learning rate that would diverge on the
  // raw objective; this is claim (i) of the paper's "Dual variables"
  // discussion.
  QuadraticProblem problem = MakeProblem(3.0);
  auto local = problem.MakeLocalProblem(0, 0);
  const std::vector<float> theta(6, 0.0f);

  LocalTrainSpec spec;
  spec.learning_rate = 0.08f;
  spec.batch_size = 0;
  ProximalTerm admm;  // g += rho (w - theta)
  admm.anchor = theta;
  admm.rho = 10.0f;
  std::vector<float> w(6, 1.0f);
  Rng rng(8);
  const auto result = RunLocalSgd(local.get(), spec, 30, w, &rng, admm);
  EXPECT_TRUE(std::isfinite(result.mean_loss));
  EXPECT_LT(vec::MaxAbs(w), 10.0f);
}

}  // namespace
}  // namespace fedadmm
