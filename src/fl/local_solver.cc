#include "fl/local_solver.h"

#include "tensor/simd/simd.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

const float* DataOrNull(std::span<const float> v) {
  return v.empty() ? nullptr : v.data();
}

// g += offset + rho * (w - anchor), with the op order of the fused step
// (simd.h) so the inexactness check sees the gradient the steps used.
void AddTerm(const ProximalTerm& term, std::span<const float> w,
             std::span<float> grad) {
  const size_t n = grad.size();
  if (!term.anchor.empty()) {
    for (size_t i = 0; i < n; ++i) {
      const float pull = term.rho * (w[i] - term.anchor[i]);
      grad[i] += term.offset.empty() ? pull : term.offset[i] + pull;
    }
  } else if (!term.offset.empty()) {
    for (size_t i = 0; i < n; ++i) grad[i] += term.offset[i];
  }
}

}  // namespace

int SampleEpochs(const LocalTrainSpec& spec, Rng* rng) {
  FEDADMM_CHECK_MSG(spec.max_epochs >= 1, "max_epochs must be >= 1");
  if (!spec.variable_epochs) return spec.max_epochs;
  return static_cast<int>(rng->UniformInt(1, spec.max_epochs));
}

LocalSolveResult RunLocalSgd(LocalProblem* problem,
                             const LocalTrainSpec& spec, int epochs,
                             std::span<float> w, Rng* rng,
                             const ProximalTerm& term) {
  FEDADMM_CHECK(problem != nullptr);
  FEDADMM_CHECK(static_cast<int64_t>(w.size()) == problem->dim());
  FEDADMM_CHECK_MSG(epochs >= 1, "epochs must be >= 1");
  FEDADMM_CHECK(term.offset.empty() || term.offset.size() == w.size());
  FEDADMM_CHECK(term.anchor.empty() || term.anchor.size() == w.size());

  LocalSolveResult result;
  std::vector<float> grad(w.size());
  const simd::KernelTable& kern = simd::ActiveKernels();
  const float* offset = DataOrNull(term.offset);
  const float* anchor = DataOrNull(term.anchor);

  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto batches = problem->EpochBatches(spec.batch_size, rng);
    double loss_sum = 0.0;
    int steps = 0;
    for (const auto& batch : batches) {
      const double loss = problem->BatchLossGradient(w, batch, grad);
      kern.prox_sgd_step(grad.data(), offset, anchor, term.rho,
                         -spec.learning_rate, w.data(), w.size());
      loss_sum += loss;
      ++steps;
    }
    result.steps_run += steps;
    ++result.epochs_run;
    result.mean_loss = steps > 0 ? loss_sum / steps : 0.0;

    if (spec.epsilon > 0.0) {
      // Inexactness check of Eq. (6) on the full local gradient.
      problem->FullLossGradient(w, grad);
      AddTerm(term, w, grad);
      result.final_grad_norm_sq = vec::SquaredL2Norm(grad);
      if (result.final_grad_norm_sq <= spec.epsilon) return result;
    }
  }

  // Report the attained inexactness even when no epsilon target was set.
  problem->FullLossGradient(w, grad);
  AddTerm(term, w, grad);
  result.final_grad_norm_sq = vec::SquaredL2Norm(grad);
  return result;
}

}  // namespace fedadmm
