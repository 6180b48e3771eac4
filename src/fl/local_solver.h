/// \file local_solver.h
/// \brief Shared local SGD loop used by FedAvg, FedProx and FedADMM.
///
/// All three methods run the same minibatch SGD over the client's data; they
/// differ only in the extra term added to the batch gradient:
///   * FedAvg:   g
///   * FedProx:  g + ρ(w − θ)
///   * FedADMM:  g + y + ρ(w − θ)       (Alg. 1, line 17)
/// The extra term is plain data, a `ProximalTerm` (offset, anchor, ρ), not
/// a callback: the solver applies it and the step `w += −η g'` in one fused
/// pass (`simd::KernelTable::prox_sgd_step`). Being data also keeps the
/// paper's reduction claims directly testable: with the terms aligned, the
/// three solvers produce identical iterates given identical batch
/// sequences (Section III-B).

#ifndef FEDADMM_FL_LOCAL_SOLVER_H_
#define FEDADMM_FL_LOCAL_SOLVER_H_

#include <span>
#include <vector>

#include "fl/problem.h"

namespace fedadmm {

/// \brief Hyperparameters of the local training loop.
struct LocalTrainSpec {
  /// Client learning rate η_i.
  float learning_rate = 0.1f;
  /// Minibatch size B; <= 0 means full batch (paper's B = ∞).
  int batch_size = 10;
  /// Maximum local epochs E.
  int max_epochs = 5;
  /// System heterogeneity (Section V-A): when true, each selected client
  /// runs U{1, ..., max_epochs} epochs instead of exactly max_epochs.
  bool variable_epochs = false;
  /// Optional inexactness target ε of Eq. (6): when > 0, local training
  /// stops after any epoch where the squared norm of the full gradient plus
  /// term is <= epsilon (checked at epoch granularity).
  double epsilon = -1.0;
};

/// \brief The algorithm-specific term added to every batch gradient:
///   g' = g + (offset + ρ (w − anchor))
/// evaluated at the current local iterate w. An empty `offset` or `anchor`
/// drops that part (g + offset, g + ρ (w − anchor), or plain g). Per
/// algorithm:
///   * FedAvg: no term.
///   * FedProx, FedADMM with frozen duals: anchor θ.
///   * FedADMM, FedPD: offset y_i, anchor θ.
///   * SCAFFOLD: offset c − c_i (one float subtraction per element).
/// The spans must stay valid and unchanged for the whole solve, and must
/// not overlap the iterate.
struct ProximalTerm {
  std::span<const float> offset;
  std::span<const float> anchor;
  float rho = 0.0f;
};

/// \brief Outcome of a local solve.
struct LocalSolveResult {
  /// Mean batch loss over the final epoch (the paper reports train loss).
  double mean_loss = 0.0;
  int epochs_run = 0;
  int steps_run = 0;
  /// Squared norm of the gradient plus term at the final iterate,
  /// evaluated on the full local data — the attained ε_i of Eq. (6).
  double final_grad_norm_sq = 0.0;
};

/// \brief Runs epochs of minibatch SGD on `problem`, updating `w` in place.
///
/// `epochs` is the resolved epoch count for this round (callers sample it
/// when `variable_epochs` is on). If `spec.epsilon > 0`, training may stop
/// earlier once the inexactness criterion is met. The final gradient norm
/// is always measured so callers can report attained inexactness.
LocalSolveResult RunLocalSgd(LocalProblem* problem, const LocalTrainSpec& spec,
                             int epochs, std::span<float> w, Rng* rng,
                             const ProximalTerm& term);

/// \brief Resolves the epoch count for one (round, client) pair: either the
/// fixed `spec.max_epochs` or U{1..max_epochs} under system heterogeneity.
int SampleEpochs(const LocalTrainSpec& spec, Rng* rng);

}  // namespace fedadmm

#endif  // FEDADMM_FL_LOCAL_SOLVER_H_
