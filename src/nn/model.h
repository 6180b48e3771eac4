/// \file model.h
/// \brief A network plus a loss, with flattened-parameter access.
///
/// Federated algorithms treat models as vectors in R^d: the server model θ,
/// client models w_i, dual variables y_i and update messages Δ_i are all flat
/// float vectors. `Model` bridges the layered network view and this flat
/// view: `GetParameters`/`SetParameters`/`GetGradients` (de)serialize every
/// layer parameter into one contiguous vector in a stable order.

#ifndef FEDADMM_NN_MODEL_H_
#define FEDADMM_NN_MODEL_H_

#include <memory>
#include <span>
#include <vector>

#include "nn/losses.h"
#include "nn/sequential.h"

namespace fedadmm {

/// Which training criterion the model uses.
enum class LossKind {
  kSoftmaxCrossEntropy,  ///< classification (all paper experiments)
  kMse,                  ///< regression (convex validation problems)
};

/// \brief A trainable model: network, loss, and flat parameter view.
class Model {
 public:
  /// Takes ownership of the network. The loss determines which
  /// ForwardBackward overload is valid.
  Model(std::unique_ptr<Sequential> net, LossKind loss);

  /// Total scalar parameter count d.
  int64_t NumParameters() const { return num_parameters_; }

  /// Loss criterion.
  LossKind loss_kind() const { return loss_kind_; }

  /// Copies all parameters into `out` (resized to d).
  void GetParameters(std::vector<float>* out) const;
  /// Writes all parameters into a span of size d.
  void GetParameters(std::span<float> out) const;
  /// Overwrites all parameters from a span of size d.
  void SetParameters(std::span<const float> params);
  /// Copies all accumulated gradients into `out` (resized to d).
  void GetGradients(std::vector<float>* out) const;
  /// Writes all accumulated gradients into a span of size d.
  void GetGradients(std::span<float> out) const;
  /// Zeroes all gradient accumulators.
  void ZeroGrad();

  /// He-initializes every layer from `rng`.
  void Initialize(Rng* rng);

  /// Classification: runs forward + loss + backward, accumulating parameter
  /// gradients (`Sequential::BackwardParameters`: no gradient w.r.t. the
  /// inputs is formed). Returns the mean batch loss. Requires
  /// kSoftmaxCrossEntropy.
  double ForwardBackward(const Tensor& inputs, const std::vector<int>& labels);

  /// Regression: as above with MSE. Requires kMse.
  double ForwardBackwardMse(const Tensor& inputs, const Tensor& targets);

  /// Forward pass only (no gradient bookkeeping beyond layer caches).
  Tensor Predict(const Tensor& inputs);

  /// Classification: mean loss on a batch; if `accuracy` is non-null it is
  /// set to the top-1 accuracy. Does not touch gradients.
  double EvalLoss(const Tensor& inputs, const std::vector<int>& labels,
                  double* accuracy = nullptr);

  /// Vanilla SGD step: value -= lr * grad for every parameter. (Federated
  /// solvers instead transform flat vectors; this is for centralized use.)
  void SgdStep(float lr);

  /// Deep copy (parameters copied; caches not).
  std::unique_ptr<Model> Clone() const;

  /// The underlying network, for inspection.
  Sequential* net() { return net_.get(); }
  const Sequential* net() const { return net_.get(); }

 private:
  std::unique_ptr<Sequential> net_;
  LossKind loss_kind_;
  std::vector<Parameter*> params_;  // cached flat list, stable order
  int64_t num_parameters_ = 0;
  SoftmaxCrossEntropyLoss ce_loss_;
  MSELoss mse_loss_;
};

}  // namespace fedadmm

#endif  // FEDADMM_NN_MODEL_H_
