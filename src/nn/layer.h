/// \file layer.h
/// \brief Layer abstraction with explicit forward/backward passes.
///
/// The library uses classic define-by-layer backpropagation (no tape):
/// each layer caches whatever its backward pass needs during forward, and
/// `Backward` both returns the input gradient and *accumulates* parameter
/// gradients. This matches the training loop shape of the paper's local
/// SGD solvers and keeps the memory model obvious. Training needs no
/// gradient with respect to the network input, so the first layer that
/// owns parameters runs `BackwardParameters` instead, which skips its input
/// gradient (for `Linear`/`Conv2d`, a whole GEMM).

#ifndef FEDADMM_NN_LAYER_H_
#define FEDADMM_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace fedadmm {

/// \brief A trainable tensor and its gradient accumulator.
struct Parameter {
  /// Identifier for diagnostics, e.g. "conv1.weight".
  std::string name;
  /// Current value.
  Tensor value;
  /// Gradient accumulated by Backward; zeroed via Model::ZeroGrad.
  Tensor grad;

  Parameter(std::string n, Shape shape)
      : name(std::move(n)), value(shape), grad(shape) {}

  /// Number of scalar parameters.
  int64_t numel() const { return value.numel(); }
};

/// \brief Base class of all network layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output, caching state for Backward.
  virtual Tensor Forward(const Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after a matching Forward.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Backward for a layer whose input gradient nobody reads: accumulates
  /// exactly the parameter gradients `Backward` would, bit for bit, and
  /// may skip computing dLoss/dInput. The default runs `Backward`.
  virtual void BackwardParameters(const Tensor& grad_output) {
    (void)Backward(grad_output);
  }

  /// The layer's trainable parameters (possibly empty). Pointers remain
  /// valid for the lifetime of the layer.
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Shape of the output given an input shape (batch dim included).
  virtual Shape OutputShape(const Shape& input) const = 0;

  /// Initializes parameters (He/Kaiming for weight layers; no-op otherwise).
  virtual void Initialize(Rng* rng) { (void)rng; }

  /// Deep copy of the layer (parameters copied, forward caches not).
  virtual std::unique_ptr<Layer> Clone() const = 0;

  /// Human-readable layer name, e.g. "Conv2d(1->32, 5x5, pad 2)".
  virtual std::string name() const = 0;
};

}  // namespace fedadmm

#endif  // FEDADMM_NN_LAYER_H_
