/// \file sequential.h
/// \brief Linear chain of layers.

#ifndef FEDADMM_NN_SEQUENTIAL_H_
#define FEDADMM_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace fedadmm {

/// \brief Composite layer applying children in order.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer) {
    FEDADMM_CHECK(layer != nullptr);
    if (first_parameter_layer_ < 0 && !layer->Parameters().empty()) {
      first_parameter_layer_ = static_cast<int>(layers_.size());
    }
    layers_.push_back(std::move(layer));
    return *this;
  }

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  /// Backpropagates only as far as parameter gradients need: layers after
  /// the first parameter-owning one run `Backward`, that layer runs
  /// `BackwardParameters`, and the parameter-free layers before it are not
  /// called at all.
  void BackwardParameters(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  Shape OutputShape(const Shape& input) const override;
  void Initialize(Rng* rng) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

  /// Number of child layers.
  int size() const { return static_cast<int>(layers_.size()); }
  /// Child access for inspection.
  Layer* layer(int i) { return layers_[static_cast<size_t>(i)].get(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  int first_parameter_layer_ = -1;  // -1: no layer owns parameters
};

}  // namespace fedadmm

#endif  // FEDADMM_NN_SEQUENTIAL_H_
