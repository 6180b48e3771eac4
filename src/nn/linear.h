/// \file linear.h
/// \brief Fully-connected layer: y = x W^T + b.

#ifndef FEDADMM_NN_LINEAR_H_
#define FEDADMM_NN_LINEAR_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace fedadmm {

/// \brief Affine layer over the last dimension: input [N, in] -> [N, out].
class Linear : public Layer {
 public:
  /// Creates a layer with zeroed weight [out_features, in_features] and bias
  /// [out_features] (call Initialize for He init). Set `with_bias=false` for
  /// a pure linear map.
  Linear(int64_t in_features, int64_t out_features, bool with_bias = true);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParameters(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  Shape OutputShape(const Shape& input) const override;
  void Initialize(Rng* rng) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  bool with_bias() const { return with_bias_; }

  /// Direct access for tests.
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

}  // namespace fedadmm

#endif  // FEDADMM_NN_LINEAR_H_
