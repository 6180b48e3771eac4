/// \file conv2d.h
/// \brief 2-D convolution layer (im2col + GEMM lowering).

#ifndef FEDADMM_NN_CONV2D_H_
#define FEDADMM_NN_CONV2D_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace fedadmm {

/// \brief Cross-correlation over [N, C, H, W] inputs with square kernels.
///
/// The paper's CNNs use 5x5 kernels with stride 1; padding is a parameter so
/// the exact architectures (padding 2, "same" spatial size) are expressible.
class Conv2d : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride = 1, int64_t padding = 0);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParameters(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  Shape OutputShape(const Shape& input) const override;
  void Initialize(Rng* rng) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel() const { return kernel_; }

  /// Direct access for tests.
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  // Accumulates dW and db; also forms dX into `grad_input` (zeroed, input
  // shape) unless it is nullptr.
  void BackwardImpl(const Tensor& grad_output, Tensor* grad_input);

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_;
  int64_t stride_;
  int64_t padding_;
  Parameter weight_;  // [OC, IC, K, K]
  Parameter bias_;    // [OC]
  Tensor cached_input_;
};

}  // namespace fedadmm

#endif  // FEDADMM_NN_CONV2D_H_
