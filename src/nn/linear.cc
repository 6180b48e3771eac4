#include "nn/linear.h"

#include <cmath>

#include "tensor/tensor_ops.h"

namespace fedadmm {

Linear::Linear(int64_t in_features, int64_t out_features, bool with_bias)
    : in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias),
      weight_("linear.weight", Shape({out_features, in_features})),
      bias_("linear.bias", Shape({with_bias ? out_features : 0})) {
  FEDADMM_CHECK_MSG(in_features > 0 && out_features > 0,
                    "Linear: features must be positive");
}

Tensor Linear::Forward(const Tensor& input) {
  FEDADMM_CHECK_MSG(input.shape().ndim() == 2 &&
                        input.shape().dim(1) == in_features_,
                    "Linear::Forward: bad input shape " +
                        input.shape().ToString());
  cached_input_ = input;
  const int64_t n = input.shape().dim(0);
  Tensor out(Shape({n, out_features_}));
  // out[N, out] = input[N, in] * weight^T[in, out]
  ops::MatMulTransB(input.data(), weight_.value.data(), out.data(), n,
                    in_features_, out_features_);
  if (with_bias_) {
    for (int64_t i = 0; i < n; ++i) {
      float* row = out.data() + i * out_features_;
      const float* b = bias_.value.data();
      for (int64_t j = 0; j < out_features_; ++j) row[j] += b[j];
    }
  }
  return out;
}

void Linear::BackwardParameters(const Tensor& grad_output) {
  const int64_t n = cached_input_.shape().dim(0);
  FEDADMM_CHECK_MSG(grad_output.shape() == Shape({n, out_features_}),
                    "Linear::Backward: bad grad shape");
  // dW[out, in] += dY^T[out, N] * X[N, in]
  ops::MatMulTransAAccum(grad_output.data(), cached_input_.data(),
                         weight_.grad.data(), out_features_, n, in_features_);
  if (with_bias_) {
    float* db = bias_.grad.data();
    for (int64_t i = 0; i < n; ++i) {
      const float* row = grad_output.data() + i * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) db[j] += row[j];
    }
  }
}

Tensor Linear::Backward(const Tensor& grad_output) {
  BackwardParameters(grad_output);
  const int64_t n = cached_input_.shape().dim(0);
  // dX[N, in] = dY[N, out] * W[out, in]
  Tensor grad_input(Shape({n, in_features_}));
  ops::MatMul(grad_output.data(), weight_.value.data(), grad_input.data(), n,
              out_features_, in_features_);
  return grad_input;
}

std::vector<Parameter*> Linear::Parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Shape Linear::OutputShape(const Shape& input) const {
  FEDADMM_CHECK(input.ndim() == 2);
  return Shape({input.dim(0), out_features_});
}

void Linear::Initialize(Rng* rng) {
  // He/Kaiming normal for ReLU networks: stddev = sqrt(2 / fan_in).
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features_));
  weight_.value.FillNormal(rng, 0.0f, stddev);
  if (with_bias_) bias_.value.Zero();
}

std::unique_ptr<Layer> Linear::Clone() const {
  auto copy = std::make_unique<Linear>(in_features_, out_features_, with_bias_);
  copy->weight_.value = weight_.value;
  copy->bias_.value = bias_.value;
  return copy;
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + (with_bias_ ? "" : ", no bias") + ")";
}

}  // namespace fedadmm
