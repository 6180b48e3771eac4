#include "nn/conv2d.h"

#include <cmath>

#include "tensor/tensor_ops.h"

namespace fedadmm {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_("conv.weight",
              Shape({out_channels, in_channels, kernel, kernel})),
      bias_("conv.bias", Shape({out_channels})) {
  FEDADMM_CHECK_MSG(
      in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 &&
          padding >= 0,
      "Conv2d: invalid configuration");
}

Shape Conv2d::OutputShape(const Shape& input) const {
  FEDADMM_CHECK_MSG(input.ndim() == 4 && input.dim(1) == in_channels_,
                    "Conv2d: expected [N, C, H, W] input with C = " +
                        std::to_string(in_channels_));
  const int64_t oh = ops::ConvOutDim(input.dim(2), kernel_, stride_, padding_);
  const int64_t ow = ops::ConvOutDim(input.dim(3), kernel_, stride_, padding_);
  FEDADMM_CHECK_MSG(oh > 0 && ow > 0, "Conv2d: output would be empty");
  return Shape({input.dim(0), out_channels_, oh, ow});
}

Tensor Conv2d::Forward(const Tensor& input) {
  const Shape out_shape = OutputShape(input.shape());
  cached_input_ = input;
  const int64_t n = input.shape().dim(0);
  const int64_t h = input.shape().dim(2), w = input.shape().dim(3);
  const int64_t oh = out_shape.dim(2), ow = out_shape.dim(3);
  const int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const int64_t col_cols = oh * ow;

  Tensor output(out_shape);
  std::vector<float> columns(static_cast<size_t>(col_rows * col_cols));
  const int64_t img_in_sz = in_channels_ * h * w;
  const int64_t img_out_sz = out_channels_ * col_cols;

  for (int64_t img = 0; img < n; ++img) {
    ops::Im2Col(input.data() + img * img_in_sz, in_channels_, h, w, kernel_,
                kernel_, stride_, stride_, padding_, padding_, columns.data());
    // out[OC, OH*OW] = W[OC, col_rows] * cols[col_rows, OH*OW]
    float* out_img = output.data() + img * img_out_sz;
    ops::MatMul(weight_.value.data(), columns.data(), out_img, out_channels_,
                col_rows, col_cols);
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float b = bias_.value[oc];
      float* plane = out_img + oc * col_cols;
      for (int64_t p = 0; p < col_cols; ++p) plane[p] += b;
    }
  }
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  Tensor grad_input(cached_input_.shape());  // zero-initialized
  BackwardImpl(grad_output, &grad_input);
  return grad_input;
}

void Conv2d::BackwardParameters(const Tensor& grad_output) {
  BackwardImpl(grad_output, nullptr);
}

void Conv2d::BackwardImpl(const Tensor& grad_output, Tensor* grad_input) {
  const Shape& in_shape = cached_input_.shape();
  const int64_t n = in_shape.dim(0);
  const int64_t h = in_shape.dim(2), w = in_shape.dim(3);
  const int64_t oh = grad_output.shape().dim(2);
  const int64_t ow = grad_output.shape().dim(3);
  const int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const int64_t col_cols = oh * ow;
  const int64_t img_in_sz = in_channels_ * h * w;
  const int64_t img_out_sz = out_channels_ * col_cols;

  std::vector<float> columns(static_cast<size_t>(col_rows * col_cols));
  std::vector<float> grad_columns(static_cast<size_t>(col_rows * col_cols));

  for (int64_t img = 0; img < n; ++img) {
    const float* g_out = grad_output.data() + img * img_out_sz;
    // Recompute im2col rather than caching per-image columns: trades a
    // second Im2Col for O(batch * col) memory, which dominates otherwise.
    ops::Im2Col(cached_input_.data() + img * img_in_sz, in_channels_, h, w,
                kernel_, kernel_, stride_, stride_, padding_, padding_,
                columns.data());
    // dW[OC, col_rows] += dOut[OC, cc] * cols^T[cc, col_rows]
    ops::MatMulTransB(g_out, columns.data(), grad_columns.data(),
                      out_channels_, col_cols, col_rows);
    {
      float* dw = weight_.grad.data();
      const float* src = grad_columns.data();
      const int64_t total = out_channels_ * col_rows;
      for (int64_t i = 0; i < total; ++i) dw[i] += src[i];
    }
    // db[OC] += rowsum(dOut)
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float* plane = g_out + oc * col_cols;
      double acc = 0.0;
      for (int64_t p = 0; p < col_cols; ++p) acc += plane[p];
      bias_.grad[oc] += static_cast<float>(acc);
    }
    if (grad_input == nullptr) continue;
    // dcols[col_rows, cc] = W^T[col_rows, OC] * dOut[OC, cc]
    ops::MatMulTransA(weight_.value.data(), g_out, grad_columns.data(),
                      col_rows, out_channels_, col_cols);
    ops::Col2Im(grad_columns.data(), in_channels_, h, w, kernel_, kernel_,
                stride_, stride_, padding_, padding_,
                grad_input->data() + img * img_in_sz);
  }
}

std::vector<Parameter*> Conv2d::Parameters() { return {&weight_, &bias_}; }

void Conv2d::Initialize(Rng* rng) {
  const float fan_in =
      static_cast<float>(in_channels_ * kernel_ * kernel_);
  const float stddev = std::sqrt(2.0f / fan_in);
  weight_.value.FillNormal(rng, 0.0f, stddev);
  bias_.value.Zero();
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::make_unique<Conv2d>(in_channels_, out_channels_, kernel_,
                                       stride_, padding_);
  copy->weight_.value = weight_.value;
  copy->bias_.value = bias_.value;
  return copy;
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", " + std::to_string(kernel_) + "x" +
         std::to_string(kernel_) + ", stride " + std::to_string(stride_) +
         ", pad " + std::to_string(padding_) + ")";
}

}  // namespace fedadmm
