#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/simd/simd.h"
#include "util/status.h"

namespace fedadmm::ops {
namespace {

// Micro-kernel blocking factor. The GEMMs here are small-to-medium
// (hundreds to a few thousand per side), so the ikj loop order with a
// fixed block over k and the `simd` row micro-kernel is enough to stay
// cache-friendly without pulling in a BLAS dependency.
constexpr int64_t kBlock = 64;

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  MatMulAccum(a, b, c, m, k, n);
}

void MatMulAccum(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  const simd::KernelTable& kern = simd::ActiveKernels();
  for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
    const int64_t k1 = std::min(k0 + kBlock, k);
    for (int64_t i = 0; i < m; ++i) {
      kern.gemm_axpy_row(a + i * k + k0, b + k0 * n, c + i * n, k1 - k0, n,
                         n);
    }
  }
}

void MatMulTransA(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  MatMulTransAAccum(a, b, c, m, k, n);
}

void MatMulTransAAccum(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  // C[i,j] += sum_p A[p,i] * B[p,j]; iterate p outer for streaming access.
  // The exact-zero skip stays in the caller (the axpy kernel has no skip);
  // it preserves signed zeros and non-finite B entries exactly as before.
  const simd::KernelTable& kern = simd::ActiveKernels();
  for (int64_t p = 0; p < k; ++p) {
    const float* ap = a + p * m;
    const float* bp = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float api = ap[i];
      if (api == 0.0f) continue;
      kern.axpy(api, bp, c + i * n, static_cast<size_t>(n));
    }
  }
}

void MatMulTransB(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  // C[i,j] = sum_p A[i,p] * B[j,p]: dot products over contiguous rows,
  // accumulated in the canonical lane-striped double order (see simd.h).
  // Each panel of up to kDotRowsBlock rows of A is widened to double once;
  // every B row is then widened once per panel inside `dot_rows`, instead
  // of both operands once per output element.
  const simd::KernelTable& kern = simd::ActiveKernels();
  const int64_t panel = static_cast<int64_t>(simd::kDotRowsBlock);
  std::vector<double> wide(static_cast<size_t>(std::min(m, panel) * k));
  double sums[simd::kDotRowsBlock] = {};
  for (int64_t i0 = 0; i0 < m; i0 += panel) {
    const int64_t rows = std::min(panel, m - i0);
    const float* ai = a + i0 * k;
    for (int64_t p = 0; p < rows * k; ++p) {
      wide[static_cast<size_t>(p)] = static_cast<double>(ai[p]);
    }
    float* ci = c + i0 * n;
    for (int64_t j = 0; j < n; ++j) {
      kern.dot_rows(wide.data(), static_cast<size_t>(k),
                    static_cast<size_t>(rows), b + j * k,
                    static_cast<size_t>(k), sums);
      for (int64_t r = 0; r < rows; ++r) {
        ci[r * n + j] = static_cast<float>(sums[r]);
      }
    }
  }
}

void Im2Col(const float* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w,
            int64_t stride_h, int64_t stride_w, int64_t pad_h, int64_t pad_w,
            float* columns) {
  const int64_t out_h = ConvOutDim(height, kernel_h, stride_h, pad_h);
  const int64_t out_w = ConvOutDim(width, kernel_w, stride_w, pad_w);
  // Layout: rows indexed by (c, kh, kw), columns by (oh, ow).
  for (int64_t c = 0; c < channels; ++c) {
    const float* img_c = image + c * height * width;
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        float* row =
            columns + ((c * kernel_h + kh) * kernel_w + kw) * out_h * out_w;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride_h - pad_h + kh;
          if (ih < 0 || ih >= height) {
            std::memset(row + oh * out_w, 0,
                        static_cast<size_t>(out_w) * sizeof(float));
            continue;
          }
          const float* img_row = img_c + ih * width;
          float* dst = row + oh * out_w;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * stride_w - pad_w + kw;
            dst[ow] = (iw >= 0 && iw < width) ? img_row[iw] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im(const float* columns, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w,
            int64_t stride_h, int64_t stride_w, int64_t pad_h, int64_t pad_w,
            float* image) {
  const int64_t out_h = ConvOutDim(height, kernel_h, stride_h, pad_h);
  const int64_t out_w = ConvOutDim(width, kernel_w, stride_w, pad_w);
  for (int64_t c = 0; c < channels; ++c) {
    float* img_c = image + c * height * width;
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        const float* row =
            columns + ((c * kernel_h + kh) * kernel_w + kw) * out_h * out_w;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride_h - pad_h + kh;
          if (ih < 0 || ih >= height) continue;
          float* img_row = img_c + ih * width;
          const float* src = row + oh * out_w;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * stride_w - pad_w + kw;
            if (iw >= 0 && iw < width) img_row[iw] += src[ow];
          }
        }
      }
    }
  }
}

void MaxPool2dForward(const float* input, int64_t n, int64_t c, int64_t h,
                      int64_t w, int64_t kernel, int64_t stride, float* output,
                      int32_t* argmax) {
  const int64_t out_h = ConvOutDim(h, kernel, stride, /*pad=*/0);
  const int64_t out_w = ConvOutDim(w, kernel, stride, /*pad=*/0);
  int64_t out_idx = 0;
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input + (img * c + ch) * h * w;
      const int64_t plane_base = (img * c + ch) * h * w;
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
          const int64_t h0 = oh * stride;
          const int64_t w0 = ow * stride;
          const int64_t h1 = std::min(h0 + kernel, h);
          const int64_t w1 = std::min(w0 + kernel, w);
          // Seed with the first window element (not -inf) so that NaN
          // inputs still yield a valid argmax index — the backward pass
          // scatters through it.
          float best = plane[h0 * w + w0];
          int64_t best_idx = h0 * w + w0;
          for (int64_t ih = h0; ih < h1; ++ih) {
            for (int64_t iw = w0; iw < w1; ++iw) {
              const float v = plane[ih * w + iw];
              // Second disjunct replaces a NaN seed with the first real
              // value (NaN comparisons are always false).
              if (v > best || (best != best && v == v)) {
                best = v;
                best_idx = ih * w + iw;
              }
            }
          }
          output[out_idx] = best;
          argmax[out_idx] = static_cast<int32_t>(plane_base + best_idx);
        }
      }
    }
  }
}

void MaxPool2dBackward(const float* grad_output, const int32_t* argmax,
                       int64_t output_numel, float* grad_input) {
  for (int64_t i = 0; i < output_numel; ++i) {
    grad_input[argmax[i]] += grad_output[i];
  }
}

void ReluForward(float* x, int64_t n, uint8_t* mask) {
  for (int64_t i = 0; i < n; ++i) {
    if (x[i] > 0.0f) {
      mask[i] = 1;
    } else {
      mask[i] = 0;
      x[i] = 0.0f;
    }
  }
}

void ReluBackward(const float* grad_output, const uint8_t* mask, int64_t n,
                  float* grad_input) {
  for (int64_t i = 0; i < n; ++i) {
    grad_input[i] = mask[i] ? grad_output[i] : 0.0f;
  }
}

void SoftmaxRows(const float* logits, int64_t rows, int64_t cols,
                 float* probs) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = logits + r * cols;
    float* out = probs + r * cols;
    float max_v = in[0];
    for (int64_t j = 1; j < cols; ++j) max_v = std::max(max_v, in[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const float e = std::exp(in[j] - max_v);
      out[j] = e;
      sum += e;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t j = 0; j < cols; ++j) out[j] *= inv;
  }
}

}  // namespace fedadmm::ops
