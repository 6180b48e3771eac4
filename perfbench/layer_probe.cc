#include "layer_probe.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <memory>

#include "nn/layer.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fedadmm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

Tensor RandomTensor(const Shape& shape, Rng* rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return t;
}

std::vector<int> RandomLabels(int n, int64_t classes, Rng* rng) {
  std::vector<int> labels(static_cast<size_t>(n));
  for (int& l : labels) {
    l = static_cast<int>(rng->UniformInt(0, classes - 1));
  }
  return labels;
}

/// Median microseconds of `calls` timed calls of `body`, each preceded by
/// an untimed `prepare`.
template <typename Prepare, typename Body>
double MedianMicros(int calls, Prepare prepare, Body body) {
  std::vector<double> us(static_cast<size_t>(calls));
  for (double& u : us) {
    prepare();
    const auto start = Clock::now();
    body();
    u = std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
  }
  std::nth_element(us.begin(), us.begin() + calls / 2, us.end());
  return us[static_cast<size_t>(calls / 2)];
}

/// "Linear(144->256)" -> "linear".
std::string LayerKind(const std::string& name) {
  std::string kind;
  for (char c : name) {
    if (!std::isalpha(static_cast<unsigned char>(c))) break;
    kind += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return kind;
}

}  // namespace

std::vector<ProbeMetric> RunLayerProbe(const ModelConfig& config,
                                       int local_batch, int eval_batch,
                                       int calls, uint64_t seed) {
  Rng rng(seed);
  std::unique_ptr<Model> model = BuildModel(config);
  model->Initialize(&rng);
  Sequential* net = model->net();

  const Shape input_shape(
      {local_batch, config.in_channels, config.height, config.width});
  std::vector<Tensor> inputs;  // inputs[i] feeds layer i
  inputs.push_back(RandomTensor(input_shape, &rng));
  for (int i = 0; i < net->size(); ++i) {
    inputs.push_back(net->layer(i)->Forward(inputs.back()));
  }

  std::vector<ProbeMetric> metrics;
  double l1_fwd_us = 0.0;
  double l1_bwd_us = 0.0;
  int64_t l1_in = 0;
  int64_t l1_out = 0;
  for (int i = 0; i < net->size(); ++i) {
    Layer* layer = net->layer(i);
    const std::string kind = LayerKind(layer->name());
    if (kind == "flatten") continue;  // a reshape: no kernel to time
    const Tensor& x = inputs[static_cast<size_t>(i)];
    const Tensor grad_out = RandomTensor(inputs[i + 1].shape(), &rng);
    const double fwd = MedianMicros(
        calls, [] {}, [&] { (void)layer->Forward(x); });
    const double bwd = MedianMicros(
        calls, [&] { (void)layer->Forward(x); },
        [&] { (void)layer->Backward(grad_out); });
    const std::string prefix = "nn.l" + std::to_string(i) + "_" + kind;
    metrics.emplace_back(prefix + ".fwd_us", fwd);
    metrics.emplace_back(prefix + ".bwd_us", bwd);
    if (kind == "linear" && l1_in == 0) {
      l1_fwd_us = fwd;
      l1_bwd_us = bwd;
      l1_in = x.numel() / local_batch;
      l1_out = inputs[i + 1].numel() / local_batch;
    }
  }

  const Tensor batch = RandomTensor(input_shape, &rng);
  const std::vector<int> labels =
      RandomLabels(local_batch, config.classes, &rng);
  metrics.emplace_back(
      "nn.model.fwd_bwd_us",
      MedianMicros(calls, [&] { model->ZeroGrad(); },
                   [&] { (void)model->ForwardBackward(batch, labels); }));
  const Tensor eval_inputs = RandomTensor(
      Shape({eval_batch, config.in_channels, config.height, config.width}),
      &rng);
  const std::vector<int> eval_labels =
      RandomLabels(eval_batch, config.classes, &rng);
  metrics.emplace_back(
      "nn.model.eval_fwd_us",
      MedianMicros(std::max(8, calls / 16), [] {},
                   [&] { (void)model->EvalLoss(eval_inputs, eval_labels); }));

  // First Linear layer, B x in -> B x out. Forward: one multiply-add per
  // (b, in, out). Backward: dW and dX, one multiply-add each, plus db.
  const double b = local_batch;
  const double fwd_flops = 2.0 * b * l1_in * l1_out;
  const double bwd_flops = 4.0 * b * l1_in * l1_out + b * l1_out;
  // Forward bytes: read W, bias and X once, write Y once (fp32).
  const double fwd_bytes =
      4.0 * (l1_in * l1_out + l1_out + b * l1_in + b * l1_out);
  metrics.emplace_back("nn.l1_linear.fwd_gflops",
                       l1_fwd_us > 0 ? fwd_flops / (l1_fwd_us * 1e3) : 0.0);
  metrics.emplace_back("nn.l1_linear.bwd_gflops",
                       l1_bwd_us > 0 ? bwd_flops / (l1_bwd_us * 1e3) : 0.0);
  metrics.emplace_back("nn.l1_linear.bytes_moved", fwd_bytes);
  return metrics;
}

}  // namespace fedadmm::perfbench
