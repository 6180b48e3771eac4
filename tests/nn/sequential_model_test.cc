#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "nn/activations.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/model.h"
#include "nn/model_zoo.h"
#include "nn/test_util.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

std::unique_ptr<Sequential> SmallNet() {
  auto net = std::make_unique<Sequential>();
  net->Emplace<Linear>(4, 6).Emplace<ReLU>().Emplace<Linear>(6, 3);
  return net;
}

TEST(SequentialTest, ChainsOutputShapes) {
  auto net = SmallNet();
  EXPECT_EQ(net->OutputShape(Shape({7, 4})), Shape({7, 3}));
  EXPECT_EQ(net->size(), 3);
}

TEST(SequentialTest, CollectsParametersInOrder) {
  auto net = SmallNet();
  auto params = net->Parameters();
  ASSERT_EQ(params.size(), 4u);  // two weights, two biases
  EXPECT_EQ(params[0]->numel(), 24);
  EXPECT_EQ(params[1]->numel(), 6);
  EXPECT_EQ(params[2]->numel(), 18);
  EXPECT_EQ(params[3]->numel(), 3);
}

TEST(SequentialTest, CloneProducesIdenticalForward) {
  Rng rng(21);
  auto net = SmallNet();
  net->Initialize(&rng);
  auto clone = net->Clone();
  Tensor x(Shape({2, 4}));
  x.FillNormal(&rng);
  Tensor y1 = net->Forward(x);
  Tensor y2 = clone->Forward(x);
  EXPECT_TRUE(y1.AllClose(y2, 1e-7f));
}

TEST(ModelTest, ParameterRoundTrip) {
  Rng rng(23);
  Model model(SmallNet(), LossKind::kSoftmaxCrossEntropy);
  model.Initialize(&rng);
  EXPECT_EQ(model.NumParameters(), 24 + 6 + 18 + 3);

  std::vector<float> params;
  model.GetParameters(&params);
  ASSERT_EQ(static_cast<int64_t>(params.size()), model.NumParameters());

  // Perturb, set, read back.
  for (auto& v : params) v += 1.0f;
  model.SetParameters(params);
  std::vector<float> readback;
  model.GetParameters(&readback);
  EXPECT_EQ(params, readback);
}

TEST(ModelTest, SetParametersChangesForward) {
  Rng rng(25);
  Model model(SmallNet(), LossKind::kSoftmaxCrossEntropy);
  model.Initialize(&rng);
  Tensor x(Shape({1, 4}));
  x.FillNormal(&rng);
  Tensor y1 = model.Predict(x);
  std::vector<float> zeros(static_cast<size_t>(model.NumParameters()), 0.0f);
  model.SetParameters(zeros);
  Tensor y2 = model.Predict(x);
  for (int64_t i = 0; i < y2.numel(); ++i) EXPECT_FLOAT_EQ(y2[i], 0.0f);
  EXPECT_FALSE(y1.AllClose(y2));
}

TEST(ModelTest, ZeroGradClearsAccumulators) {
  Rng rng(27);
  Model model(SmallNet(), LossKind::kSoftmaxCrossEntropy);
  model.Initialize(&rng);
  Tensor x(Shape({3, 4}));
  x.FillNormal(&rng);
  model.ForwardBackward(x, {0, 1, 2});
  std::vector<float> grads;
  model.GetGradients(&grads);
  EXPECT_GT(vec::L2Norm(grads), 0.0);
  model.ZeroGrad();
  model.GetGradients(&grads);
  EXPECT_EQ(vec::L2Norm(grads), 0.0);
}

TEST(ModelTest, GradientsAccumulateAcrossBatches) {
  Rng rng(29);
  Model model(SmallNet(), LossKind::kSoftmaxCrossEntropy);
  model.Initialize(&rng);
  Tensor x(Shape({2, 4}));
  x.FillNormal(&rng);
  const std::vector<int> labels{0, 1};

  model.ZeroGrad();
  model.ForwardBackward(x, labels);
  std::vector<float> once;
  model.GetGradients(&once);

  model.ZeroGrad();
  model.ForwardBackward(x, labels);
  model.ForwardBackward(x, labels);
  std::vector<float> twice;
  model.GetGradients(&twice);

  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-4f);
  }
}

TEST(ModelTest, SgdStepReducesLossOnFixedBatch) {
  Rng rng(31);
  Model model(SmallNet(), LossKind::kSoftmaxCrossEntropy);
  model.Initialize(&rng);
  Tensor x(Shape({8, 4}));
  x.FillNormal(&rng);
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) labels.push_back(i % 3);

  double first = 0.0, last = 0.0;
  for (int step = 0; step < 50; ++step) {
    model.ZeroGrad();
    const double loss = model.ForwardBackward(x, labels);
    if (step == 0) first = loss;
    last = loss;
    model.SgdStep(0.1f);
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(ModelTest, CloneSharesNothing) {
  Rng rng(33);
  Model model(SmallNet(), LossKind::kSoftmaxCrossEntropy);
  model.Initialize(&rng);
  auto clone = model.Clone();
  std::vector<float> zeros(static_cast<size_t>(model.NumParameters()), 0.0f);
  clone->SetParameters(zeros);
  std::vector<float> original;
  model.GetParameters(&original);
  EXPECT_GT(vec::L2Norm(original), 0.0);
}

TEST(ModelTest, EvalLossReportsAccuracy) {
  Rng rng(35);
  Model model(SmallNet(), LossKind::kSoftmaxCrossEntropy);
  model.Initialize(&rng);
  Tensor x(Shape({4, 4}));
  x.FillNormal(&rng);
  double acc = -1.0;
  const double loss = model.EvalLoss(x, {0, 1, 2, 0}, &acc);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(ModelTest, MseModelTrainsLinearMap) {
  Rng rng(37);
  auto net = std::make_unique<Sequential>();
  net->Emplace<Linear>(2, 1);
  Model model(std::move(net), LossKind::kMse);
  model.Initialize(&rng);

  // Fit y = x0 + 2*x1 by full-batch gradient descent.
  Tensor x(Shape({16, 2}));
  x.FillNormal(&rng);
  Tensor y(Shape({16, 1}));
  for (int i = 0; i < 16; ++i) {
    y[i] = x.at(i, 0) + 2.0f * x.at(i, 1);
  }
  double loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    model.ZeroGrad();
    loss = model.ForwardBackwardMse(x, y);
    model.SgdStep(0.2f);
  }
  EXPECT_LT(loss, 1e-4);
}

// ForwardBackward runs Sequential::BackwardParameters: the first
// parameter-owning layer skips its input gradient and the parameter-free
// layers before it are never called. The parameter gradients and the loss
// must equal the full Backward path bit for bit.
void ExpectParameterOnlyBackwardMatchesFull(const ModelConfig& config,
                                            const Shape& input_shape) {
  Rng rng(41);
  auto fast = BuildModel(config);
  fast->Initialize(&rng);
  auto full = fast->Clone();
  const int64_t batch = input_shape.dim(0);
  std::vector<int> labels;
  for (int64_t i = 0; i < batch; ++i) {
    labels.push_back(static_cast<int>(i % 10));
  }

  fast->ZeroGrad();
  full->ZeroGrad();
  // Two batches, so accumulation into non-zero gradients is covered too.
  for (int step = 0; step < 2; ++step) {
    Tensor x(input_shape);
    x.FillNormal(&rng);
    const double fast_loss = fast->ForwardBackward(x, labels);

    SoftmaxCrossEntropyLoss loss;
    const double full_loss = loss.Forward(full->net()->Forward(x), labels);
    const Tensor grad_input = full->net()->Backward(loss.Backward());
    EXPECT_EQ(grad_input.shape(), input_shape);
    EXPECT_EQ(std::bit_cast<uint64_t>(fast_loss),
              std::bit_cast<uint64_t>(full_loss));
  }
  std::vector<float> g_fast, g_full;
  fast->GetGradients(&g_fast);
  full->GetGradients(&g_full);
  ASSERT_EQ(g_fast.size(), g_full.size());
  for (size_t i = 0; i < g_fast.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(g_fast[i]),
              std::bit_cast<uint32_t>(g_full[i]))
        << i;
  }
}

TEST(ModelTest, ParameterOnlyBackwardMatchesFullBackwardMlp) {
  // Flatten -> Linear(144 -> 256) -> ReLU -> Linear(256 -> 10).
  ModelConfig config = MlpConfig(144, 256, 10);
  config.height = 12;
  config.width = 12;
  ExpectParameterOnlyBackwardMatchesFull(config, Shape({5, 1, 12, 12}));
}

TEST(ModelTest, ParameterOnlyBackwardMatchesFullBackwardCnn) {
  ExpectParameterOnlyBackwardMatchesFull(BenchCnnConfig(1, 12),
                                         Shape({5, 1, 12, 12}));
}

// Parameter-free layer that counts its backward calls.
class CountingIdentity : public Layer {
 public:
  explicit CountingIdentity(int* backward_calls) : calls_(backward_calls) {}
  Tensor Forward(const Tensor& input) override { return input; }
  Tensor Backward(const Tensor& grad_output) override {
    ++*calls_;
    return grad_output;
  }
  Shape OutputShape(const Shape& input) const override { return input; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<CountingIdentity>(calls_);
  }
  std::string name() const override { return "CountingIdentity"; }

 private:
  int* calls_;
};

TEST(SequentialTest, BackwardParametersStopsAtFirstParameterLayer) {
  int before = 0, between = 0;
  Sequential net;
  net.Emplace<CountingIdentity>(&before)
      .Emplace<Linear>(4, 6)
      .Emplace<CountingIdentity>(&between)
      .Emplace<Linear>(6, 3);
  Rng rng(43);
  net.Initialize(&rng);
  Tensor x(Shape({2, 4}));
  x.FillNormal(&rng);
  Tensor g(Shape({2, 3}));
  g.FillNormal(&rng);

  net.Forward(x);
  net.BackwardParameters(g);
  EXPECT_EQ(before, 0);
  EXPECT_EQ(between, 1);
  net.Backward(g);
  EXPECT_EQ(before, 1);
  EXPECT_EQ(between, 2);
}

TEST(SequentialTest, BackwardParametersWithoutParametersIsANoOp) {
  int calls = 0;
  Sequential net;
  net.Emplace<CountingIdentity>(&calls).Emplace<ReLU>();
  Tensor x(Shape({2, 4}));
  net.Forward(x);
  net.BackwardParameters(x);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace fedadmm
