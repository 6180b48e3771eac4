#include "nn/model.h"

#include "tensor/vec.h"

namespace fedadmm {

Model::Model(std::unique_ptr<Sequential> net, LossKind loss)
    : net_(std::move(net)), loss_kind_(loss) {
  FEDADMM_CHECK(net_ != nullptr);
  params_ = net_->Parameters();
  for (const Parameter* p : params_) num_parameters_ += p->numel();
}

void Model::GetParameters(std::vector<float>* out) const {
  out->resize(static_cast<size_t>(num_parameters_));
  GetParameters(std::span<float>(*out));
}

void Model::GetParameters(std::span<float> out) const {
  FEDADMM_CHECK(static_cast<int64_t>(out.size()) == num_parameters_);
  size_t offset = 0;
  for (const Parameter* p : params_) {
    vec::Copy(std::span<const float>(p->value.vec()),
              out.subspan(offset, static_cast<size_t>(p->numel())));
    offset += static_cast<size_t>(p->numel());
  }
}

void Model::SetParameters(std::span<const float> params) {
  FEDADMM_CHECK(static_cast<int64_t>(params.size()) == num_parameters_);
  size_t offset = 0;
  for (Parameter* p : params_) {
    vec::Copy(params.subspan(offset, static_cast<size_t>(p->numel())),
              std::span<float>(p->value.vec()));
    offset += static_cast<size_t>(p->numel());
  }
}

void Model::GetGradients(std::vector<float>* out) const {
  out->resize(static_cast<size_t>(num_parameters_));
  GetGradients(std::span<float>(*out));
}

void Model::GetGradients(std::span<float> out) const {
  FEDADMM_CHECK(static_cast<int64_t>(out.size()) == num_parameters_);
  size_t offset = 0;
  for (const Parameter* p : params_) {
    vec::Copy(std::span<const float>(p->grad.vec()),
              out.subspan(offset, static_cast<size_t>(p->numel())));
    offset += static_cast<size_t>(p->numel());
  }
}

void Model::ZeroGrad() {
  for (Parameter* p : params_) p->grad.Zero();
}

void Model::Initialize(Rng* rng) { net_->Initialize(rng); }

double Model::ForwardBackward(const Tensor& inputs,
                              const std::vector<int>& labels) {
  FEDADMM_CHECK_MSG(loss_kind_ == LossKind::kSoftmaxCrossEntropy,
                    "ForwardBackward requires a classification model");
  Tensor logits = net_->Forward(inputs);
  const double loss = ce_loss_.Forward(logits, labels);
  net_->BackwardParameters(ce_loss_.Backward());
  return loss;
}

double Model::ForwardBackwardMse(const Tensor& inputs, const Tensor& targets) {
  FEDADMM_CHECK_MSG(loss_kind_ == LossKind::kMse,
                    "ForwardBackwardMse requires an MSE model");
  Tensor preds = net_->Forward(inputs);
  const double loss = mse_loss_.Forward(preds, targets);
  net_->BackwardParameters(mse_loss_.Backward());
  return loss;
}

Tensor Model::Predict(const Tensor& inputs) { return net_->Forward(inputs); }

double Model::EvalLoss(const Tensor& inputs, const std::vector<int>& labels,
                       double* accuracy) {
  FEDADMM_CHECK_MSG(loss_kind_ == LossKind::kSoftmaxCrossEntropy,
                    "EvalLoss requires a classification model");
  Tensor logits = net_->Forward(inputs);
  SoftmaxCrossEntropyLoss loss;  // local: do not disturb training cache
  const double value = loss.Forward(logits, labels);
  if (accuracy != nullptr) {
    *accuracy = SoftmaxCrossEntropyLoss::Accuracy(logits, labels);
  }
  return value;
}

void Model::SgdStep(float lr) {
  for (Parameter* p : params_) {
    vec::Axpy(-lr, std::span<const float>(p->grad.vec()),
              std::span<float>(p->value.vec()));
  }
}

std::unique_ptr<Model> Model::Clone() const {
  auto net_clone = net_->Clone();
  // Clone() returns unique_ptr<Layer>; we know it is a Sequential.
  auto* seq = dynamic_cast<Sequential*>(net_clone.get());
  FEDADMM_CHECK(seq != nullptr);
  net_clone.release();
  return std::make_unique<Model>(std::unique_ptr<Sequential>(seq), loss_kind_);
}

}  // namespace fedadmm
