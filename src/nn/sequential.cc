#include "nn/sequential.h"

namespace fedadmm {

Tensor Sequential::Forward(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

void Sequential::BackwardParameters(const Tensor& grad_output) {
  if (first_parameter_layer_ < 0) return;
  Tensor g = grad_output;
  for (int i = size() - 1; i > first_parameter_layer_; --i) {
    g = layer(i)->Backward(g);
  }
  layer(first_parameter_layer_)->BackwardParameters(g);
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    auto child = layer->Parameters();
    params.insert(params.end(), child.begin(), child.end());
  }
  return params;
}

Shape Sequential::OutputShape(const Shape& input) const {
  Shape s = input;
  for (const auto& layer : layers_) s = layer->OutputShape(s);
  return s;
}

void Sequential::Initialize(Rng* rng) {
  for (auto& layer : layers_) layer->Initialize(rng);
}

std::unique_ptr<Layer> Sequential::Clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) copy->Add(layer->Clone());
  return copy;
}

std::string Sequential::name() const {
  std::string s = "Sequential(";
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) s += ", ";
    s += layers_[i]->name();
  }
  s += ")";
  return s;
}

}  // namespace fedadmm
