/// \file model_zoo.h
/// \brief The architectures used in the paper and scaled bench variants.
///
/// Table II of the paper specifies two CNNs:
///   * CNN 1 — MNIST/FMNIST (1x28x28): conv 5x5 1->32 (pad 2), 2x2 max pool,
///     conv 5x5 32->64 (pad 2), 2x2 max pool, FC 3136->512, FC 512->10.
///     Exactly 1,663,370 parameters.
///   * CNN 2 — CIFAR-10 (3x32x32): conv 5x5 3->32 (pad 2), pool,
///     conv 5x5 32->64 (pad 2), pool, FC 4096->256, FC 256->10.
///     Exactly 1,105,098 parameters.
/// Both counts are asserted by tests and reported by `bench_paper table2`.
///
/// `MakeBenchCnn` builds the same two-conv architecture at reduced width and
/// resolution so that the paper's sweeps run in CPU-bench time; `MakeMlp` and
/// `MakeLinearRegression` support quick tests and convex validation problems.

#ifndef FEDADMM_NN_MODEL_ZOO_H_
#define FEDADMM_NN_MODEL_ZOO_H_

#include <memory>
#include <string>

#include "nn/model.h"

namespace fedadmm {

/// \brief Declarative model description, cheap to copy across threads.
struct ModelConfig {
  enum class Arch {
    kPaperCnn1,   ///< Table II CNN 1 (MNIST / FMNIST)
    kPaperCnn2,   ///< Table II CNN 2 (CIFAR-10)
    kBenchCnn,    ///< same family, scaled by the fields below
    kMlp,         ///< flatten -> hidden (ReLU) -> classes
    kLinearReg,   ///< single Linear layer with MSE loss
    kLogistic,    ///< single Linear layer with CE loss
  };

  Arch arch = Arch::kBenchCnn;

  // Input geometry (kBenchCnn / kMlp / kLogistic / kLinearReg).
  int64_t in_channels = 1;
  int64_t height = 12;
  int64_t width = 12;
  int64_t classes = 10;

  // kBenchCnn widths.
  int64_t conv1_channels = 6;
  int64_t conv2_channels = 12;
  int64_t hidden = 32;

  // kMlp hidden width; kLinearReg output dim = classes.
  int64_t mlp_hidden = 64;

  /// Human-readable description.
  std::string ToString() const;
};

/// \brief Builds an uninitialized model from the config (call
/// `model->Initialize(rng)` before use).
std::unique_ptr<Model> BuildModel(const ModelConfig& config);

/// Table II CNN 1 config (MNIST/FMNIST, 1,663,370 parameters).
ModelConfig PaperCnn1Config();

/// Table II CNN 2 config (CIFAR-10, 1,105,098 parameters).
ModelConfig PaperCnn2Config();

/// Scaled CNN for CPU benches: same 5x5-conv/pool/FC family.
ModelConfig BenchCnnConfig(int64_t in_channels = 1, int64_t hw = 12);

/// Small MLP for fast tests.
ModelConfig MlpConfig(int64_t in_features, int64_t hidden, int64_t classes);

/// Linear regression model (MSE loss) for convex validation problems.
ModelConfig LinearRegressionConfig(int64_t in_features, int64_t out_features);

/// Multinomial logistic regression (CE loss).
ModelConfig LogisticConfig(int64_t in_features, int64_t classes);

}  // namespace fedadmm

#endif  // FEDADMM_NN_MODEL_ZOO_H_
