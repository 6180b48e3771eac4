/// \file layer_probe.h
/// \brief Per-layer kernel view of the paper-mlp model.
///
/// Builds the workload's own `ModelConfig` with `BuildModel` and times each
/// `Sequential` layer's `Forward` and `Backward` directly at the local batch
/// (5), the whole model's forward+loss+backward at that batch, and the
/// evaluation forward at the evaluation batch. The first Linear layer also
/// reports its operation rate and the bytes it moves, computed from its
/// shapes, so the rate means something on a CPU without hardware counters.

#ifndef FEDADMM_PERFBENCH_LAYER_PROBE_H_
#define FEDADMM_PERFBENCH_LAYER_PROBE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/model_zoo.h"

namespace fedadmm::perfbench {

/// One probe metric: dotted name and value.
using ProbeMetric = std::pair<std::string, double>;

/// Times the layers of `config` (median per call over `calls` calls).
/// Returns the nn.* per-layer metrics in a fixed order.
std::vector<ProbeMetric> RunLayerProbe(const ModelConfig& config,
                                       int local_batch, int eval_batch,
                                       int calls, uint64_t seed);

}  // namespace fedadmm::perfbench

#endif  // FEDADMM_PERFBENCH_LAYER_PROBE_H_
