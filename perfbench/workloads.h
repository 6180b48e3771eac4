/// \file workloads.h
/// \brief The benchmark's named workloads and one timed repetition of each.
///
/// A repetition builds the workload from its seed (set-up), then runs one
/// `Simulation::Run` (closed loop: the server waits for its wave or its
/// arrivals before it dispatches more work). The untraced repetition is
/// what the end-to-end metrics come from; the traced one installs the
/// decorators of decorators.h and records spans and obs counters.

#ifndef FEDADMM_PERFBENCH_WORKLOADS_H_
#define FEDADMM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fl/types.h"
#include "nn/model_zoo.h"
#include "obs/metrics.h"
#include "decorators.h"
#include "util/status.h"

namespace fedadmm::perfbench {

enum class WorkloadKind { kPaperMlp, kFleetAsync, kServeIngest };

/// \brief Static description of a workload (sizes fixed; inputs from the
/// seed).
struct Workload {
  WorkloadKind kind;
  std::string name;
  /// Records (rounds, or aggregations in async mode) per repetition.
  int rounds = 0;
  /// Test-accuracy target for tta_s / rounds_to_target (paper-mlp only).
  double target = -1.0;
  /// Executor threads the engine gets (client phase, reduce pool).
  int engine_threads = 1;
  /// One line per thread the workload runs, for the printed plan.
  std::vector<std::string> thread_plan;
};

/// Looks a workload up by name.
Result<Workload> FindWorkload(const std::string& name);
/// All workload names, for the usage message.
std::string WorkloadNames();

/// The model paper-mlp trains (for the layer probe).
ModelConfig PaperMlpModel();

/// \brief Outcome of one repetition.
struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  History history;
  std::vector<float> theta;
  /// Wall ms of every record, timed between consecutive observer calls
  /// (the first from the start of Run).
  std::vector<double> record_ms;
  /// Seconds from the start of Run to the first record at the target
  /// accuracy; -1 when never reached.
  double tta_s = -1.0;
  UploadStats uploads;  // serve only
  /// Serve only: the load generator's status (uploads that ended in a
  /// protocol, decode or timeout error fail it).
  Status loadgen = Status::OK();
  /// Traced repetitions only: the obs registry at the end of the run.
  obs::MetricsSnapshot obs;
};

/// Runs one repetition of `workload` from `seed`. With `setup_only` it
/// builds the workload, times that (`setup_s`) and tears it down without
/// running it. `work_dir` holds the tiered store's slab files.
Result<RepResult> RunRepetition(const Workload& workload, uint64_t seed,
                                bool traced, bool setup_only,
                                const std::string& work_dir);

/// Serve only: runs a small trace in process and served over loopback and
/// returns OK when θ and every deterministic record field agree bitwise.
Status CheckServedMatchesInProcess(uint64_t seed);

/// True when two parameter vectors are bitwise identical (NaNs included).
bool SameBits(const std::vector<float>& a, const std::vector<float>& b);

/// True when two round records agree on every deterministic field (all
/// but wall_seconds), NaNs matching NaNs.
bool SameRecord(const RoundRecord& a, const RoundRecord& b);

/// True when two histories have the same length and SameRecord holds for
/// every pair of records.
bool SameHistory(const History& a, const History& b);

}  // namespace fedadmm::perfbench

#endif  // FEDADMM_PERFBENCH_WORKLOADS_H_
