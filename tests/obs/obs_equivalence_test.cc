// The zero-perturbation contract: the obs rail only *reads* clocks and
// bumps counters, so enabling metrics and the trace recorder must leave
// the training trajectory bitwise identical to a run with everything off.
// Mirrors the idiom of tests/fl/deterministic_replay_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fedadmm.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 12;
  spec.dim = 7;
  spec.heterogeneity = 1.2;
  spec.seed = 91;
  return spec;
}

FedAdmmOptions Options() {
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.batch_size = 4;
  options.local.max_epochs = 3;
  options.local.variable_epochs = true;
  options.rho = StepSchedule(0.1);
  return options;
}

// One training run; `config` carries the obs knobs under test.
std::vector<float> RunTheta(uint64_t seed, int threads, int rounds,
                            SimulationConfig config = {}) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = threads;
  Simulation sim(&problem, &algo, &selector, config);
  EXPECT_TRUE(sim.Run().ok());
  return sim.theta();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// RAII guard: flips the global metrics flag on and restores off, so a
// failing assertion cannot leak an enabled registry into other tests.
class MetricsOn {
 public:
  MetricsOn() { obs::MetricsRegistry::Global().set_enabled(true); }
  ~MetricsOn() { obs::MetricsRegistry::Global().set_enabled(false); }
};

TEST(ObsEquivalenceTest, MetricsEnabledIsBitwiseInvisible) {
  ASSERT_FALSE(obs::MetricsRegistry::Global().enabled());
  const std::vector<float> baseline = RunTheta(7, 3, 8);
  std::vector<float> observed;
  {
    MetricsOn on;
    obs::MetricsRegistry::Global().ResetValues();
    observed = RunTheta(7, 3, 8);
  }
  EXPECT_EQ(baseline, observed);
  // The run actually hit the instrumented paths: phase histograms filled.
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramStats aggregate =
      snapshot.AggregateHistograms("server/phase/aggregate_seconds");
  EXPECT_EQ(aggregate.count, 8);
  const obs::HistogramStats events =
      snapshot.AggregateHistograms("client/event_seconds");
  EXPECT_GT(events.count, 0);
}

TEST(ObsEquivalenceTest, TraceRecorderIsBitwiseInvisible) {
  const std::vector<float> baseline = RunTheta(7, 3, 8);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Start();
  const std::vector<float> traced = RunTheta(7, 3, 8);
  recorder.Stop();
  EXPECT_EQ(baseline, traced);
  EXPECT_GT(recorder.size(), 0u);

  // The capture loads as a chrome://tracing document.
  const std::string path = testing::TempDir() + "/obs_equiv_chrome.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  auto doc = obs::ParseJson(ReadAll(path));
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const obs::JsonValue* events = doc.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->elements.size(), recorder.size());
  bool saw_finalize = false;
  for (const obs::JsonValue& event : events->elements) {
    if (event.Find("name")->string == "finalize") saw_finalize = true;
  }
  EXPECT_TRUE(saw_finalize) << "server round phases missing from the trace";
  std::remove(path.c_str());
  recorder.Start();
  recorder.Stop();  // leave the global recorder empty for other tests
}

TEST(ObsEquivalenceTest, ShardedRunFillsPerShardHistograms) {
  SimulationConfig config;
  config.num_shards = 4;
  const std::vector<float> baseline = RunTheta(7, 3, 6, config);
  std::vector<float> observed;
  {
    MetricsOn on;
    obs::MetricsRegistry::Global().ResetValues();
    observed = RunTheta(7, 3, 6, config);
  }
  EXPECT_EQ(baseline, observed);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  // Client events carry {shard=s} labels; 12 clients over 4 shards with
  // half selected per round still touches more than one shard in 6 rounds.
  const obs::HistogramStats fleet =
      snapshot.AggregateHistograms("client/event_seconds");
  EXPECT_GT(fleet.count, 0);
  int shards_seen = 0;
  for (const auto& [name, stats] : snapshot.histograms) {
    if (name.rfind("client/event_seconds{", 0) == 0 && stats.count > 0) {
      ++shards_seen;
    }
  }
  EXPECT_GT(shards_seen, 1);
}

}  // namespace
}  // namespace fedadmm
