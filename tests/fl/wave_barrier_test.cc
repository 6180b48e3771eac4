// The sync wave barrier's simulated time: a round ends when its last
// tracked member resolves, so `sim_seconds` advances by the slowest
// member's policy-shaped finish (its full timing under wait-for-all, the
// deadline for a member the policy cut off). Fleets here are hand-built
// with infinite bandwidth, so each member's timing is exactly its link
// latency twice plus steps / steps_per_second.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/fedadmm.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "sys/system_model.h"

namespace fedadmm {
namespace {

// Every local pass runs exactly kSteps SGD steps: one fixed epoch over the
// quadratic problem's 8 pseudo-samples in batches of 4.
constexpr int kSteps = 2;

// A member whose compute takes `compute_seconds`, plus `latency_seconds`
// per transfer (bandwidth is unbounded, so bytes cost nothing).
ClientSystemProfile Member(double compute_seconds,
                           double latency_seconds = 0.0) {
  ClientSystemProfile profile;
  profile.device.steps_per_second = kSteps / compute_seconds;
  profile.network.latency_seconds = latency_seconds;
  profile.network.upload_bytes_per_second =
      std::numeric_limits<double>::infinity();
  profile.network.download_bytes_per_second =
      std::numeric_limits<double>::infinity();
  return profile;
}

// Runs full-participation sync FedADMM over `fleet` under the straggler
// policy `policy` (MakeStragglerPolicy's names).
History RunBarrier(std::vector<ClientSystemProfile> fleet,
                   const std::string& policy, double deadline,
                   int rounds = 1) {
  const int clients = static_cast<int>(fleet.size());
  QuadraticSpec spec;
  spec.num_clients = clients;
  spec.dim = 3;
  spec.seed = 5;
  QuadraticProblem problem(spec);
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.batch_size = 4;
  options.local.max_epochs = 1;
  options.local.variable_epochs = false;
  FedAdmm algo(options);
  FullParticipationSelector selector(clients);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.num_threads = 1;
  Simulation sim(&problem, &algo, &selector, config);
  const SystemModel model(FleetModel(std::move(fleet)),
                          MakeStragglerPolicy(policy, deadline).ValueOrDie());
  sim.set_system_model(&model);
  return std::move(sim.Run()).ValueOrDie();
}

TEST(WaitForAllBarrierTest, AdmitsEverythingAndWaitsForSlowest) {
  const History history =
      RunBarrier({Member(1.0, 0.1), Member(50.0, 0.1)}, "wait-for-all", -1, 2);
  ASSERT_EQ(history.size(), 2);
  for (const RoundRecord& r : history.records()) {
    EXPECT_EQ(r.num_selected, 2);
    EXPECT_EQ(r.num_dropped, 0);
    EXPECT_EQ(r.num_admitted_partial, 0);
  }
  EXPECT_DOUBLE_EQ(history.records()[0].sim_seconds, 50.2);
  // Each barrier starts where the previous one ended.
  EXPECT_DOUBLE_EQ(history.records()[1].sim_seconds, 100.4);
}

TEST(DeadlineDropBarrierTest, RoundLastsUntilLastTrackedClient) {
  // Everyone in time: the round ends with the slowest finisher.
  const History in_time =
      RunBarrier({Member(1.0), Member(0.5)}, "deadline-drop", 5.0);
  EXPECT_DOUBLE_EQ(in_time.records()[0].sim_seconds, 1.0);
  EXPECT_EQ(in_time.records()[0].num_dropped, 0);

  // A late member: the server waits out the deadline, then drops it.
  const History late =
      RunBarrier({Member(1.0), Member(9.0)}, "deadline-drop", 5.0);
  EXPECT_DOUBLE_EQ(late.records()[0].sim_seconds, 5.0);
}

TEST(DeadlineDropBarrierTest, CountsFatesAndKeepsTheCohortSize) {
  // A fast member and a 100x-slower straggler under a 1 s deadline.
  const History history =
      RunBarrier({Member(0.1), Member(10.0)}, "deadline-drop", 1.0);
  const RoundRecord& r = history.records()[0];
  EXPECT_EQ(r.num_selected, 2);  // the cohort, drops included
  EXPECT_EQ(r.num_dropped, 1);
  EXPECT_EQ(r.num_admitted_partial, 0);
  EXPECT_DOUBLE_EQ(r.sim_seconds, 1.0);  // waits out the deadline
}

TEST(DeadlineAdmitPartialBarrierTest, StragglerEndsTheRoundAtTheDeadline) {
  const History history =
      RunBarrier({Member(2.0), Member(8.0)}, "deadline-admit-partial", 5.0);
  const RoundRecord& r = history.records()[0];
  EXPECT_EQ(r.num_dropped, 0);
  EXPECT_EQ(r.num_admitted_partial, 1);
  EXPECT_DOUBLE_EQ(r.sim_seconds, 5.0);
}

}  // namespace
}  // namespace fedadmm
