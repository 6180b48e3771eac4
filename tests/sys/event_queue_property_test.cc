// Property/fuzz coverage for the engine's event ordering: random
// push/pop interleavings must pop every event exactly once, and a full
// drain must come out in strict (time, sequence) order, equal times
// breaking ties by dispatch sequence.

#include "sys/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace fedadmm {
namespace {

ClientCompletionEvent Event(double time, int64_t sequence, int client) {
  ClientCompletionEvent e;
  e.time = time;
  e.sequence = sequence;
  e.client_id = client;
  return e;
}

// Strict total order on (time, sequence); sequence is unique per run.
bool StrictlyOrdered(const ClientCompletionEvent& a,
                     const ClientCompletionEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.sequence < b.sequence;
}

// A randomized stream of events with intentionally heavy time ties:
// times are drawn from a small grid so equal-time groups are common and
// the sequence tie-break is exercised, not just reachable.
std::vector<ClientCompletionEvent> RandomEvents(Rng* rng, int n,
                                                int num_clients) {
  std::vector<ClientCompletionEvent> events;
  events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double time = 0.25 * static_cast<double>(rng->UniformInt(0, 40));
    const int client = static_cast<int>(rng->UniformInt(0, num_clients - 1));
    events.push_back(Event(time, /*sequence=*/i, client));
  }
  // Push order must not matter: shuffle away the sequence correlation.
  rng->Shuffle(&events);
  return events;
}

TEST(EventQueuePropertyTest, RandomPushPopInterleavingsPopInOrder) {
  Rng rng(0xE7E27u);
  for (int trial = 0; trial < 50; ++trial) {
    Rng trial_rng = rng.Fork(static_cast<uint64_t>(trial));
    const std::vector<ClientCompletionEvent> events =
        RandomEvents(&trial_rng, /*n=*/120, /*num_clients=*/17);
    EventQueue queue;
    size_t pushed = 0;
    std::vector<ClientCompletionEvent> popped;
    // Interleave: at each step flip a coin between push (while events
    // remain) and pop (while the queue is non-empty).
    while (pushed < events.size() || !queue.empty()) {
      const bool can_push = pushed < events.size();
      const bool do_push =
          can_push && (queue.empty() || trial_rng.Bernoulli(0.55));
      if (do_push) {
        queue.Push(events[pushed++]);
      } else {
        popped.push_back(queue.Pop());
      }
    }
    ASSERT_EQ(popped.size(), events.size());
    // Each pop is the minimum of what was in the queue at that moment, so
    // the full popped stream need not be globally sorted — but within any
    // stretch with no interleaved push it must be, and every event must
    // come out exactly once. Check the exactly-once property here; global
    // order is checked in the drain test below.
    std::vector<char> seen(events.size(), 0);
    for (const ClientCompletionEvent& e : popped) {
      ASSERT_GE(e.sequence, 0);
      ASSERT_LT(static_cast<size_t>(e.sequence), events.size());
      EXPECT_EQ(seen[static_cast<size_t>(e.sequence)], 0)
          << "event popped twice";
      seen[static_cast<size_t>(e.sequence)] = 1;
    }
  }
}

TEST(EventQueuePropertyTest, FullDrainIsStrictlySortedWithSequenceTies) {
  Rng rng(0xD7A14u);
  for (int trial = 0; trial < 50; ++trial) {
    Rng trial_rng = rng.Fork(static_cast<uint64_t>(trial));
    const std::vector<ClientCompletionEvent> events =
        RandomEvents(&trial_rng, /*n=*/200, /*num_clients=*/23);
    EventQueue queue;
    for (const ClientCompletionEvent& e : events) queue.Push(e);
    std::vector<ClientCompletionEvent> popped;
    while (!queue.empty()) popped.push_back(queue.Pop());
    ASSERT_EQ(popped.size(), events.size());
    for (size_t i = 1; i < popped.size(); ++i) {
      EXPECT_TRUE(StrictlyOrdered(popped[i - 1], popped[i]))
          << "trial " << trial << " position " << i << ": ("
          << popped[i - 1].time << "," << popped[i - 1].sequence
          << ") !< (" << popped[i].time << "," << popped[i].sequence << ")";
    }
  }
}

}  // namespace
}  // namespace fedadmm
