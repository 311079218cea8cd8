// Tests for psn::forward: the trace-driven simulator semantics and every
// forwarding algorithm on engineered scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/algorithms/direct.hpp"
#include "psn/forward/algorithms/epidemic.hpp"
#include "psn/forward/algorithms/fresh.hpp"
#include "psn/forward/algorithms/greedy.hpp"
#include "psn/forward/algorithms/greedy_online.hpp"
#include "psn/forward/algorithms/greedy_total.hpp"
#include "psn/forward/algorithms/min_expected_delay.hpp"
#include "psn/forward/algorithms/prophet.hpp"
#include "psn/forward/algorithms/randomized.hpp"
#include "psn/forward/algorithms/spray_and_wait.hpp"
#include "psn/forward/reference.hpp"
#include "psn/forward/simulator.hpp"
#include "equivalence.hpp"

namespace psn::forward {
namespace {

using test::expect_results_identical;
using trace::Contact;
using trace::ContactTrace;

struct Fixture {
  ContactTrace trace;
  graph::SpaceTimeGraph graph;

  Fixture(std::vector<Contact> cs, NodeId n, Seconds t_max)
      : trace(std::move(cs), n, t_max), graph(trace, 10.0) {}

  SimulationResult run(ForwardingAlgorithm& alg,
                       const std::vector<Message>& msgs) const {
    return simulate(request(alg, msgs));
  }

  SimulationRequest request(ForwardingAlgorithm& alg,
                            const std::vector<Message>& msgs) const {
    SimulationRequest r;
    r.algorithm = &alg;
    r.graph = &graph;
    r.trace = &trace;
    r.messages = &msgs;
    return r;
  }
};

Message msg(std::uint32_t id, NodeId src, NodeId dst, Seconds t) {
  return Message{id, src, dst, t};
}

TEST(Simulator, DirectContactDeliversForEveryAlgorithm) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 2, 60.0);
  for (auto& alg : make_extended_algorithms()) {
    const auto r = f.run(*alg, {msg(0, 0, 1, 0.0)});
    ASSERT_TRUE(r.outcomes[0].delivered) << alg->name();
    EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 20.0) << alg->name();
  }
}

TEST(Simulator, UndeliverableMessageFailsForEveryAlgorithm) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 3, 60.0);
  for (auto& alg : make_extended_algorithms()) {
    const auto r = f.run(*alg, {msg(0, 0, 2, 0.0)});
    EXPECT_FALSE(r.outcomes[0].delivered) << alg->name();
  }
}

TEST(Simulator, MessageCreatedAfterOnlyContactFails) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 1, 30.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
}

TEST(Simulator, RejectsBadMessages) {
  // Both simulators share one validation. A NaN creation time would also
  // break the strict weak ordering the activation sort relies on.
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  for (const Message& bad :
       {msg(0, 0, 0, 0.0), msg(0, 0, 7, 0.0),
        msg(0, 0, 1, std::numeric_limits<Seconds>::quiet_NaN()),
        msg(0, 0, 1, std::numeric_limits<Seconds>::infinity())}) {
    const std::vector<Message> msgs = {bad};
    EXPECT_THROW((void)simulate(f.request(epidemic, msgs)),
                 std::invalid_argument);
    EXPECT_THROW((void)simulate_reference(f.request(epidemic, msgs)),
                 std::invalid_argument);
  }
}

TEST(Epidemic, UsesMultiHopPathsOverTime) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
          Contact::make(2, 3, 40.0, 45.0),
      },
      4, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);
  // Hop levels are tracked through the flooding fast path: 0->1->2->3.
  EXPECT_EQ(r.outcomes[0].hops, 3u);
}

TEST(Epidemic, ZeroWeightClosureWithinStep) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 0.0, 5.0),
          Contact::make(2, 3, 0.0, 5.0),
      },
      4, 30.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 10.0);
  // Three contact edges crossed within the one step.
  EXPECT_EQ(r.outcomes[0].hops, 3u);
}

TEST(Epidemic, HopCountIsMinimalOverHolderChains) {
  // Two routes to the destination open in the same step: a long chain
  // through 1-2-3 and a direct source contact. The delivering copy's hop
  // count is the shortest chain within the closure.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 0.0, 5.0),
          Contact::make(2, 3, 0.0, 5.0),
          Contact::make(3, 4, 0.0, 5.0),
          Contact::make(0, 4, 0.0, 5.0),
      },
      5, 30.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 4, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.outcomes[0].hops, 1u);  // direct 0-4 beats 0-1-2-3-4.
}

TEST(Epidemic, HopLevelsAccumulateAcrossSteps) {
  // The flood spreads 0 -> {1} in step 0, {0,1} -> {2} in step 2 (via the
  // 1-2 contact), and delivers from 2 in step 4; the delivering copy's
  // level must count hops from the original source across steps.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
          Contact::make(2, 3, 40.0, 45.0),
          Contact::make(0, 3, 41.0, 44.0),  // dest also meets source late
      },
      4, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);
  // In step 4 the component is {0, 2, 3}: the source delivers directly.
  EXPECT_EQ(r.outcomes[0].hops, 1u);
}

TEST(Simulator, RelayTruncationIsCountedNotSilent) {
  // With max_relay_passes = 1, the one allowed pass still makes progress
  // (the 0-1 delivery), so the fixpoint is never verified: the step must
  // be counted as truncated rather than silently cut off.
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 30.0);
  FreshForwarding fresh;  // generic (non-flooding) path
  const std::vector<Message> msgs = {msg(0, 0, 1, 0.0)};
  auto request = f.request(fresh, msgs);
  request.max_relay_passes = 1;
  const auto truncated = simulate(request);
  EXPECT_TRUE(truncated.outcomes[0].delivered);
  EXPECT_EQ(truncated.truncated_relay_steps, 1u);

  // With the default bound the fixpoint converges and nothing truncates.
  const auto converged = f.run(fresh, {msg(0, 0, 1, 0.0)});
  EXPECT_TRUE(converged.outcomes[0].delivered);
  EXPECT_EQ(converged.truncated_relay_steps, 0u);
}

TEST(Direct, OnlySourceMeetingDestinationDelivers) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),     // relay opportunity (unused)
          Contact::make(1, 2, 20.0, 25.0),   // relay could deliver here
          Contact::make(0, 2, 40.0, 45.0),   // source meets destination
      },
      3, 60.0);
  DirectDelivery direct;
  const auto r = f.run(direct, {msg(0, 0, 2, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);  // not 30: no relaying.
  EXPECT_EQ(r.outcomes[0].hops, 1u);
}

TEST(Fresh, ForwardsToNodeWithMoreRecentEncounter) {
  // Node 1 met the destination (3) recently; node 0 never did. On contact
  // 0-1, FRESH hands the message to 1, which delivers on its next meeting.
  const Fixture f(
      {
          Contact::make(1, 3, 0.0, 5.0),     // 1 meets dest early
          Contact::make(0, 1, 20.0, 25.0),   // handoff
          Contact::make(1, 3, 40.0, 45.0),   // delivery
      },
      4, 60.0);
  FreshForwarding fresh;
  const auto r = f.run(fresh, {msg(0, 0, 3, 10.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 40.0);
  EXPECT_EQ(r.outcomes[0].hops, 2u);
}

TEST(Fresh, DoesNotForwardWhenNeitherMetDestination) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  FreshForwarding fresh;
  const auto r = f.run(fresh, {msg(0, 0, 2, 0.0)});
  // 0 keeps the message (1 has no fresher info at handoff time, both -1),
  // so the 1-2 contact is useless and the message fails.
  EXPECT_FALSE(r.outcomes[0].delivered);
}

TEST(Greedy, CountsBeatRecency) {
  // Node 1 met dest twice long ago; node 2 met dest once recently.
  // Greedy prefers node 1 over the holder, FRESH would prefer node 2.
  const Fixture f(
      {
          Contact::make(1, 4, 0.0, 2.0),
          Contact::make(1, 4, 10.0, 12.0),
          Contact::make(2, 4, 20.0, 22.0),
          Contact::make(0, 1, 40.0, 45.0),  // holder meets 1: forward
          Contact::make(1, 4, 60.0, 65.0),  // 1 delivers
      },
      5, 100.0);
  GreedyForwarding greedy;
  const auto r = f.run(greedy, {msg(0, 0, 4, 30.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 40.0);
}

TEST(Greedy, CountsContactEventsNotSteps) {
  // One long contact (many steps) counts once; two short contacts count
  // twice, so node 2 wins over node 1.
  const Fixture f(
      {
          Contact::make(1, 4, 0.0, 50.0),   // long: 1 event for node 1
          Contact::make(2, 4, 0.0, 2.0),    // short
          Contact::make(2, 4, 20.0, 22.0),  // short again: 2 events
          Contact::make(1, 2, 60.0, 65.0),  // if 1 held a message...
      },
      5, 100.0);
  GreedyForwarding greedy;
  greedy.prepare(f.graph, f.trace);
  // Feed history directly.
  greedy.observe_contact(1, 4, 0, true);
  greedy.observe_contact(1, 4, 1, false);  // continuation: ignored
  greedy.observe_contact(2, 4, 0, true);
  greedy.observe_contact(2, 4, 2, true);
  EXPECT_TRUE(greedy.should_forward(1, 2, 4, 3, 1));
  EXPECT_FALSE(greedy.should_forward(2, 1, 4, 3, 1));
}

TEST(GreedyTotal, OracleKnowsFutureContacts) {
  // Node 2's contacts all happen after the decision step; Greedy Total
  // still prefers it (future knowledge), Greedy Online does not.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),      // the decision contact
          Contact::make(2, 3, 50.0, 55.0),
          Contact::make(2, 3, 60.0, 65.0),
          Contact::make(2, 3, 70.0, 75.0),
      },
      4, 100.0);
  GreedyTotalForwarding total;
  total.prepare(f.graph, f.trace);
  // Node 1 has 1 total contact, node 0 has 1; node 2 has 3.
  EXPECT_TRUE(total.should_forward(0, 2, 3, 0, 1));
  EXPECT_FALSE(total.should_forward(0, 1, 3, 0, 1));

  GreedyOnlineForwarding online;
  online.prepare(f.graph, f.trace);
  // At step 0, node 2 has no contacts yet.
  online.observe_contact(0, 1, 0, true);
  EXPECT_FALSE(online.should_forward(0, 2, 3, 0, 1));
}

TEST(GreedyOnline, PrefersBusierNodeSoFar) {
  GreedyOnlineForwarding online;
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 4, 60.0);
  online.prepare(f.graph, f.trace);
  online.observe_contact(1, 2, 0, true);
  online.observe_contact(1, 3, 0, true);
  online.observe_contact(0, 2, 0, true);
  // Node 1: 2 contacts; node 0: 1 contact.
  EXPECT_TRUE(online.should_forward(0, 1, 3, 1, 1));
  EXPECT_FALSE(online.should_forward(1, 0, 3, 1, 1));
}

TEST(MinExpectedDelay, DistancesFollowMeanGaps) {
  // 0-1 meet frequently, 1-2 meet frequently, 0-2 never: the expected
  // delay 0->2 should be finite via node 1.
  std::vector<Contact> cs;
  for (int i = 0; i < 20; ++i) {
    cs.push_back(Contact::make(0, 1, i * 100.0, i * 100.0 + 5.0));
    cs.push_back(Contact::make(1, 2, i * 100.0 + 50.0, i * 100.0 + 55.0));
  }
  const Fixture f(std::move(cs), 3, 2000.0);
  MinExpectedDelayForwarding meed;
  meed.prepare(f.graph, f.trace);
  EXPECT_LT(meed.distance(0, 1), 200.0);
  EXPECT_LT(meed.distance(0, 2), 400.0);
  EXPECT_GT(meed.distance(0, 2), 0.0);
  // Forwarding from 0 to 1 for destination 2 is an improvement.
  EXPECT_TRUE(meed.should_forward(0, 1, 2, 0, 1));
  EXPECT_FALSE(meed.should_forward(1, 0, 2, 0, 1));
}

TEST(MinExpectedDelay, EndToEndDelivery) {
  std::vector<Contact> cs;
  for (int i = 0; i < 10; ++i) {
    cs.push_back(Contact::make(0, 1, i * 100.0, i * 100.0 + 5.0));
    cs.push_back(Contact::make(1, 2, i * 100.0 + 50.0, i * 100.0 + 55.0));
  }
  const Fixture f(std::move(cs), 3, 1000.0);
  MinExpectedDelayForwarding meed;
  const auto r = f.run(meed, {msg(0, 0, 2, 10.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.outcomes[0].hops, 2u);
}

TEST(SprayAndWait, RespectsCopyBudget) {
  // Star: source meets 5 relays in sequence; with L = 4 only a limited
  // number of nodes may end up holding copies.
  std::vector<Contact> cs;
  for (NodeId relay = 1; relay <= 5; ++relay)
    cs.push_back(
        Contact::make(0, relay, relay * 20.0, relay * 20.0 + 5.0));
  const Fixture f(std::move(cs), 7, 200.0);
  SprayAndWaitForwarding spray(4);
  const auto r = f.run(spray, {msg(0, 0, 6, 0.0)});
  // Destination 6 never appears: undelivered, but the run must not crash
  // and the budget bounds replication (indirectly observable: determinism).
  EXPECT_FALSE(r.outcomes[0].delivered);
}

TEST(SprayAndWait, WaitPhaseStillDeliversDirect) {
  // One relay gets a copy; the relay (in wait phase, copies = 1) must not
  // forward to another relay but must deliver on meeting the destination.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),    // spray: 1 gets half budget
          Contact::make(1, 2, 20.0, 25.0),  // wait: no handoff to 2
          Contact::make(1, 3, 40.0, 45.0),  // delivery to destination 3
      },
      4, 60.0);
  SprayAndWaitForwarding spray(2);
  const auto r = f.run(spray, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);
}

TEST(Prophet, EncounterRaisesPredictability) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 3, 60.0);
  ProphetForwarding prophet;
  prophet.prepare(f.graph, f.trace);
  EXPECT_DOUBLE_EQ(prophet.predictability(0, 1), 0.0);
  prophet.observe_contact(0, 1, 0, true);
  EXPECT_NEAR(prophet.predictability(0, 1), 0.75, 1e-12);
  prophet.observe_contact(0, 1, 1, true);
  EXPECT_NEAR(prophet.predictability(0, 1), 0.9375, 1e-12);
}

TEST(Prophet, AgingDecaysPredictability) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 3, 600.0);
  ProphetParams params;
  params.gamma = 0.5;
  params.aging_unit = 1;
  ProphetForwarding prophet(params);
  prophet.prepare(f.graph, f.trace);
  prophet.observe_contact(0, 1, 0, true);
  const double before = prophet.predictability(0, 1);
  // Trigger aging via a decision 10 steps later.
  (void)prophet.should_forward(0, 2, 1, 10, 1);
  EXPECT_LT(prophet.predictability(0, 1), before * 0.01);
}

TEST(Prophet, TransitivityPropagates) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 3, 60.0);
  ProphetForwarding prophet;
  prophet.prepare(f.graph, f.trace);
  prophet.observe_contact(1, 2, 0, true);  // 1 knows 2
  prophet.observe_contact(0, 1, 0, true);  // meeting 1 teaches 0 about 2
  EXPECT_GT(prophet.predictability(0, 2), 0.0);
  EXPECT_LT(prophet.predictability(0, 2), prophet.predictability(0, 1));
}

TEST(Randomized, DeterministicInSeedAndResets) {
  RandomizedForwarding r1(0.5, 99);
  RandomizedForwarding r2(0.5, 99);
  std::vector<bool> a;
  std::vector<bool> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(r1.should_forward(0, 1, 2, 0, 1));
    b.push_back(r2.should_forward(0, 1, 2, 0, 1));
  }
  EXPECT_EQ(a, b);
  r1.reset();
  std::vector<bool> c;
  for (int i = 0; i < 50; ++i)
    c.push_back(r1.should_forward(0, 1, 2, 0, 1));
  EXPECT_EQ(a, c);
}

TEST(Registry, PaperSuiteNamesAndOrder) {
  const auto algs = make_paper_algorithms();
  ASSERT_EQ(algs.size(), 6u);
  EXPECT_EQ(algs[0]->name(), "Epidemic");
  EXPECT_EQ(algs[1]->name(), "FRESH");
  EXPECT_EQ(algs[2]->name(), "Greedy");
  EXPECT_EQ(algs[3]->name(), "Greedy Total");
  EXPECT_EQ(algs[4]->name(), "Greedy Online");
  EXPECT_EQ(algs[5]->name(), "Dynamic Programming");
}

TEST(Registry, ExtendedSuiteAddsFour) {
  EXPECT_EQ(make_extended_algorithms().size(), 10u);
}

TEST(Simulator, MultipleMessagesIndependent) {
  const Fixture f(
      {
          Contact::make(0, 1, 10.0, 15.0),
          Contact::make(2, 3, 30.0, 35.0),
      },
      4, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 1, 0.0), msg(1, 2, 3, 0.0),
                                  msg(2, 1, 2, 0.0)});
  EXPECT_TRUE(r.outcomes[0].delivered);
  EXPECT_TRUE(r.outcomes[1].delivered);
  EXPECT_FALSE(r.outcomes[2].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 20.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].delay, 40.0);
}

TEST(Simulator, TransmissionCostAccounting) {
  // Chain 0 -> 1 -> 2 over time under Epidemic: two relays + delivery...
  // Epidemic copies to 1 (1 tx), then 1 delivers to 2 (1 tx): 2 total.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 2, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 2u);
  EXPECT_DOUBLE_EQ(r.transmissions_per_message(), 2.0);
}

TEST(Simulator, DirectDeliveryCostsOneTransmission) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  DirectDelivery direct;
  const auto r = f.run(direct, {msg(0, 0, 1, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 1u);
}

TEST(Simulator, EpidemicCostCountsAllCopies) {
  // Star component: source meets 3 relays and the destination in one step.
  // The flood copies to every component member: 3 copies + 1 delivery.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(0, 2, 0.0, 5.0),
          Contact::make(0, 3, 0.0, 5.0),
          Contact::make(0, 4, 0.0, 5.0),
      },
      5, 30.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 4, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 4u);
}

TEST(Simulator, UndeliveredSingleCopyCostsNothingWithoutForwarding) {
  const Fixture f({Contact::make(1, 2, 0.0, 5.0)}, 4, 30.0);
  DirectDelivery direct;
  const auto r = f.run(direct, {msg(0, 0, 3, 0.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(Simulator, DeterministicAcrossIdenticalRuns) {
  std::vector<Contact> cs;
  for (int i = 0; i < 30; ++i)
    cs.push_back(Contact::make(static_cast<NodeId>(i % 5),
                               static_cast<NodeId>(i % 5 + 1), i * 20.0,
                               i * 20.0 + 10.0));
  const Fixture f(std::move(cs), 7, 700.0);
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 10; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 6),
                       static_cast<NodeId>((i + 3) % 6), i * 30.0));
  for (auto& alg : make_extended_algorithms()) {
    const auto a = f.run(*alg, msgs);
    const auto b = f.run(*alg, msgs);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << alg->name();
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].delivered, b.outcomes[i].delivered)
          << alg->name();
      EXPECT_DOUBLE_EQ(a.outcomes[i].delay, b.outcomes[i].delay)
          << alg->name();
    }
    EXPECT_EQ(a.transmissions, b.transmissions) << alg->name();
  }
}

TEST(Simulator, EmptyMessageListIsFine) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.transmissions, 0u);
}

// --- Sparse event timeline vs the dense reference: the equivalence
// --- harness. simulate() replays only active steps; simulate_reference()
// --- replays every step. They must be bit-identical for every algorithm —
// --- same outcomes, delays, hops, transmissions, and truncation counters.

// Runs every extended algorithm through both simulators and asserts
// every observable agrees.
void expect_matches_reference(const Fixture& f,
                              const std::vector<Message>& msgs,
                              const TrafficConfig& traffic = {}) {
  for (auto& alg : make_extended_algorithms()) {
    auto request = f.request(*alg, msgs);
    request.traffic = traffic;
    const auto a = simulate_reference(request);
    const auto b = simulate(request);
    expect_results_identical(a, b, alg->name());
  }
}

TEST(SimulatorTimeline, EmptyTraceMatchesDense) {
  // No contacts at all: the sparse replay visits zero steps, the
  // reference scans six empty ones; both must report the same (undelivered)
  // outcomes for messages created anywhere in the window.
  const Fixture f({}, 3, 60.0);
  EXPECT_TRUE(f.graph.active_steps().empty());
  expect_matches_reference(
      f, {msg(0, 0, 1, 0.0), msg(1, 1, 2, 35.0), msg(2, 2, 0, 59.0)});
}

TEST(SimulatorTimeline, SingleContactAtStepZeroMatchesDense) {
  const Fixture f({Contact::make(0, 1, 0.0, 4.0)}, 3, 60.0);
  ASSERT_EQ(f.graph.num_active_steps(), 1u);
  ASSERT_EQ(f.graph.active_steps()[0], 0u);
  expect_matches_reference(f, {msg(0, 0, 1, 0.0),   // delivered at 0.
                                  msg(1, 0, 2, 0.0),   // never deliverable.
                                  msg(2, 1, 0, 30.0)});  // created after.
}

TEST(SimulatorTimeline, MessageCreatedAfterLastContactMatchesDense) {
  // Created after the final contact: neither replay activates it — the
  // outcome (undelivered) must be identical.
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 3, 200.0);
  expect_matches_reference(f, {msg(0, 0, 1, 30.0), msg(1, 0, 1, 199.0)});
}

TEST(SimulatorTimeline, MessagesCreatedInsideSkippedGapMatchDense) {
  // Contacts in steps 0-1 and 9-10 with an 8-step silent gap in between;
  // messages created inside the gap must activate at the next active step
  // under the sparse timeline and behave exactly as under the reference.
  const Fixture f(
      {
          Contact::make(0, 1, 5.0, 12.0),
          Contact::make(1, 2, 95.0, 105.0),
          Contact::make(0, 2, 98.0, 102.0),
      },
      4, 200.0);
  ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
  expect_matches_reference(f, {
                                     msg(0, 0, 2, 30.0),  // mid-gap creation.
                                     msg(1, 1, 0, 45.0),  // mid-gap creation.
                                     msg(2, 2, 3, 50.0),  // undeliverable.
                                     msg(3, 0, 1, 0.0),   // pre-gap creation.
                                 });
}

TEST(SimulatorTimeline, GapSpanningScenarioMatchesDenseForAllAlgorithms) {
  // A longer mixed scenario: bursts of contacts separated by gaps, with
  // messages created before, inside, and after gaps. Covers the relay
  // fixpoint, quota schemes, and oracle algorithms in one sweep.
  std::vector<Contact> cs;
  for (int burst = 0; burst < 5; ++burst) {
    const double t0 = burst * 200.0;
    cs.push_back(Contact::make(0, 1, t0 + 5.0, t0 + 15.0));
    cs.push_back(Contact::make(1, 2, t0 + 8.0, t0 + 18.0));
    cs.push_back(Contact::make(2, 3, t0 + 30.0, t0 + 42.0));
    cs.push_back(Contact::make(3, 4, t0 + 31.0, t0 + 41.0));
  }
  const Fixture f(std::move(cs), 6, 1000.0);
  ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 12; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 5),
                       static_cast<NodeId>((i + 2) % 5), i * 80.0));
  expect_matches_reference(f, msgs);
}

// --- Holder-incident relay vs the full-scan reference. ---
// simulate() lets eligible runs visit only steps and contacts incident to
// current message holders; simulate_reference() scans every contact of
// every step. The two must be bit-identical for every algorithm —
// outcomes, delays, hops, transmissions, and every traffic counter —
// constrained or not.

std::vector<Contact> burst_gap_contacts() {
  std::vector<Contact> cs;
  for (int burst = 0; burst < 5; ++burst) {
    const double t0 = burst * 200.0;
    cs.push_back(Contact::make(0, 1, t0 + 5.0, t0 + 15.0));
    cs.push_back(Contact::make(1, 2, t0 + 8.0, t0 + 18.0));
    cs.push_back(Contact::make(2, 3, t0 + 30.0, t0 + 42.0));
    cs.push_back(Contact::make(3, 4, t0 + 31.0, t0 + 41.0));
    // A side pair no message route touches: the fast path must skip it,
    // the reference scans it, and the results must still agree.
    cs.push_back(Contact::make(5, 6, t0 + 50.0, t0 + 60.0));
  }
  return cs;
}

std::vector<Message> burst_gap_messages() {
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 12; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 5),
                       static_cast<NodeId>((i + 2) % 5), i * 80.0));
  return msgs;
}

TEST(SimulatorHolderIncident, GapTraceMatchesFullOracleForAllAlgorithms) {
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
  expect_matches_reference(f, burst_gap_messages());
}

TEST(SimulatorHolderIncident, MidGapActivationMatchesFullOracle) {
  // Messages created inside silent gaps and after the last contact: the
  // fast path's activation scheduling must agree with the reference's.
  const Fixture f(
      {
          Contact::make(0, 1, 5.0, 12.0),
          Contact::make(1, 2, 95.0, 105.0),
          Contact::make(0, 2, 98.0, 102.0),
      },
      4, 300.0);
  expect_matches_reference(f, {
                                  msg(0, 0, 2, 30.0),   // mid-gap creation.
                                  msg(1, 1, 0, 45.0),   // mid-gap creation.
                                  msg(2, 2, 3, 50.0),   // undeliverable.
                                  msg(3, 0, 1, 0.0),    // pre-gap creation.
                                  msg(4, 0, 1, 250.0),  // after last contact.
                              });
}

TEST(SimulatorHolderIncident, ConstrainedTrafficMatchesFullOracle) {
  // Finite contact budget, tight buffers, and TTLs: expiry, eviction, and
  // budget-blocking must fire identically in both simulators.
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  auto msgs = burst_gap_messages();
  for (auto& m : msgs) {
    m.size_bytes = 2;
    m.ttl = 320.0;
  }
  for (const auto policy :
       {EvictionPolicy::kDropOldest, EvictionPolicy::kRandom}) {
    TrafficConfig traffic;
    traffic.contact_budget_bytes = 4;
    traffic.buffer_capacity_bytes = 6;
    traffic.eviction = policy;
    expect_matches_reference(f, msgs, traffic);
  }
}

// --- Shared observation snapshots vs per-run online tables. ---
// An algorithm that publishes a shared_snapshot_key() must, once adopted,
// reproduce its per-run (observe_contact-driven) results bit for bit —
// the snapshot is the same information precomputed from the trace.

void expect_adopted_matches_per_run(const std::string& name, const Fixture& f,
                                    const std::vector<Message>& msgs) {
  const auto oracle = make_algorithm(name);
  const auto adopted = make_algorithm(name);
  ASSERT_FALSE(adopted->shared_snapshot_key().empty()) << name;
  const auto snapshot = adopted->build_shared_snapshot(f.graph, f.trace);
  ASSERT_TRUE(snapshot != nullptr) << name;
  EXPECT_GT(snapshot->bytes(), 0u) << name;
  adopted->adopt_shared_snapshot(snapshot);
  // Adoption flips the observation contract: the simulator no longer
  // feeds contacts (and the run qualifies for the holder-incident scan).
  EXPECT_TRUE(oracle->observes_contacts()) << name;
  EXPECT_FALSE(adopted->observes_contacts()) << name;

  expect_results_identical(simulate_reference(f.request(*oracle, msgs)),
                           simulate(f.request(*adopted, msgs)), name);
}

TEST(SharedSnapshots, AdoptedAlgorithmsMatchPerRunOracle) {
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  for (const char* name : {"FRESH", "Greedy", "Greedy Online", "PRoPHET"})
    expect_adopted_matches_per_run(name, f, burst_gap_messages());
}

TEST(SharedSnapshots, ContactHistoryKeyIsSharedAcrossAdopters) {
  // FRESH, Greedy, and Greedy Online all answer from the contact-history
  // index: one build serves all three (the engine keys the store on it).
  EXPECT_EQ(make_algorithm("FRESH")->shared_snapshot_key(),
            ContactHistoryIndex::kKey);
  EXPECT_EQ(make_algorithm("Greedy")->shared_snapshot_key(),
            ContactHistoryIndex::kKey);
  EXPECT_EQ(make_algorithm("Greedy Online")->shared_snapshot_key(),
            ContactHistoryIndex::kKey);
  // PRoPHET's key carries its parameters: differently-tuned instances
  // never share predictabilities.
  EXPECT_NE(ProphetForwarding(ProphetParams{}).shared_snapshot_key(),
            ProphetForwarding(ProphetParams{.p_init = 0.5})
                .shared_snapshot_key());
  // History-free algorithms publish no key (nothing to share).
  EXPECT_TRUE(make_algorithm("Epidemic")->shared_snapshot_key().empty());
  EXPECT_TRUE(make_algorithm("Direct")->shared_snapshot_key().empty());
}

TEST(SharedSnapshots, AdoptedRunsAreReusableAcrossSimulations) {
  // One adopted instance serving several simulate() calls (the sweep
  // reuses algorithm instances across runs of a cell): reset() must not
  // disturb the snapshot, and results must stay identical.
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  const auto adopted = make_algorithm("FRESH");
  adopted->adopt_shared_snapshot(
      adopted->build_shared_snapshot(f.graph, f.trace));
  const auto msgs = burst_gap_messages();
  const auto first = f.run(*adopted, msgs);
  const auto second = f.run(*adopted, msgs);
  expect_results_identical(first, second, "FRESH adopted reuse");
}

// Dynamic Programming's snapshot is oracle precomputation, not contact
// observation: it never observes contacts, adopted or not, so it has a
// helper of its own. Adoption must make prepare() a no-op that leaves the
// per-run prepare()'s decisions bit for bit.
void expect_adopted_oracle_matches_per_run(const std::string& name,
                                           const Fixture& f,
                                           const std::vector<Message>& msgs) {
  const auto oracle = make_algorithm(name);
  const auto adopted = make_algorithm(name);
  ASSERT_FALSE(adopted->shared_snapshot_key().empty()) << name;
  const auto snapshot = adopted->build_shared_snapshot(f.graph, f.trace);
  ASSERT_TRUE(snapshot != nullptr) << name;
  adopted->adopt_shared_snapshot(snapshot);
  EXPECT_FALSE(oracle->observes_contacts()) << name;
  EXPECT_FALSE(adopted->observes_contacts()) << name;

  expect_results_identical(simulate_reference(f.request(*oracle, msgs)),
                           simulate(f.request(*adopted, msgs)), name);
}

TEST(SharedSnapshots, DynamicProgrammingMatrixIsParameterFree) {
  const std::string key =
      make_algorithm("Dynamic Programming")->shared_snapshot_key();
  EXPECT_FALSE(key.empty());
  EXPECT_EQ(key, MinExpectedDelayForwarding().shared_snapshot_key());
  EXPECT_NE(key, ContactHistoryIndex::kKey);
  EXPECT_NE(key, make_algorithm("PRoPHET")->shared_snapshot_key());

  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  const auto snapshot =
      MinExpectedDelayForwarding().build_shared_snapshot(f.graph, f.trace);
  ASSERT_TRUE(snapshot != nullptr);
  EXPECT_EQ(snapshot->bytes(), sizeof(double) * 7 * 7);
}

TEST(SharedSnapshots, AdoptedDynamicProgrammingMatchesPerRunPrepare) {
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  expect_adopted_oracle_matches_per_run("Dynamic Programming", f,
                                        burst_gap_messages());

  // The adopted matrix is the one prepare() computes, entry for entry,
  // and prepare() leaves it alone once adopted, whatever trace it gets.
  MinExpectedDelayForwarding per_run;
  per_run.prepare(f.graph, f.trace);
  MinExpectedDelayForwarding adopted;
  adopted.adopt_shared_snapshot(
      adopted.build_shared_snapshot(f.graph, f.trace));
  const Fixture other({Contact::make(5, 6, 0.0, 5.0)}, 7, 60.0);
  adopted.prepare(other.graph, other.trace);
  for (NodeId from = 0; from < 7; ++from)
    for (NodeId to = 0; to < 7; ++to)
      EXPECT_EQ(adopted.distance(from, to), per_run.distance(from, to))
          << from << "->" << to;
}

TEST(SharedSnapshots, AdoptedDynamicProgrammingIsReusableAcrossSimulations) {
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  const auto adopted = make_algorithm("Dynamic Programming");
  adopted->adopt_shared_snapshot(
      adopted->build_shared_snapshot(f.graph, f.trace));
  const auto msgs = burst_gap_messages();
  const auto first = f.run(*adopted, msgs);
  const auto second = f.run(*adopted, msgs);
  expect_results_identical(first, second, "Dynamic Programming adopted reuse");
}

// --- PRoPHET's merge-pass transitivity vs the per-peer lookup form. ---
// A test-local copy of the binary-search-and-insert ProphetTable::observe
// the merge pass replaced. Driven with the same events, the two must make
// the same writes, bitwise and in the same order.

class LookupProphetTable {
 public:
  explicit LookupProphetTable(NodeId n, const ProphetParams& params)
      : rows_(n), params_(params) {}

  void observe(NodeId a, NodeId b, Step s,
               std::vector<ProphetTable::Write>* log) {
    {
      const double old = read(a, b, s);
      upsert(a, b, s, old + (1.0 - old) * params_.p_init, log);
    }
    {
      const double old = read(b, a, s);
      upsert(b, a, s, old + (1.0 - old) * params_.p_init, log);
    }
    std::vector<NodeId> keys;
    for (const Cell& cell : rows_[a]) keys.push_back(cell.c);
    for (const Cell& cell : rows_[b]) keys.push_back(cell.c);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const double p_ab = read(a, b, s);
    const double p_ba = read(b, a, s);
    for (const NodeId c : keys) {
      if (c == a || c == b) continue;
      const double cand_a = p_ab * read(b, c, s) * params_.beta;
      if (cand_a >= params_.transitive_floor && cand_a > read(a, c, s))
        upsert(a, c, s, cand_a, log);
      const double cand_b = p_ba * read(a, c, s) * params_.beta;
      if (cand_b >= params_.transitive_floor && cand_b > read(b, c, s))
        upsert(b, c, s, cand_b, log);
    }
  }

 private:
  using Cell = ProphetTable::Cell;

  double decay(Step units) {
    while (decay_.size() <= units)
      decay_.push_back(decay_.back() * params_.gamma);
    return decay_[units];
  }

  std::vector<Cell>::iterator find(NodeId x, NodeId c) {
    auto& row = rows_[x];
    return std::lower_bound(
        row.begin(), row.end(), c,
        [](const Cell& cell, NodeId key) { return cell.c < key; });
  }

  double read(NodeId x, NodeId c, Step s) {
    const auto it = find(x, c);
    if (it == rows_[x].end() || it->c != c) return 0.0;
    return it->v * decay(s / params_.aging_unit - it->w / params_.aging_unit);
  }

  void upsert(NodeId x, NodeId c, Step s, double v,
              std::vector<ProphetTable::Write>* log) {
    const auto it = find(x, c);
    if (it != rows_[x].end() && it->c == c) {
      it->w = s;
      it->v = v;
    } else {
      rows_[x].insert(it, Cell{c, s, v});
    }
    log->push_back(ProphetTable::Write{x, c, s, v});
  }

  std::vector<std::vector<Cell>> rows_;
  std::vector<double> decay_{1.0};
  ProphetParams params_;
};

std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

TEST(Prophet, MergePassMatchesLookupFormulation) {
  constexpr std::size_t kTrials = 48;
  constexpr std::size_t kEvents = 400;
  std::mt19937_64 rng(20070601);
  std::size_t writes = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng() % 11);
    ProphetParams params;
    params.transitive_floor = trial % 2 == 0 ? 0.0 : 0.05;
    params.aging_unit = static_cast<Step>(1 + rng() % 6);
    // With beta <= 1 the b-side candidate after an a-side write never
    // beats P(b,c), so no peer gets both writes; beta > 1 makes that
    // sequencing (and the (a,c)-before-(b,c) log order) observable.
    params.beta = trial % 4 < 2 ? 0.25 : 3.0;
    ProphetTable merged;
    merged.init(n, params);
    LookupProphetTable lookup(n, params);
    std::vector<ProphetTable::Write> merged_log;
    std::vector<ProphetTable::Write> lookup_log;

    auto s = static_cast<Step>(rng() % 20);
    NodeId a = 0;
    NodeId b = 1;
    for (std::size_t event = 0; event < kEvents; ++event) {
      // Steps advance by nothing, by one, or to, just before, and just
      // past aging-unit boundaries; every third event repeats the last
      // pair.
      const Step unit = params.aging_unit;
      const Step to_boundary = unit - s % unit;
      const Step advances[] = {0, 1, to_boundary, to_boundary + unit - 1,
                               unit + 1};
      s += advances[rng() % 5];
      if (event % 3 != 0) {
        a = static_cast<NodeId>(rng() % n);
        b = static_cast<NodeId>(rng() % (n - 1));
        if (b >= a) ++b;
      }
      merged.observe(a, b, s, &merged_log);
      lookup.observe(a, b, s, &lookup_log);
    }

    ASSERT_EQ(merged_log.size(), lookup_log.size()) << "trial " << trial;
    for (std::size_t i = 0; i < merged_log.size(); ++i) {
      const auto& m = merged_log[i];
      const auto& l = lookup_log[i];
      ASSERT_TRUE(m.x == l.x && m.c == l.c && m.s == l.s &&
                  bits(m.v) == bits(l.v))
          << "trial " << trial << " write " << i;
    }
    writes += merged_log.size();
  }
  EXPECT_GT(writes, kTrials * kEvents * 2);  // transitive writes too.
}

TEST(Simulator, WorkspaceReuseIsBitIdentical) {
  // One workspace serving many runs (different algorithms, message
  // counts, and an interleaved larger population) must produce exactly
  // what fresh per-run workspaces produce.
  const Fixture small(
      {
          Contact::make(0, 1, 5.0, 12.0),
          Contact::make(1, 2, 95.0, 105.0),
          Contact::make(0, 2, 150.0, 160.0),
      },
      4, 300.0);
  std::vector<Contact> big_cs;
  for (int i = 0; i < 40; ++i)
    big_cs.push_back(Contact::make(static_cast<NodeId>(i % 9),
                                   static_cast<NodeId>(i % 9 + 1), i * 12.0,
                                   i * 12.0 + 6.0));
  const Fixture big(std::move(big_cs), 10, 600.0);

  std::vector<Message> small_msgs = {msg(0, 0, 2, 0.0), msg(1, 1, 0, 30.0)};
  std::vector<Message> big_msgs;
  for (std::uint32_t i = 0; i < 8; ++i)
    big_msgs.push_back(msg(i, static_cast<NodeId>(i),
                           static_cast<NodeId>((i + 4) % 10), i * 40.0));

  SimulatorWorkspace shared;
  for (auto& alg : make_extended_algorithms()) {
    for (const auto* fx : {&small, &big, &small}) {
      const auto& msgs = fx == &big ? big_msgs : small_msgs;
      const auto request = fx->request(*alg, msgs);
      expect_results_identical(simulate(request), simulate(request, shared),
                               alg->name());
    }
  }
}

TEST(Simulator, FloodKernelsMatchBitForBit) {
  // The word-parallel flood closure must reproduce the reference's
  // node-by-node closure bit-for-bit: outcomes, delays, hop counts, and
  // transmission totals. Non-flooding algorithms never enter the flood
  // path; for them this is one more relay equivalence check.
  std::vector<Contact> cs;
  for (int i = 0; i < 30; ++i)
    cs.push_back(Contact::make(static_cast<NodeId>(i % 5),
                               static_cast<NodeId>(i % 5 + 1), i * 20.0,
                               i * 20.0 + 10.0));
  // A second cluster so steps carry several components at once.
  for (int i = 0; i < 12; ++i)
    cs.push_back(Contact::make(static_cast<NodeId>(7 + i % 3),
                               static_cast<NodeId>(8 + i % 3), i * 45.0,
                               i * 45.0 + 20.0));
  const Fixture f(std::move(cs), 11, 700.0);
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 14; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 6),
                       static_cast<NodeId>((i + 3) % 6), i * 30.0));
  for (auto& alg : make_extended_algorithms()) {
    auto request = f.request(*alg, msgs);
    request.seed = 11;
    expect_results_identical(simulate_reference(request), simulate(request),
                             alg->name());
  }
}

// --- Differential check: the fast path against the reference on random
// --- traces. Covers what the scenario tests above do not combine: every
// --- extended algorithm adopted and un-adopted, under every traffic
// --- setting, at relay-pass bounds of 0 (every edge-bearing step
// --- truncates), 1 and the default 128.

TEST(Reference, RandomTracesMatchFastPath) {
  std::mt19937_64 gen(20071024);
  const auto below = [&gen](std::uint64_t bound) {
    return static_cast<std::uint32_t>(gen() % bound);
  };
  const EvictionPolicy policies[] = {EvictionPolicy::kDropOldest,
                                     EvictionPolicy::kDropLargestHop,
                                     EvictionPolicy::kRandom};
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId n = 4 + below(5);
    // Bursts of random contacts separated by silent gaps.
    std::vector<Contact> cs;
    Seconds t = 0.0;
    for (int burst = 0; burst < 4; ++burst, t += 150.0 + below(250)) {
      for (int i = 0; i < 10; ++i) {
        const NodeId a = below(n);
        const NodeId b = (a + 1 + below(n - 1)) % n;
        const Seconds start = t + below(80);
        cs.push_back(Contact::make(a, b, start, start + 1.0 + below(30)));
      }
    }
    const Fixture f(std::move(cs), n, t);
    ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
    std::vector<Message> msgs;
    for (std::uint32_t i = 0; i < 12; ++i) {
      const NodeId src = below(n);
      const NodeId dst = (src + 1 + below(n - 1)) % n;
      msgs.push_back(msg(i, src, dst, below(static_cast<std::uint32_t>(t))));
      msgs.back().size_bytes = 1 + below(3);
    }
    std::vector<Message> ttl_msgs = msgs;
    for (Message& m : ttl_msgs) m.ttl = 40.0 + below(400);

    // Settings: 0 unlimited, 1 TTL only, 2 finite budget, 3-5 a finite
    // buffer under each eviction policy (with TTLs).
    for (int setting = 0; setting < 6; ++setting) {
      TrafficConfig traffic;
      if (setting == 2) traffic.contact_budget_bytes = 3;
      if (setting >= 3) {
        traffic.buffer_capacity_bytes = 4;
        traffic.eviction = policies[setting - 3];
      }
      const auto& messages = setting == 1 || setting >= 3 ? ttl_msgs : msgs;
      for (const std::uint32_t passes : {0U, 1U, 128U}) {
        for (const std::string& name : extended_algorithm_names()) {
          for (const bool adopt : {false, true}) {
            const auto alg = make_algorithm(name);
            if (adopt) {
              if (alg->shared_snapshot_key().empty()) continue;
              alg->adopt_shared_snapshot(
                  alg->build_shared_snapshot(f.graph, f.trace));
            }
            auto request = f.request(*alg, messages);
            request.traffic = traffic;
            request.max_relay_passes = passes;
            request.seed = 100 + static_cast<std::uint64_t>(trial);
            std::ostringstream label;
            label << "trial " << trial << " setting " << setting
                  << " passes " << passes << " " << name
                  << (adopt ? " adopted" : "");
            expect_results_identical(simulate_reference(request),
                                     simulate(request), label.str());
          }
        }
      }
    }
  }
}

// --- Livelocked relay steps: under bounded buffers, Epidemic's copies can
// --- evict each other around a contact cycle until the pass bound. The
// --- fast path stops replaying a pass that ends where it started and adds
// --- its deltas for the passes left; the reference runs every pass.

TEST(Reference, LivelockFastForwardMatchesReference) {
  struct Case {
    const char* label;
    const char* algorithm;
    EvictionPolicy eviction;
    std::uint64_t budget;
    bool fast_forwards;
  };
  const Case cases[] = {
      {"drop-oldest", "Epidemic", EvictionPolicy::kDropOldest,
       TrafficConfig::kUnlimited, true},
      {"drop-largest-hop", "Epidemic", EvictionPolicy::kDropLargestHop,
       TrafficConfig::kUnlimited, true},
      // Controls: the fast-forward must not engage (random eviction draws
      // from the RNG; a budget runs out; quota schemes are not the flood
      // class) and the results must match all the same.
      {"random", "Epidemic", EvictionPolicy::kRandom,
       TrafficConfig::kUnlimited, false},
      {"budget", "Epidemic", EvictionPolicy::kDropOldest, 6, false},
      {"spray", "Spray+Wait", EvictionPolicy::kDropOldest,
       TrafficConfig::kUnlimited, false},
  };
  std::uint64_t gated_truncated = 0;
  const auto expect_every_case_matches =
      [&](const Fixture& f, const std::vector<Message>& msgs,
          std::uint64_t capacity, std::uint64_t seed) {
        for (const Case& c : cases) {
          for (const std::uint32_t passes : {2U, 3U, 17U, 128U}) {
            const auto alg = make_algorithm(c.algorithm);
            auto request = f.request(*alg, msgs);
            request.traffic.buffer_capacity_bytes = capacity;
            request.traffic.contact_budget_bytes = c.budget;
            request.traffic.eviction = c.eviction;
            request.max_relay_passes = passes;
            request.seed = seed;
            const SimulationResult fast = simulate(request);
            std::ostringstream label;
            label << "seed " << seed << " " << c.label << " passes "
                  << passes;
            expect_results_identical(simulate_reference(request), fast,
                                     label.str());
            if (c.fast_forwards) gated_truncated += fast.truncated_relay_steps;
          }
        }
      };

  std::mt19937_64 gen(20070827);
  const auto below = [&gen](std::uint64_t bound) {
    return static_cast<std::uint32_t>(gen() % bound);
  };
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId n = 5 + below(4);
    // Long, overlapping contacts: many steps hold contact cycles.
    std::vector<Contact> cs;
    for (int i = 0; i < 14; ++i) {
      const NodeId a = below(n);
      const NodeId b = (a + 1 + below(n - 1)) % n;
      const Seconds start = below(60);
      cs.push_back(Contact::make(a, b, start, start + 20.0 + below(60)));
    }
    const Fixture f(std::move(cs), n, 150.0);
    std::vector<Message> msgs;
    for (std::uint32_t i = 0; i < 40 + below(20); ++i) {
      const NodeId src = below(n);
      const NodeId dst = (src + 1 + below(n - 1)) % n;
      msgs.push_back(msg(i, src, dst, below(90)));
    }
    const std::uint64_t capacity = 2 + below(2);
    expect_every_case_matches(f, msgs, capacity,
                              300 + static_cast<std::uint64_t>(trial));
  }

  // A step that is not a cycle although its residents return as a set:
  // under drop-largest-hop, message 2 cycles through node 3 and its hop
  // count there grows by two per pass, and the residents of node 3 swap
  // order between passes 1 and 2. A record that ignored order or hops
  // would fast-forward it and deliver message 2 with too few hops.
  const Fixture f(
      {
          Contact::make(0, 2, 222.0, 253.0),
          Contact::make(2, 1, 103.0, 125.0),
          Contact::make(2, 3, 199.0, 233.0),
          Contact::make(1, 4, 196.0, 207.0),
          Contact::make(2, 4, 126.0, 160.0),
          Contact::make(4, 3, 192.0, 218.0),
      },
      5, 420.0);
  expect_every_case_matches(f,
                            {msg(0, 2, 0, 207.0), msg(1, 4, 1, 148.0),
                             msg(2, 2, 0, 192.0), msg(3, 0, 3, 194.0),
                             msg(4, 4, 3, 0.0), msg(5, 1, 0, 162.0)},
                            2, 1217);
  EXPECT_GT(gated_truncated, 0u);
}

TEST(Simulator, NullRequestFieldsThrow) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const std::vector<Message> msgs = {msg(0, 0, 1, 0.0)};
  EXPECT_THROW((void)simulate(SimulationRequest{}), std::invalid_argument);
  auto no_alg = f.request(epidemic, msgs);
  no_alg.algorithm = nullptr;
  EXPECT_THROW((void)simulate(no_alg), std::invalid_argument);
  auto no_msgs = f.request(epidemic, msgs);
  no_msgs.messages = nullptr;
  EXPECT_THROW((void)simulate(no_msgs), std::invalid_argument);
  EXPECT_THROW((void)simulate_reference(no_msgs), std::invalid_argument);
}

TEST(SimulationResultTest, Aggregates) {
  SimulationResult r;
  r.outcomes = {{true, 10.0, 1}, {false, 0.0, 0}, {true, 30.0, 2}};
  EXPECT_EQ(r.delivered_count(), 2u);
  EXPECT_NEAR(r.success_rate(), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.average_delay(), 20.0);
  EXPECT_EQ(r.delivered_delays().size(), 2u);
  r.expirations = 1;
  r.drops = 2;
  EXPECT_NEAR(r.expiry_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.drop_rate(), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace psn::forward
