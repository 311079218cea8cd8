// Bit-identity assertions shared by the equivalence tests: the fast
// simulator against forward::simulate_reference (or a sweep against
// another sweep), every observable field compared exactly — no tolerance
// on doubles, since both sides must compute the same bits.

#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>

#include "psn/engine/sweep.hpp"
#include "psn/forward/message.hpp"

namespace psn::test {

inline void expect_results_identical(const forward::SimulationResult& a,
                                     const forward::SimulationResult& b,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const forward::MessageOutcome& x = a.outcomes[i];
    const forward::MessageOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.delivered, y.delivered) << "message " << i;
    EXPECT_EQ(x.delay, y.delay) << "message " << i;
    EXPECT_EQ(x.hops, y.hops) << "message " << i;
    EXPECT_EQ(x.expired, y.expired) << "message " << i;
    EXPECT_EQ(x.dropped, y.dropped) << "message " << i;
  }
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.truncated_relay_steps, b.truncated_relay_steps);
  EXPECT_EQ(a.expirations, b.expirations);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.budget_blocked, b.budget_blocked);
  EXPECT_EQ(a.buffer_rejections, b.buffer_rejections);
}

inline void expect_cells_identical(const engine::SweepResult& lhs,
                                   const engine::SweepResult& rhs) {
  ASSERT_EQ(lhs.cells.size(), rhs.cells.size());
  for (std::size_t c = 0; c < lhs.cells.size(); ++c) {
    const engine::CellSummary& a = lhs.cells[c];
    const engine::CellSummary& b = rhs.cells[c];
    SCOPED_TRACE(a.scenario + " / " + a.algorithm);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.overall.messages, b.overall.messages);
    EXPECT_EQ(a.overall.delivered, b.overall.delivered);
    EXPECT_EQ(a.overall.success_rate, b.overall.success_rate);
    EXPECT_EQ(a.overall.average_delay, b.overall.average_delay);
    EXPECT_EQ(a.overall.average_hops, b.overall.average_hops);
    EXPECT_EQ(a.cost_per_message, b.cost_per_message);
    EXPECT_EQ(a.delays, b.delays);
    EXPECT_EQ(a.truncated_relay_steps, b.truncated_relay_steps);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.budget_blocked, b.budget_blocked);
    EXPECT_EQ(a.buffer_rejections, b.buffer_rejections);
    for (std::size_t t = 0; t < std::size(a.by_pair_type.per_type); ++t) {
      EXPECT_EQ(a.by_pair_type.per_type[t].success_rate,
                b.by_pair_type.per_type[t].success_rate);
      EXPECT_EQ(a.by_pair_type.per_type[t].average_delay,
                b.by_pair_type.per_type[t].average_delay);
    }
  }
}

}  // namespace psn::test
