// End-to-end integration: a miniature version of the paper's full pipeline
// on one synthetic conference window, asserting the headline qualitative
// claims. This is the repo's reproduction smoke test; the bench binaries
// print the full-size versions.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "psn/core/forwarding_study.hpp"
#include "psn/core/path_study.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/stats/cdf.hpp"
#include "psn/synth/conference.hpp"
#include "equivalence.hpp"

namespace psn {
namespace {

core::Dataset mini_dataset() {
  synth::ConferenceConfig config;
  config.mobile_nodes = 40;
  config.stationary_nodes = 8;
  config.t_max = 2.0 * 3600.0;
  config.mean_node_rate = 0.02;
  config.scan_interval = 120.0;
  config.modulation = synth::default_conference_modulation(config.t_max);
  config.seed = 0xE2E;
  auto generated = synth::generate_conference(config);

  core::Dataset ds;
  ds.name = "mini-conference";
  ds.trace = std::move(generated.trace);
  ds.rates = trace::classify_rates(ds.trace);
  ds.message_horizon = 1.0 * 3600.0;
  return ds;
}

TEST(Integration, PathExplosionHeadline) {
  // Claim (§4.2): once the first path arrives, many follow quickly — TE is
  // typically far smaller than T1's spread.
  const auto ds = mini_dataset();
  core::PathStudyConfig config;
  config.messages = 40;
  config.k = 200;
  config.seed = 3;
  const auto result = run_path_study(ds, config);

  const stats::EmpiricalCdf t1(result.optimal_durations());
  const stats::EmpiricalCdf te(result.times_to_explosion());
  ASSERT_GE(t1.size(), 20u);
  ASSERT_GE(te.size(), 10u);
  // Explosion concentration: the typical TE is much smaller than the
  // typical T1 spread (order-of-magnitude separation in the tails).
  EXPECT_LT(te.quantile(0.75), std::max(t1.quantile(0.9), 60.0));
  // Most exploded messages exploded fast.
  EXPECT_GE(te.at(150.0), 0.6);
}

TEST(Integration, QuadrantOrderingHeadline) {
  // Claim (§5.2): T1 keyed to the source class, TE to the destination
  // class. Check on pooled quadrant means with a generous sample.
  const auto ds = mini_dataset();
  core::PathStudyConfig config;
  config.messages = 120;
  config.k = 200;
  config.seed = 11;
  const auto result = run_path_study(ds, config);

  double t1_sum[4] = {0, 0, 0, 0};
  std::size_t t1_n[4] = {0, 0, 0, 0};
  for (std::size_t q = 0; q < 4; ++q) {
    for (const auto& rec :
         result.quadrants.of(static_cast<core::Quadrant>(q))) {
      if (!rec.delivered) continue;
      t1_sum[q] += rec.optimal_duration;
      ++t1_n[q];
    }
  }
  // in-in vs out-in and in-out vs out-out compare source classes with the
  // destination class held fixed.
  const auto mean = [&](std::size_t q) {
    return t1_n[q] ? t1_sum[q] / static_cast<double>(t1_n[q]) : 0.0;
  };
  if (t1_n[0] >= 5 && t1_n[2] >= 5) {
    EXPECT_LT(mean(0), mean(2) * 1.5);
  }
  if (t1_n[1] >= 5 && t1_n[3] >= 5) {
    EXPECT_LT(mean(1), mean(3) * 1.5);
  }
}

TEST(Integration, AlgorithmSimilarityHeadline) {
  // Claim (§6.2): the six algorithms' success rates cluster; Epidemic
  // bounds everyone; pair type matters more than algorithm.
  const auto ds = mini_dataset();
  core::ForwardingStudyConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  config.seed = 5;
  const auto result = run_forwarding_study(ds, config);
  ASSERT_EQ(result.algorithms.size(), 6u);

  const double epidemic_s = result.algorithms[0].overall.success_rate;
  ASSERT_GT(epidemic_s, 0.3);
  for (const auto& study : result.algorithms) {
    EXPECT_LE(study.overall.success_rate, epidemic_s + 1e-12)
        << study.overall.algorithm;
    // No forwarding chain may be silently truncated at paper scale.
    EXPECT_EQ(study.truncated_relay_steps, 0u) << study.overall.algorithm;
  }
  // The epidemic hop fix: delivered floods carry real hop counts.
  EXPECT_GT(result.algorithms[0].overall.average_hops, 0.0);

  // Pair-type effect: for Epidemic itself, in-in success should beat
  // out-out success (delivery to rarely-seen nodes is the hard case).
  const auto& epidemic_types = result.algorithms[0].by_pair_type.per_type;
  if (epidemic_types[0].messages >= 10 && epidemic_types[3].messages >= 10) {
    EXPECT_GE(epidemic_types[0].success_rate,
              epidemic_types[3].success_rate);
  }
}

TEST(Integration, CostExtensionHeadline) {
  // Extension: Epidemic's transmission cost dwarfs single-copy schemes.
  const auto ds = mini_dataset();
  core::ForwardingStudyConfig config;
  config.runs = 1;
  config.message_rate = 0.02;
  config.seed = 7;
  const auto result = run_forwarding_study(ds, config);
  const double epidemic_cost = result.algorithms[0].cost_per_message;
  const double fresh_cost = result.algorithms[1].cost_per_message;
  EXPECT_GT(epidemic_cost, 4.0 * std::max(fresh_cost, 0.5));
  for (const auto& study : result.algorithms)
    EXPECT_EQ(study.truncated_relay_steps, 0u) << study.overall.algorithm;
}

TEST(Integration, CityScaleSweepRunsEndToEnd) {
  // The scale-up acceptance check: a 2048-node scenario through run_sweep,
  // epidemic plus a single-copy scheme, end to end. Sixteen times the
  // historical 128-node ceiling.
  const auto scenario = engine::make_scenario_by_name("city_2048");
  ASSERT_EQ(scenario.dataset->trace.num_nodes(), 2048u);
  ASSERT_GT(scenario.dataset->trace.size(), 10000u);

  engine::PlanConfig config;
  config.runs = 1;
  config.master_seed = 11;
  config.message_rate = 0.002;  // ~14 messages; scale is in N, not load.
  const auto plan =
      engine::make_plan({scenario}, {"Epidemic", "FRESH"}, config);

  engine::SweepOptions options;
  options.threads = 2;
  const auto result = engine::run_sweep(plan, options);
  ASSERT_EQ(result.cells.size(), 2u);

  const auto& epidemic = result.cells[0];
  const auto& fresh = result.cells[1];
  // The flood is the upper bound and must actually deliver at this scale.
  EXPECT_GT(epidemic.overall.delivered, 0u);
  EXPECT_GE(epidemic.overall.success_rate,
            fresh.overall.success_rate - 1e-12);
  // Delivered floods carry real hop counts through the closure.
  EXPECT_GT(epidemic.overall.average_hops, 0.0);
  // No silent relay truncation, even at city scale.
  EXPECT_EQ(epidemic.truncated_relay_steps, 0u);
  EXPECT_EQ(fresh.truncated_relay_steps, 0u);

  // Equivalence at city scale: the sparse event timeline (the default
  // above) must match the every-step reference simulator bit for bit,
  // and stay thread-count invariant. The scenario handle keeps the
  // dataset and graph cached, so these sweeps rebuild neither.
  engine::SweepOptions dense;
  dense.threads = 2;
  dense.reference = true;
  const auto reference = engine::run_sweep(plan, dense);
  std::vector<engine::SweepResult> sparse_results;
  for (const std::size_t threads : {1u, 8u}) {
    engine::SweepOptions sparse;
    sparse.threads = threads;
    sparse_results.push_back(engine::run_sweep(plan, sparse));
  }
  test::expect_cells_identical(reference, result);
  for (const engine::SweepResult& other : sparse_results)
    test::expect_cells_identical(reference, other);
}

}  // namespace
}  // namespace psn
