// The benchmark's workloads. BENCHMARK.json names them and the metrics
// they report; NOTES.md explains why each workload exists and which
// end-to-end metric each per-layer metric should move.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/serve/json.hpp"

namespace perfbench {

RunOutcome run_batch(const RunConfig& config);
RunOutcome run_serve_mix(const RunConfig& config);

// ---- pieces of the batch workloads, shared with the self-test ----

/// The digested result fields of a sweep: every CellSummary field except
/// the per-run walls (telemetry).
[[nodiscard]] psn::serve::Json cells_json(
    const std::vector<psn::engine::CellSummary>& cells);

/// Per-run record of a layer replay.
struct ReplayRun {
  double simulate_s = 0.0;
  std::string algorithm;
};

/// One sweep of a single-scenario plan replayed through the layers'
/// public calls — core::generate_workload seeded through
/// engine::workload_stream_seed, forward::simulate with one workspace per
/// worker seeded through engine::sim_stream_seed, then the engine's
/// aggregation — with a span around each call. Its cells must equal
/// engine::run_sweep's for the same plan.
[[nodiscard]] std::vector<psn::engine::CellSummary> replay_sweep(
    const psn::engine::SweepPlan& plan,
    const psn::engine::ScenarioContext& context,
    psn::engine::ThreadPool& pool, SpanRecorder& recorder,
    std::uint64_t parent, std::vector<ReplayRun>* runs_out);

}  // namespace perfbench
