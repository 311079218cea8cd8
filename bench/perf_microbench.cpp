// google-benchmark microbenchmarks for the heavy kernels: trace
// generation, space-time graph construction, reachability sweeps, path
// enumeration, and the forwarding simulator — plus two sweep-engine
// benchmarks that write machine-readable BENCH_sweep.json so successive
// PRs have a perf trajectory:
//  * the thread-scaling matrix (wall time and runs/sec per thread count
//    on the paper-scale dataset),
//  * the node-count scaling series (per-run wall times for epidemic,
//    FRESH, and PRoPHET on the registry's town_128 … megacity_65k tiers,
//    with graph arena bytes/contact as the memory column and an oracle
//    re-run through forward::simulate_reference — every step, every
//    edge, per-run observation state — as every fast path's baseline),
//    and
//  * the event-timeline series (sparse active-step replay, per-run wall
//    seconds on the large sparse tiers), and
//  * the path-explosion comparison (dense vs sparse k-path enumeration
//    through the engine's parallel path sweep, per-tier enumeration
//    walls and deliveries/s), and
//  * the model scaling series (the §5 jump-process ensemble and the
//    heterogeneous Monte Carlo through engine::run_model_sweep on the
//    model_100 … model_100k tiers: per-tier events/s, replicas/s, and
//    MC messages/s), and
//  * the contended-traffic offered-load sweep (finite per-node buffers on
//    the sizing tiers, Epidemic vs the Spray+Wait quota scheme across
//    rate multipliers: success/drop rates, evictions, deliveries/s), and
//  * the resident-service comparison (N repeated forwarding requests
//    through psn_serve's SweepService — batch coalescing plus the warm
//    scenario cache — vs the same N as cold one-shot executions, with
//    bit-identity of every served payload asserted against the one-shot
//    reference).
//
// Knobs: PSN_BENCH_RUNS (matrix repetitions, default 3),
// PSN_BENCH_SWEEP_THREADS (comma list, default "1,2,4,8"),
// PSN_BENCH_SWEEP_JSON (output path, default BENCH_sweep.json; empty
// string disables all sweep sections), PSN_BENCH_SCALING_SCENARIOS
// (comma list, default
// "town_128,campus_512,city_2048,metro_16k,megacity_65k"; empty disables
// the scaling series), PSN_BENCH_SCALING_RUNS (default 2),
// PSN_BENCH_SCALAR_MAX_NODES (largest tier that also re-runs the
// reference-simulator oracle, default 16384 — the oracle at 65k nodes is
// minutes per run, not a per-PR trajectory point),
// PSN_BENCH_FRESH_MAX_NODES (largest tier that includes the non-flood
// legs FRESH and PRoPHET in the scaling series, default 65536 — the
// shared observation snapshots and holder-incident replay make them
// seconds, not minutes, at 65k nodes),
// PSN_BENCH_TIMELINE_SCENARIOS (comma list, default
// "campus_512,city_2048,city_2048_diurnal"; empty disables the timeline
// comparison),
// PSN_BENCH_PATH_SCENARIOS (comma list, default
// "conference_small,campus_512,city_2048"; empty disables the
// path-explosion comparison), PSN_BENCH_PATH_MESSAGES (messages per
// tier, default 8), PSN_BENCH_PATH_K (explosion threshold for the
// bench, default 256 — k=2000 on city_2048 is a long-haul run, not a
// per-PR trajectory point), PSN_BENCH_MODEL_SCENARIOS (comma list,
// default "model_100,model_1k,model_10k,model_100k"; empty disables the
// model series), PSN_BENCH_MODEL_REPLICAS (jump realizations per tier,
// default 4), PSN_BENCH_MODEL_MESSAGES (MC messages per tier, default 0 =
// each tier's registered budget), PSN_BENCH_TRAFFIC_SCENARIOS (comma
// list, default "town_128,campus_512,city_2048"; empty disables the
// traffic sweep), PSN_BENCH_TRAFFIC_MULTIPLIERS (comma list of offered-
// load multipliers, default "1,4,16"), PSN_BENCH_TRAFFIC_RUNS (default
// 2), PSN_BENCH_TRAFFIC_CAPACITY (per-node buffer capacity in bytes,
// default 8), PSN_BENCH_TRAFFIC_RATE (base message rate in msgs/s,
// default 0.01), PSN_BENCH_SERVE_SCENARIOS (comma list, default
// "city_2048"; empty disables the resident-service comparison), and
// PSN_BENCH_SERVE_REQUESTS (requests per serve scenario, default 32).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/core/forwarding_study.hpp"
#include "psn/core/workload.hpp"
#include "psn/engine/model_sweep.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/run_spec.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/algorithms/epidemic.hpp"
#include "psn/forward/simulator.hpp"
#include "psn/graph/reachability.hpp"
#include "psn/graph/space_time_graph.hpp"
#include "psn/paths/enumerator.hpp"
#include "psn/serve/request.hpp"
#include "psn/serve/service.hpp"
#include "psn/synth/pairwise_poisson.hpp"

namespace {

const psn::core::Dataset& dataset() {
  static const auto ds = psn::core::DatasetFactory::paper_dataset(0);
  return ds;
}

const psn::graph::SpaceTimeGraph& graph() {
  static const psn::graph::SpaceTimeGraph g(dataset().trace, 10.0);
  return g;
}

void BM_TraceGeneration(benchmark::State& state) {
  psn::synth::PairwisePoissonConfig config;
  config.num_nodes = static_cast<psn::trace::NodeId>(state.range(0));
  config.t_max = 3600.0;
  config.seed = 1;
  for (auto _ : state) {
    auto g = psn::synth::generate_pairwise_poisson(config);
    benchmark::DoNotOptimize(g.trace.size());
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(32)->Arg(64)->Arg(128);

void BM_SpaceTimeGraphBuild(benchmark::State& state) {
  const auto& ds = dataset();
  const double delta = static_cast<double>(state.range(0));
  for (auto _ : state) {
    psn::graph::SpaceTimeGraph g(ds.trace, delta);
    benchmark::DoNotOptimize(g.total_edges());
  }
}
BENCHMARK(BM_SpaceTimeGraphBuild)->Arg(5)->Arg(10)->Arg(30);

void BM_ReachabilitySweep(benchmark::State& state) {
  const auto& g = graph();
  psn::graph::NodeId src = 0;
  for (auto _ : state) {
    const auto r = psn::graph::earliest_delivery(g, src, 0.0);
    benchmark::DoNotOptimize(r.arrival_step.size());
    src = (src + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_ReachabilitySweep);

void BM_PathEnumeration(benchmark::State& state) {
  const auto& g = graph();
  psn::paths::EnumeratorConfig config;
  config.k = static_cast<std::size_t>(state.range(0));
  config.record_paths = false;
  const psn::paths::KPathEnumerator enumerator(g, config);
  // The sweep's production shape: one warm workspace per worker thread.
  psn::paths::EnumeratorWorkspace workspace;
  psn::graph::NodeId src = 0;
  for (auto _ : state) {
    const auto r = enumerator.enumerate(src, (src + 7) % g.num_nodes(), 0.0,
                                        workspace);
    benchmark::DoNotOptimize(r.deliveries.size());
    src = (src + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_PathEnumeration)->Arg(100)->Arg(2000);

void BM_EpidemicSimulation(benchmark::State& state) {
  const auto& ds = dataset();
  const auto& g = graph();
  psn::core::WorkloadConfig wc;
  wc.message_rate = 0.05;
  wc.horizon = ds.message_horizon;
  wc.seed = 3;
  const auto messages = psn::core::poisson_workload(ds.trace.num_nodes(), wc);
  psn::forward::EpidemicForwarding epidemic;
  psn::forward::SimulationRequest request;
  request.algorithm = &epidemic;
  request.graph = &g;
  request.trace = &ds.trace;
  request.messages = &messages;
  for (auto _ : state) {
    const auto r = psn::forward::simulate(request);
    benchmark::DoNotOptimize(r.delivered_count());
  }
}
BENCHMARK(BM_EpidemicSimulation);

void BM_SingleCopySimulation(benchmark::State& state) {
  const auto& ds = dataset();
  const auto& g = graph();
  psn::core::WorkloadConfig wc;
  wc.message_rate = 0.05;
  wc.horizon = ds.message_horizon;
  wc.seed = 3;
  const auto messages = psn::core::poisson_workload(ds.trace.num_nodes(), wc);
  auto algs = psn::forward::make_paper_algorithms();
  auto& fresh = *algs[1];
  psn::forward::SimulationRequest request;
  request.algorithm = &fresh;
  request.graph = &g;
  request.trace = &ds.trace;
  request.messages = &messages;
  for (auto _ : state) {
    const auto r = psn::forward::simulate(request);
    benchmark::DoNotOptimize(r.delivered_count());
  }
}
BENCHMARK(BM_SingleCopySimulation);

// --- Sweep-engine matrix: (paper algorithms) x (1 scenario) x (runs) at
// --- several thread counts, reported as wall time and runs/sec.

std::vector<std::size_t> sweep_thread_counts() {
  std::string raw = "1,2,4,8";
  if (const char* env = std::getenv("PSN_BENCH_SWEEP_THREADS")) raw = env;
  std::vector<std::size_t> counts;
  std::stringstream stream(raw);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const long long v = std::atoll(token.c_str());
    if (v > 0) counts.push_back(static_cast<std::size_t>(v));
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

struct MatrixPoint {
  std::size_t threads_requested;
  std::size_t threads_used;  ///< the sweep's actual pool worker count.
  double wall_seconds;
  double runs_per_sec;
  double run_wall_seconds;  ///< summed per-run work time.
};

/// Thread-matrix results plus the shape of the plan that produced them,
/// so the JSON header always describes the experiment actually run.
struct MatrixResult {
  std::string dataset;
  std::size_t algorithms = 0;
  std::size_t runs_per_algorithm = 0;
  std::size_t total_runs = 0;
  std::vector<MatrixPoint> points;
};

struct ScalePoint {
  std::string scenario;
  psn::trace::NodeId nodes = 0;
  std::size_t contacts = 0;
  double dataset_build_seconds = 0.0;
  double graph_build_seconds = 0.0;   ///< sharded (pool-executor) build.
  std::size_t arena_bytes = 0;        ///< CSR arena footprint of the graph.
  double bytes_per_contact = 0.0;     ///< arena_bytes / contacts.
  struct AlgorithmRuns {
    std::string name;
    /// Fast-path walls, run order: word-parallel flood kernel for the
    /// replicators, holder-incident scan + shared observation snapshots
    /// for the non-flood schemes.
    std::vector<double> run_walls;
    /// Oracle walls for the same runs through simulate_reference —
    /// every step, every edge, per-run observation state. Outcomes are
    /// bit-identical to the fast path; only walls differ. Empty above
    /// the PSN_BENCH_SCALAR_MAX_NODES cap.
    std::vector<double> scalar_run_walls;
    double success_rate = 0.0;
  };
  std::vector<AlgorithmRuns> algorithms;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

MatrixResult run_sweep_matrix_bench() {
  const auto& ds = dataset();
  psn::engine::PlanConfig pc;
  pc.runs = psn::bench::bench_runs();
  pc.master_seed = 7;
  pc.message_rate = 0.05;
  const auto plan = psn::engine::make_plan(
      {psn::engine::make_scenario(ds)},
      psn::forward::paper_algorithm_names(), pc);

  std::cout << "\nsweep matrix: " << plan.algorithms.size()
            << " algorithms x 1 scenario x " << pc.runs << " runs = "
            << plan.total_runs() << " runs ("
            << std::thread::hardware_concurrency()
            << " hardware threads, pool default "
            << psn::engine::ThreadPool::hardware_threads() << ")\n";

  MatrixResult matrix;
  matrix.dataset = ds.name;
  matrix.algorithms = plan.algorithms.size();
  matrix.runs_per_algorithm = pc.runs;
  matrix.total_runs = plan.total_runs();
  for (const std::size_t threads : sweep_thread_counts()) {
    psn::engine::SweepOptions options;
    options.threads = threads;
    options.keep_delays = false;
    const auto start = std::chrono::steady_clock::now();
    const auto result = psn::engine::run_sweep(plan, options);
    const double wall = seconds_since(start);
    MatrixPoint point;
    point.threads_requested = threads;
    point.threads_used = result.threads;
    point.wall_seconds = wall;
    point.runs_per_sec =
        wall > 0.0 ? static_cast<double>(plan.total_runs()) / wall : 0.0;
    point.run_wall_seconds = 0.0;
    for (const auto& cell : result.cells)
      for (const double w : cell.run_walls) point.run_wall_seconds += w;
    matrix.points.push_back(point);
    std::cout << "  threads=" << threads << "  wall=" << wall << "s  "
              << point.runs_per_sec << " runs/s\n";
  }
  return matrix;
}

// --- Node-count scaling series: the registry's town/campus/city tiers,
// --- epidemic + the non-flood schemes, per-run wall times.

std::vector<std::string> names_from_env(const char* var,
                                        const char* fallback) {
  std::string raw = fallback;
  if (const char* env = std::getenv(var)) raw = env;
  std::vector<std::string> names;
  std::stringstream stream(raw);
  std::string token;
  while (std::getline(stream, token, ','))
    if (!token.empty()) names.push_back(token);
  return names;
}

std::vector<std::string> scaling_scenario_names() {
  return names_from_env("PSN_BENCH_SCALING_SCENARIOS",
                        "town_128,campus_512,city_2048,metro_16k,"
                        "megacity_65k");
}

std::size_t scalar_max_nodes() {
  return psn::bench::env_size("PSN_BENCH_SCALAR_MAX_NODES", 16384);
}

// The non-flood legs (FRESH, PRoPHET) historically stopped at 16k: the
// per-run N x N observation tables and full per-step scans made one 65k
// run minutes, not seconds. With shared observation snapshots and the
// holder-incident replay they complete at every tier, so the default cap
// now includes megacity_65k; the env knob remains for slow machines.
std::size_t fresh_max_nodes() {
  return psn::bench::env_size("PSN_BENCH_FRESH_MAX_NODES", 65536);
}

std::size_t scaling_runs() {
  if (const char* env = std::getenv("PSN_BENCH_SCALING_RUNS")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 2;
}

std::vector<ScalePoint> run_scaling_bench() {
  const auto names = scaling_scenario_names();
  std::vector<ScalePoint> points;
  if (names.empty()) return points;

  const std::size_t runs = scaling_runs();
  const std::size_t scalar_cap = scalar_max_nodes();
  const std::size_t fresh_cap = fresh_max_nodes();
  // Dataset generation and graph construction are sharded over this pool
  // (the metropolis tiers and the CSR build); results are byte-identical
  // to their serial builds, so the executor affects wall times only.
  psn::engine::ThreadPool pool(psn::engine::ThreadPool::hardware_threads());
  const psn::util::ParallelFor pool_executor = psn::engine::parallel_for(pool);
  std::cout << "\nnode-count scaling series: {epidemic, FRESH, PRoPHET} x "
            << runs << " runs per tier (reference-simulator oracle up to N="
            << scalar_cap << ", non-flood legs up to N=" << fresh_cap
            << ")\n";
  for (const auto& name : names) {
    ScalePoint point;
    point.scenario = name;

    const auto build_start = std::chrono::steady_clock::now();
    psn::engine::Scenario scenario;
    try {
      scenario = psn::engine::make_scenario_by_name(name, pool_executor);
    } catch (const std::invalid_argument& e) {
      // A typo in PSN_BENCH_SCALING_SCENARIOS must not discard the rest
      // of the run's results.
      std::cerr << "perf_microbench: skipping scaling scenario: " << e.what()
                << '\n';
      continue;
    }
    point.dataset_build_seconds = seconds_since(build_start);
    point.nodes = scenario.dataset->trace.num_nodes();
    point.contacts = scenario.dataset->trace.size();

    const auto graph_start = std::chrono::steady_clock::now();
    const psn::graph::SpaceTimeGraph graph(scenario.dataset->trace,
                                           scenario.delta, pool_executor);
    point.graph_build_seconds = seconds_since(graph_start);
    point.arena_bytes = graph.arena_bytes();
    if (point.contacts > 0)
      point.bytes_per_contact = static_cast<double>(point.arena_bytes) /
                                static_cast<double>(point.contacts);

    psn::engine::PlanConfig pc;
    pc.runs = runs;
    pc.master_seed = 7;
    // Fixed workload intensity across tiers: the scaling series measures
    // the cost of population size, not of message volume.
    pc.message_rate = 0.01;
    std::vector<std::string> algorithms{"Epidemic"};
    if (point.nodes <= fresh_cap) {
      algorithms.push_back("FRESH");
      algorithms.push_back("PRoPHET");
    }
    const auto plan = psn::engine::make_plan({scenario}, algorithms, pc);
    psn::engine::SweepOptions options;
    options.keep_delays = false;
    const auto result = psn::engine::run_sweep(plan, options);
    // The oracle leg replays the identical runs through the reference
    // simulator: every step, every contact edge, node-by-node flood
    // closure, per-run observation state. Outcomes are bit-identical to
    // the fast sweep above — only walls differ. Above the cap the oracle
    // re-run is skipped (it is minutes, not seconds, at 65k nodes).
    psn::engine::SweepResult oracle_result;
    const bool run_oracle = point.nodes <= scalar_cap;
    if (run_oracle) {
      options.reference = true;
      oracle_result = psn::engine::run_sweep(plan, options);
    }

    for (std::size_t c = 0; c < result.cells.size(); ++c) {
      const auto& cell = result.cells[c];
      ScalePoint::AlgorithmRuns algo;
      algo.name = cell.algorithm;
      algo.run_walls = cell.run_walls;
      if (run_oracle) algo.scalar_run_walls = oracle_result.cells[c].run_walls;
      algo.success_rate = cell.overall.success_rate;
      point.algorithms.push_back(std::move(algo));
    }
    std::cout << "  " << name << ": N=" << point.nodes
              << "  contacts=" << point.contacts
              << "  graph_build=" << point.graph_build_seconds << "s"
              << "  arena=" << point.bytes_per_contact << " B/contact";
    for (const auto& algo : point.algorithms) {
      double sum = 0.0;
      for (const double w : algo.run_walls) sum += w;
      std::cout << "  " << algo.name << "="
                << sum / static_cast<double>(algo.run_walls.size())
                << "s/run";
      if (!algo.scalar_run_walls.empty()) {
        double scalar_sum = 0.0;
        for (const double w : algo.scalar_run_walls) scalar_sum += w;
        std::cout << " (reference "
                  << scalar_sum /
                         static_cast<double>(algo.scalar_run_walls.size())
                  << "s/run)";
      }
    }
    std::cout << '\n';
    points.push_back(std::move(point));
  }
  return points;
}

// --- Event-timeline series: sparse active-step replay, per-run wall
// --- seconds on the large sparse tiers, beside each tier's total and
// --- active step counts.

struct TimelinePoint {
  std::string scenario;
  psn::trace::NodeId nodes = 0;
  std::size_t total_steps = 0;
  std::size_t active_steps = 0;
  struct AlgorithmRuns {
    std::string name;
    std::vector<double> sparse_run_walls;  ///< per-run wall times, run order.
  };
  std::vector<AlgorithmRuns> algorithms;
};

std::vector<std::string> timeline_scenario_names() {
  // city_2048_diurnal is the tier the sparse timeline exists for: a third
  // of its window is contact-free, so gap skipping finally has gaps to
  // skip at city scale.
  return names_from_env("PSN_BENCH_TIMELINE_SCENARIOS",
                        "campus_512,city_2048,city_2048_diurnal");
}

std::vector<TimelinePoint> run_event_timeline_bench() {
  const auto names = timeline_scenario_names();
  std::vector<TimelinePoint> points;
  if (names.empty()) return points;

  const std::size_t runs = scaling_runs();
  std::cout << "\nevent-timeline series (sparse replay): "
            << "{epidemic, FRESH} x " << runs << " runs per tier\n";
  for (const auto& name : names) {
    psn::engine::Scenario scenario;
    try {
      scenario = psn::engine::make_scenario_by_name(name);
    } catch (const std::invalid_argument& e) {
      std::cerr << "perf_microbench: skipping timeline scenario: " << e.what()
                << '\n';
      continue;
    }
    const auto context =
        psn::engine::ScenarioContextCache::instance().acquire(scenario);

    TimelinePoint point;
    point.scenario = name;
    point.nodes = context->dataset->trace.num_nodes();
    point.total_steps = context->graph->num_steps();
    point.active_steps = context->graph->num_active_steps();

    psn::engine::PlanConfig pc;
    pc.runs = runs;
    pc.master_seed = 7;
    pc.message_rate = 0.01;
    const auto plan =
        psn::engine::make_plan({scenario}, {"Epidemic", "FRESH"}, pc);

    psn::engine::SweepOptions options;
    options.keep_delays = false;
    const auto sparse = psn::engine::run_sweep(plan, options);

    std::cout << "  " << name << ": steps=" << point.total_steps
              << " active=" << point.active_steps;
    for (const auto& cell : sparse.cells) {
      TimelinePoint::AlgorithmRuns algo;
      algo.name = cell.algorithm;
      algo.sparse_run_walls = cell.run_walls;
      double sparse_sum = 0.0;
      for (const double w : algo.sparse_run_walls) sparse_sum += w;
      std::cout << "  " << algo.name
                << " sparse=" << sparse_sum / static_cast<double>(runs)
                << "s/run";
      point.algorithms.push_back(std::move(algo));
    }
    std::cout << '\n';
    points.push_back(std::move(point));
  }
  return points;
}

// --- Path-explosion comparison: dense vs sparse k-path enumeration
// --- through the engine's parallel path sweep, per tier. The per-message
// --- walls are summed work time (thread-count independent up to
// --- scheduling noise); deliveries/s is the throughput headline.

struct PathPoint {
  std::string scenario;
  psn::trace::NodeId nodes = 0;
  std::size_t total_steps = 0;
  std::size_t active_steps = 0;
  std::size_t messages = 0;
  std::size_t k = 0;
  double dense_wall_seconds = 0.0;   ///< summed per-message walls, kDense.
  double sparse_wall_seconds = 0.0;  ///< summed per-message walls, kSparse.
  std::uint64_t deliveries = 0;      ///< pooled variants delivered (sparse).
  std::uint64_t dense_steps_replayed = 0;
  std::uint64_t sparse_steps_replayed = 0;
  double sparse_deliveries_per_sec = 0.0;
};

std::vector<std::string> path_scenario_names() {
  return names_from_env("PSN_BENCH_PATH_SCENARIOS",
                        "conference_small,campus_512,city_2048");
}

std::size_t path_messages() {
  return psn::bench::env_size("PSN_BENCH_PATH_MESSAGES", 8);
}

std::size_t path_k() { return psn::bench::env_size("PSN_BENCH_PATH_K", 256); }

std::vector<PathPoint> run_path_explosion_bench() {
  const auto names = path_scenario_names();
  std::vector<PathPoint> points;
  if (names.empty()) return points;

  const std::size_t messages = path_messages();
  const std::size_t k = path_k();
  std::cout << "\npath-explosion comparison (dense vs sparse enumeration): "
            << messages << " messages x k=" << k << " per tier\n";
  for (const auto& name : names) {
    psn::engine::Scenario scenario;
    try {
      scenario = psn::engine::make_scenario_by_name(name);
    } catch (const std::invalid_argument& e) {
      std::cerr << "perf_microbench: skipping path scenario: " << e.what()
                << '\n';
      continue;
    }
    const auto context =
        psn::engine::ScenarioContextCache::instance().acquire(scenario);

    PathPoint point;
    point.scenario = name;
    point.nodes = context->dataset->trace.num_nodes();
    point.total_steps = context->graph->num_steps();
    point.active_steps = context->graph->num_active_steps();
    point.messages = messages;
    point.k = k;

    psn::engine::PathSweepPlan plan;
    plan.scenarios = {scenario};
    plan.config.messages = messages;
    plan.config.k = k;
    plan.config.seed = 42;
    plan.config.record_paths = false;

    psn::engine::PathSweepOptions options;
    options.keep_results = false;
    options.replay = psn::paths::ReplayMode::kDense;
    const auto dense = psn::engine::run_path_sweep(plan, options);
    options.replay = psn::paths::ReplayMode::kSparse;
    const auto sparse = psn::engine::run_path_sweep(plan, options);

    point.dense_wall_seconds = dense.cells[0].enumeration_wall_seconds;
    point.sparse_wall_seconds = sparse.cells[0].enumeration_wall_seconds;
    for (const auto& rec : dense.cells[0].records)
      point.dense_steps_replayed += rec.effort.steps_replayed;
    for (const auto& rec : sparse.cells[0].records) {
      point.sparse_steps_replayed += rec.effort.steps_replayed;
      point.deliveries += rec.total_paths;
    }
    point.sparse_deliveries_per_sec =
        point.sparse_wall_seconds > 0.0
            ? static_cast<double>(point.deliveries) / point.sparse_wall_seconds
            : 0.0;

    std::cout << "  " << name << ": N=" << point.nodes
              << "  steps=" << point.total_steps
              << " active=" << point.active_steps
              << "  dense=" << point.dense_wall_seconds
              << "s sparse=" << point.sparse_wall_seconds << "s  "
              << point.sparse_deliveries_per_sec << " deliveries/s\n";
    points.push_back(std::move(point));
  }
  return points;
}

// --- Model scaling series: the §5 jump-process ensemble and the
// --- heterogeneous Monte Carlo through engine::run_model_sweep on the
// --- registered model tiers (N = 100 … 100 000). The walls are summed
// --- per-unit work time; events/s and messages/s are the throughput
// --- headlines (the N = 100 000 tier completing here is the ISSUE 5
// --- acceptance gate).

struct ModelPoint {
  std::string scenario;
  std::size_t population = 0;
  std::size_t jump_replicas = 0;
  std::size_t jump_samples = 0;
  std::uint64_t jump_events = 0;
  double jump_wall_seconds = 0.0;  ///< summed per-replica walls.
  double jump_events_per_sec = 0.0;
  double jump_replicas_per_sec = 0.0;
  std::size_t mc_messages = 0;
  std::size_t mc_delivered = 0;
  std::size_t mc_exploded = 0;
  double mc_wall_seconds = 0.0;  ///< summed per-message walls.
  double mc_messages_per_sec = 0.0;
};

std::vector<std::string> model_scenario_names_env() {
  return names_from_env("PSN_BENCH_MODEL_SCENARIOS",
                        "model_100,model_1k,model_10k,model_100k");
}

std::size_t model_replicas() {
  return psn::bench::env_size("PSN_BENCH_MODEL_REPLICAS", 4);
}

std::size_t model_messages_override() {
  // 0 = keep each tier's registered message budget.
  return psn::bench::env_size("PSN_BENCH_MODEL_MESSAGES", 0);
}

std::vector<ModelPoint> run_model_bench() {
  const auto names = model_scenario_names_env();
  std::vector<ModelPoint> points;
  if (names.empty()) return points;

  const std::size_t replicas = model_replicas();
  const std::size_t messages_override = model_messages_override();
  std::cout << "\nmodel scaling series (jump ensemble + heterogeneous MC): "
            << replicas << " replicas per tier\n";
  for (const auto& name : names) {
    psn::engine::ModelSweepPlan plan;
    try {
      plan.scenarios = {psn::engine::make_model_scenario(name)};
    } catch (const std::invalid_argument& e) {
      // A typo in PSN_BENCH_MODEL_SCENARIOS must not discard the rest of
      // the run's results.
      std::cerr << "perf_microbench: skipping model scenario: " << e.what()
                << '\n';
      continue;
    }
    if (messages_override > 0)
      plan.scenarios[0].mc.messages = messages_override;
    plan.config.jump_replicas = replicas;
    plan.config.master_seed = 7;

    psn::engine::ModelSweepOptions options;
    options.keep_messages = false;
    const auto result = psn::engine::run_model_sweep(plan, options);
    const auto& cell = result.cells[0];

    ModelPoint point;
    point.scenario = name;
    point.population = cell.population;
    point.jump_replicas = cell.jump_replicas;
    point.jump_samples = cell.trajectory.size();
    point.jump_events = cell.jump_events;
    point.jump_wall_seconds = cell.jump_wall_seconds;
    if (cell.jump_wall_seconds > 0.0) {
      point.jump_events_per_sec =
          static_cast<double>(cell.jump_events) / cell.jump_wall_seconds;
      point.jump_replicas_per_sec =
          static_cast<double>(cell.jump_replicas) / cell.jump_wall_seconds;
    }
    point.mc_messages = plan.scenarios[0].mc.messages;
    for (std::size_t q = 0; q < 4; ++q) {
      point.mc_delivered += cell.quadrants.delivered[q];
      point.mc_exploded += cell.quadrants.exploded[q];
    }
    point.mc_wall_seconds = cell.mc_wall_seconds;
    if (cell.mc_wall_seconds > 0.0)
      point.mc_messages_per_sec =
          static_cast<double>(point.mc_messages) / cell.mc_wall_seconds;

    std::cout << "  " << name << ": N=" << point.population
              << "  jump=" << point.jump_wall_seconds << "s ("
              << point.jump_events_per_sec << " events/s)  mc="
              << point.mc_wall_seconds << "s (" << point.mc_messages
              << " msgs, " << point.mc_messages_per_sec << " msgs/s)\n";
    points.push_back(std::move(point));
  }
  return points;
}

// --- Contended-traffic offered-load sweep: finite per-node buffers on
// --- the sizing tiers, flooding vs a quota scheme across offered-load
// --- multipliers. The trajectory headline is the congestion knee: where
// --- Epidemic's delivery rate collapses while Spray+Wait's holds.

struct TrafficPoint {
  std::string scenario;
  psn::trace::NodeId nodes = 0;
  double rate_multiplier = 1.0;
  double message_rate = 0.0;  ///< realized rate (base x multiplier).
  double wall_seconds = 0.0;  ///< wall for this multiplier's sweep.
  double deliveries_per_sec = 0.0;  ///< pooled over both algorithms.
  struct AlgorithmStats {
    std::string name;
    std::size_t messages_offered = 0;
    double success_rate = 0.0;
    double drop_rate = 0.0;
    double expiry_rate = 0.0;
    std::uint64_t evictions = 0;
    std::uint64_t budget_blocked = 0;
  };
  std::vector<AlgorithmStats> algorithms;
};

std::vector<std::string> traffic_scenario_names() {
  return names_from_env("PSN_BENCH_TRAFFIC_SCENARIOS",
                        "town_128,campus_512,city_2048");
}

std::vector<double> traffic_multipliers() {
  std::string raw = "1,4,16";
  if (const char* env = std::getenv("PSN_BENCH_TRAFFIC_MULTIPLIERS"))
    raw = env;
  std::vector<double> multipliers;
  std::stringstream stream(raw);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const double v = std::atof(token.c_str());
    if (v > 0.0) multipliers.push_back(v);
  }
  if (multipliers.empty()) multipliers = {1.0, 4.0, 16.0};
  return multipliers;
}

std::vector<TrafficPoint> run_traffic_bench() {
  const auto names = traffic_scenario_names();
  std::vector<TrafficPoint> points;
  if (names.empty()) return points;

  const auto multipliers = traffic_multipliers();
  const std::size_t runs = psn::bench::env_size("PSN_BENCH_TRAFFIC_RUNS", 2);
  const auto capacity = static_cast<std::uint64_t>(
      psn::bench::env_size("PSN_BENCH_TRAFFIC_CAPACITY", 8));
  double base_rate = 0.01;
  if (const char* env = std::getenv("PSN_BENCH_TRAFFIC_RATE")) {
    const double v = std::atof(env);
    if (v > 0.0) base_rate = v;
  }
  std::cout << "\ncontended-traffic offered-load sweep: "
            << "{Epidemic, Spray+Wait} x " << runs
            << " runs per point, buffer capacity " << capacity
            << " bytes, drop-oldest\n";
  for (const auto& name : names) {
    psn::engine::Scenario scenario;
    try {
      scenario = psn::engine::make_scenario_by_name(name);
    } catch (const std::invalid_argument& e) {
      std::cerr << "perf_microbench: skipping traffic scenario: " << e.what()
                << '\n';
      continue;
    }
    for (const double multiplier : multipliers) {
      psn::core::OfferedLoadConfig config;
      config.rate_multipliers = {multiplier};
      config.base_message_rate = base_rate;
      config.algorithms = {"Epidemic", "Spray+Wait"};
      config.runs = runs;
      config.delta = scenario.delta;
      config.seed = 7;
      config.traffic.buffer_capacity_bytes = capacity;
      config.traffic.eviction = psn::forward::EvictionPolicy::kDropOldest;

      const auto start = std::chrono::steady_clock::now();
      const auto study =
          psn::core::run_offered_load_study(*scenario.dataset, config);
      const double wall = seconds_since(start);

      TrafficPoint point;
      point.scenario = name;
      point.nodes = scenario.dataset->trace.num_nodes();
      point.rate_multiplier = multiplier;
      point.wall_seconds = wall;
      double delivered = 0.0;
      std::cout << "  " << name << " x" << multiplier << ":";
      for (const auto& p : study.points) {
        point.message_rate = p.message_rate;
        TrafficPoint::AlgorithmStats stats;
        stats.name = p.algorithm;
        stats.messages_offered = p.messages_offered;
        stats.success_rate = p.success_rate;
        stats.drop_rate = p.drop_rate;
        stats.expiry_rate = p.expiry_rate;
        stats.evictions = p.evictions;
        stats.budget_blocked = p.budget_blocked;
        delivered +=
            p.success_rate * static_cast<double>(p.messages_offered);
        std::cout << "  " << p.algorithm << " success=" << p.success_rate
                  << " drop=" << p.drop_rate << " evict=" << p.evictions;
        point.algorithms.push_back(std::move(stats));
      }
      point.deliveries_per_sec = wall > 0.0 ? delivered / wall : 0.0;
      std::cout << "  (" << wall << "s, " << point.deliveries_per_sec
                << " deliveries/s)\n";
      points.push_back(std::move(point));
    }
  }
  return points;
}

// --- Resident-service comparison: the same N forwarding requests served
// --- by one SweepService (batch coalescing + warm scenario cache) vs N
// --- cold one-shot executions (cache cleared before each, so every
// --- iteration pays dataset generation + graph construction again, like
// --- N separate CLI invocations would).

struct ServePoint {
  std::string scenario;
  std::size_t requests = 0;
  double cold_wall_seconds = 0.0;    ///< N one-shots, cache cleared each.
  double served_wall_seconds = 0.0;  ///< same N through the service.
  double throughput_ratio = 0.0;     ///< cold_wall / served_wall.
  std::uint64_t batches = 0;         ///< engine executions in served phase.
  std::uint64_t coalesced_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  /// Every served response's result payload equals the one-shot
  /// reference byte for byte (canonical JSON dump comparison).
  bool batch_bit_identical = false;
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t resident_bytes = 0;
};

std::vector<std::string> serve_scenario_names() {
  return names_from_env("PSN_BENCH_SERVE_SCENARIOS", "city_2048");
}

std::size_t serve_requests() {
  return psn::bench::env_size("PSN_BENCH_SERVE_REQUESTS", 32);
}

std::vector<ServePoint> run_serve_bench() {
  const auto names = serve_scenario_names();
  std::vector<ServePoint> points;
  if (names.empty()) return points;

  const std::size_t n = std::max<std::size_t>(serve_requests(), 2);
  const auto known = psn::engine::scenario_names();
  auto& cache = psn::engine::ScenarioContextCache::instance();
  std::cout << "\nresident-service comparison: " << n
            << " forwarding requests per scenario, served vs cold\n";
  for (const auto& name : names) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "perf_microbench: skipping serve scenario '" << name
                << "': not a registered forwarding scenario\n";
      continue;
    }
    psn::serve::Request request;
    request.id = "bench";
    request.family = psn::serve::Family::kForwarding;
    request.forwarding.scenario = name;
    request.forwarding.algorithms = {"Epidemic"};
    request.forwarding.runs = 2;
    request.forwarding.master_seed = 7;
    request.forwarding.message_rate = 0.01;

    ServePoint point;
    point.scenario = name;
    point.requests = n;

    // Reference payload: one request on an unbatched service. Earlier
    // bench sections leave contexts resident, so clear first — every
    // phase of this comparison starts from the same cold state.
    std::string reference;
    {
      cache.clear();
      psn::serve::ServiceConfig sc;
      sc.batch_window_seconds = 0.0;
      psn::serve::SweepService one_shot(sc);
      reference = one_shot.execute(request).at("result").dump();

      // Cold phase on the same service: clearing the cache before each
      // request drops the retained context AND the registry's weak
      // dataset memo, so every iteration regenerates the trace and
      // rebuilds the graph — the cost profile of N separate processes.
      const auto cold_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        cache.clear();
        const auto response = one_shot.execute(request);
        if (response.at("result").dump() != reference) {
          std::cerr << "perf_microbench: cold one-shot diverged from "
                       "reference on "
                    << name << "\n";
          reference.clear();
        }
      }
      point.cold_wall_seconds = seconds_since(cold_start);
    }

    // Served phase: a batching service, same N requests in two waves.
    // Wave A arrives concurrently and coalesces into one engine call
    // (one cache miss, shared); wave B finds the context resident. The
    // window is generous so wave A reliably lands in one batch even on a
    // loaded machine — more batches would only add cache hits.
    cache.clear();
    psn::serve::ServiceConfig sc;
    sc.batch_window_seconds = 0.05;
    psn::serve::SweepService served(sc);
    std::vector<psn::serve::Json> responses(n);
    const std::size_t wave = std::min<std::size_t>(8, n / 2);
    const auto served_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < wave; ++i)
      served.enqueue(request,
                     [&responses, i](const psn::serve::Json& r) {
                       responses[i] = r;
                     });
    served.drain();
    for (std::size_t i = wave; i < n; ++i)
      served.enqueue(request,
                     [&responses, i](const psn::serve::Json& r) {
                       responses[i] = r;
                     });
    served.drain();
    point.served_wall_seconds = seconds_since(served_start);
    point.throughput_ratio =
        point.served_wall_seconds > 0.0
            ? point.cold_wall_seconds / point.served_wall_seconds
            : 0.0;

    point.batch_bit_identical = !reference.empty();
    for (const auto& response : responses) {
      if (!response.at("ok").is_bool() || !response.at("ok").as_bool() ||
          response.at("result").dump() != reference)
        point.batch_bit_identical = false;
    }

    const auto st = served.stats();
    point.batches = st.batches;
    point.coalesced_requests = st.coalesced_requests;
    point.cache_hits = st.cache_hits;
    point.cache_misses = st.cache_misses;
    point.cache_hit_rate =
        st.cache_hits + st.cache_misses > 0
            ? static_cast<double>(st.cache_hits) /
                  static_cast<double>(st.cache_hits + st.cache_misses)
            : 0.0;
    point.p50_latency_seconds = st.p50_latency_seconds;
    point.p99_latency_seconds = st.p99_latency_seconds;
    const auto cs = cache.stats();
    point.budget_bytes = cs.budget_bytes;
    point.resident_bytes = cs.resident_bytes;

    std::cout << "  " << name << ": cold=" << point.cold_wall_seconds
              << "s  served=" << point.served_wall_seconds << "s  ("
              << point.throughput_ratio << "x, " << point.batches
              << " batches, hit rate " << point.cache_hit_rate
              << ", bit-identical="
              << (point.batch_bit_identical ? "yes" : "NO") << ")\n";
    points.push_back(std::move(point));
  }
  return points;
}

void write_bench_json(const std::string& json_path,
                      const MatrixResult& matrix,
                      const std::vector<ScalePoint>& scaling,
                      const std::vector<TimelinePoint>& timeline,
                      const std::vector<PathPoint>& paths,
                      const std::vector<ModelPoint>& model,
                      const std::vector<TrafficPoint>& traffic,
                      const std::vector<ServePoint>& serve) {
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "perf_microbench: cannot write " << json_path << '\n';
    return;
  }
  const auto& points = matrix.points;
  out << "{\n"
      << "  \"benchmark\": \"sweep_matrix\",\n"
      << "  \"dataset\": \"" << matrix.dataset << "\",\n"
      << "  \"algorithms\": " << matrix.algorithms << ",\n"
      << "  \"runs_per_algorithm\": " << matrix.runs_per_algorithm << ",\n"
      << "  \"total_runs\": " << matrix.total_runs << ",\n"
      // Both views of parallelism: what the host reports and what the
      // sweep pool would default to (>= 1 even when the host reports 0).
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"pool_default_threads\": "
      << psn::engine::ThreadPool::hardware_threads() << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"threads_requested\": " << p.threads_requested
        << ", \"threads_used\": " << p.threads_used
        << ", \"wall_seconds\": " << p.wall_seconds
        << ", \"runs_per_sec\": " << p.runs_per_sec
        << ", \"run_wall_seconds\": " << p.run_wall_seconds << "}"
        << (i + 1 < points.size() ? "," : "") << '\n';
  }
  out << "  ],\n"
      << "  \"node_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const auto& p = scaling[i];
    out << "    {\"scenario\": \"" << p.scenario << "\", \"nodes\": "
        << p.nodes << ", \"contacts\": " << p.contacts
        << ", \"dataset_build_seconds\": " << p.dataset_build_seconds
        << ", \"graph_build_seconds\": " << p.graph_build_seconds
        << ", \"arena_bytes\": " << p.arena_bytes
        << ", \"bytes_per_contact\": " << p.bytes_per_contact
        << ", \"algorithms\": [";
    for (std::size_t a = 0; a < p.algorithms.size(); ++a) {
      const auto& algo = p.algorithms[a];
      out << "{\"name\": \"" << algo.name << "\", \"success_rate\": "
          << algo.success_rate << ", \"fast_run_wall_seconds\": [";
      for (std::size_t r = 0; r < algo.run_walls.size(); ++r)
        out << algo.run_walls[r] << (r + 1 < algo.run_walls.size() ? ", " : "");
      out << "], \"scalar_run_wall_seconds\": [";
      for (std::size_t r = 0; r < algo.scalar_run_walls.size(); ++r)
        out << algo.scalar_run_walls[r]
            << (r + 1 < algo.scalar_run_walls.size() ? ", " : "");
      out << "]}" << (a + 1 < p.algorithms.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < scaling.size() ? "," : "") << '\n';
  }
  out << "  ],\n"
      << "  \"event_timeline\": [\n";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const auto& p = timeline[i];
    out << "    {\"scenario\": \"" << p.scenario << "\", \"nodes\": "
        << p.nodes << ", \"total_steps\": " << p.total_steps
        << ", \"active_steps\": " << p.active_steps
        << ", \"algorithms\": [";
    for (std::size_t a = 0; a < p.algorithms.size(); ++a) {
      const auto& algo = p.algorithms[a];
      out << "{\"name\": \"" << algo.name
          << "\", \"sparse_run_wall_seconds\": [";
      for (std::size_t r = 0; r < algo.sparse_run_walls.size(); ++r)
        out << algo.sparse_run_walls[r]
            << (r + 1 < algo.sparse_run_walls.size() ? ", " : "");
      out << "]}" << (a + 1 < p.algorithms.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < timeline.size() ? "," : "") << '\n';
  }
  out << "  ],\n"
      << "  \"path_explosion\": [\n";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto& p = paths[i];
    out << "    {\"scenario\": \"" << p.scenario << "\", \"nodes\": "
        << p.nodes << ", \"total_steps\": " << p.total_steps
        << ", \"active_steps\": " << p.active_steps
        << ", \"messages\": " << p.messages << ", \"k\": " << p.k
        << ", \"dense_wall_seconds\": " << p.dense_wall_seconds
        << ", \"sparse_wall_seconds\": " << p.sparse_wall_seconds
        << ", \"deliveries\": " << p.deliveries
        << ", \"dense_steps_replayed\": " << p.dense_steps_replayed
        << ", \"sparse_steps_replayed\": " << p.sparse_steps_replayed
        << ", \"sparse_deliveries_per_sec\": " << p.sparse_deliveries_per_sec
        << "}" << (i + 1 < paths.size() ? "," : "") << '\n';
  }
  out << "  ],\n"
      << "  \"model\": [\n";
  for (std::size_t i = 0; i < model.size(); ++i) {
    const auto& p = model[i];
    out << "    {\"scenario\": \"" << p.scenario << "\", \"population\": "
        << p.population << ", \"jump_replicas\": " << p.jump_replicas
        << ", \"jump_samples\": " << p.jump_samples
        << ", \"jump_events\": " << p.jump_events
        << ", \"jump_wall_seconds\": " << p.jump_wall_seconds
        << ", \"jump_events_per_sec\": " << p.jump_events_per_sec
        << ", \"jump_replicas_per_sec\": " << p.jump_replicas_per_sec
        << ", \"mc_messages\": " << p.mc_messages
        << ", \"mc_delivered\": " << p.mc_delivered
        << ", \"mc_exploded\": " << p.mc_exploded
        << ", \"mc_wall_seconds\": " << p.mc_wall_seconds
        << ", \"mc_messages_per_sec\": " << p.mc_messages_per_sec << "}"
        << (i + 1 < model.size() ? "," : "") << '\n';
  }
  out << "  ],\n"
      << "  \"traffic\": [\n";
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const auto& p = traffic[i];
    out << "    {\"scenario\": \"" << p.scenario << "\", \"nodes\": "
        << p.nodes << ", \"rate_multiplier\": " << p.rate_multiplier
        << ", \"message_rate\": " << p.message_rate
        << ", \"wall_seconds\": " << p.wall_seconds
        << ", \"deliveries_per_sec\": " << p.deliveries_per_sec
        << ", \"algorithms\": [";
    for (std::size_t a = 0; a < p.algorithms.size(); ++a) {
      const auto& algo = p.algorithms[a];
      out << "{\"name\": \"" << algo.name << "\", \"messages_offered\": "
          << algo.messages_offered << ", \"success_rate\": "
          << algo.success_rate << ", \"drop_rate\": " << algo.drop_rate
          << ", \"expiry_rate\": " << algo.expiry_rate
          << ", \"evictions\": " << algo.evictions
          << ", \"budget_blocked\": " << algo.budget_blocked << "}"
          << (a + 1 < p.algorithms.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < traffic.size() ? "," : "") << '\n';
  }
  out << "  ],\n"
      << "  \"serve\": [\n";
  for (std::size_t i = 0; i < serve.size(); ++i) {
    const auto& p = serve[i];
    out << "    {\"scenario\": \"" << p.scenario << "\", \"requests\": "
        << p.requests
        << ", \"cold_wall_seconds\": " << p.cold_wall_seconds
        << ", \"served_wall_seconds\": " << p.served_wall_seconds
        << ", \"throughput_ratio\": " << p.throughput_ratio
        << ", \"batches\": " << p.batches
        << ", \"coalesced_requests\": " << p.coalesced_requests
        << ", \"cache_hits\": " << p.cache_hits
        << ", \"cache_misses\": " << p.cache_misses
        << ", \"cache_hit_rate\": " << p.cache_hit_rate
        << ", \"batch_bit_identical\": "
        << (p.batch_bit_identical ? "true" : "false")
        << ", \"p50_latency_seconds\": " << p.p50_latency_seconds
        << ", \"p99_latency_seconds\": " << p.p99_latency_seconds
        << ", \"budget_bytes\": " << p.budget_bytes
        << ", \"resident_bytes\": " << p.resident_bytes << "}"
        << (i + 1 < serve.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const char* path_env = std::getenv("PSN_BENCH_SWEEP_JSON");
  const std::string json_path = path_env ? path_env : "BENCH_sweep.json";
  if (json_path.empty()) return 0;
  const auto matrix = run_sweep_matrix_bench();
  const auto scaling = run_scaling_bench();
  const auto timeline = run_event_timeline_bench();
  const auto paths = run_path_explosion_bench();
  const auto model = run_model_bench();
  const auto traffic = run_traffic_bench();
  const auto serve = run_serve_bench();
  write_bench_json(json_path, matrix, scaling, timeline, paths, model,
                   traffic, serve);
  return 0;
}
