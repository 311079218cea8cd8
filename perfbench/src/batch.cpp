// The three batch workloads: in-process engine::run_sweep calls on one
// registered scenario, after a cold set-up that is timed on its own.

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "psn/core/workload.hpp"
#include "psn/engine/error_slot.hpp"
#include "psn/engine/run_spec.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/metrics.hpp"
#include "psn/forward/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using psn::serve::Json;
namespace engine = psn::engine;
namespace forward = psn::forward;

namespace {

struct BatchSpec {
  std::string scenario;
  std::vector<std::string> algorithms;
  std::size_t runs = 0;  ///< per algorithm and sweep.
  double message_rate = 0.01;  ///< psn_serve's default rate.
  forward::TrafficConfig traffic;
};

BatchSpec batch_spec(const std::string& workload) {
  BatchSpec spec;
  if (workload == "fwd_suite_campus") {
    spec.scenario = "campus_512";
    spec.algorithms = forward::paper_algorithm_names();
    const auto extended = forward::extended_algorithm_names();
    for (const std::string& name : extended)
      if (std::find(spec.algorithms.begin(), spec.algorithms.end(), name) ==
          spec.algorithms.end())
        spec.algorithms.push_back(name);
    spec.runs = 8;
  } else if (workload == "fwd_contended_town") {
    // 32x the default rate into 8-message buffers: Epidemic becomes an
    // eviction-bound generic-relay run. town_128, not city_2048: one 16x
    // city_2048 Epidemic run takes ~35 s, and below 16x the city's cost
    // swings by 5x between seeds at the contention knee. town_128 itself
    // sits on that knee at 16x (one Epidemic run's cost: SD 23% of its
    // mean over runs); at 32x it is saturated (SD 9%).
    spec.scenario = "town_128";
    spec.algorithms = {"Epidemic", "Spray+Wait"};
    spec.message_rate = 0.32;
    spec.runs = 12;
    spec.traffic.buffer_capacity_bytes = 8;
    spec.traffic.eviction = forward::EvictionPolicy::kDropOldest;
  } else {
    throw std::invalid_argument("unknown batch workload " + workload);
  }
  return spec;
}

/// Oracles whose prepare() does per-run work (the traced run times one
/// prepare per scenario on a fresh instance).
const std::vector<std::string>& oracle_algorithms() {
  static const std::vector<std::string> names = {"Greedy Total",
                                                 "Dynamic Programming"};
  return names;
}

/// Scenario, context and observation snapshots, cold-built.
struct Prepared {
  engine::Scenario scenario;
  std::shared_ptr<const engine::ScenarioContext> context;
  double dataset_s = 0.0;
  double graph_s = 0.0;
  double total_s = 0.0;
  std::map<std::string, double> snapshot_s;  ///< per algorithm name.
};

/// The batch set-up: make_scenario_by_name, ScenarioContextCache::acquire
/// and the observation-snapshot builds, one per distinct snapshot key, in
/// parallel on the pool as run_sweep's snapshot wave does. The caller
/// must have released every holder of the scenario and cleared the cache,
/// so the dataset and graph really are rebuilt.
Prepared set_up(const BatchSpec& spec, engine::ThreadPool& pool,
                SpanRecorder& recorder) {
  auto& cache = engine::ScenarioContextCache::instance();
  const std::uint64_t datasets_before = engine::scenario_datasets_built();
  const std::uint64_t graphs_before = cache.graphs_built();
  const psn::util::ParallelFor executor = engine::parallel_for(pool);
  Prepared out;
  Span setup(recorder, "setup", "bench");
  {
    Span span(recorder, "make_scenario_by_name", "synth");
    out.scenario = engine::make_scenario_by_name(spec.scenario, executor);
    out.dataset_s = span.elapsed();
  }
  {
    Span span(recorder, "ScenarioContextCache::acquire", "graph");
    out.context = cache.acquire(out.scenario, &executor);
    out.graph_s = span.elapsed();
  }
  if (engine::scenario_datasets_built() == datasets_before ||
      cache.graphs_built() == graphs_before)
    throw std::logic_error("set-up reused a warm dataset or graph");

  std::vector<std::pair<std::string, std::string>> jobs;  // key, algorithm
  for (const std::string& name : spec.algorithms) {
    const std::string key = forward::make_algorithm(name)->shared_snapshot_key();
    if (key.empty()) continue;
    if (std::none_of(jobs.begin(), jobs.end(),
                     [&key](const auto& job) { return job.first == key; }))
      jobs.emplace_back(key, name);
  }
  std::vector<double> walls(jobs.size(), 0.0);
  engine::ErrorSlot errors;
  const engine::ScenarioContext& context = *out.context;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    pool.submit([&, j] {
      try {
        Span span(recorder, "build_shared_snapshot:" + jobs[j].second,
                  "forward", setup.id());
        const auto proto = forward::make_algorithm(jobs[j].second);
        const auto [snapshot, built] =
            context.observations->get_or_build(jobs[j].first, [&] {
              return proto->build_shared_snapshot(*context.graph,
                                                  context.dataset->trace);
            });
        if (built) cache.reaccount(context);
        walls[j] = span.elapsed();
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_set();
  for (std::size_t j = 0; j < jobs.size(); ++j)
    out.snapshot_s[jobs[j].second] = walls[j];
  out.total_s = setup.elapsed();
  return out;
}

Json performance_json(const forward::Performance& p) {
  Json out;
  out["success_rate"] = p.success_rate;
  out["average_delay"] = p.average_delay;
  out["average_hops"] = p.average_hops;
  out["messages"] = p.messages;
  out["delivered"] = p.delivered;
  return out;
}

std::string digest_cells(const std::vector<engine::CellSummary>& cells,
                         SpanRecorder& recorder) {
  std::string text;
  {
    Span span(recorder, "Json::dump", "serve");
    text = cells_json(cells).dump();
  }
  {
    // Round-trip through the protocol parser: the serve layer's JSON cost
    // on a result of this workload's size.
    Span span(recorder, "Json::parse", "serve");
    if (Json::parse(text).dump() != text)
      throw std::logic_error("result JSON does not round-trip");
  }
  return digest_of(text);
}

engine::SweepPlan make_batch_plan(const BatchSpec& spec,
                                  const engine::Scenario& scenario,
                                  std::uint64_t seed) {
  engine::PlanConfig config;
  config.runs = spec.runs;
  config.master_seed = mix_seed(seed, 0);
  config.message_rate = spec.message_rate;
  config.traffic = spec.traffic;
  return engine::make_plan({scenario}, spec.algorithms, config);
}

/// Everything a timed run_sweep call yields for the metrics.
struct SweepSample {
  double wall = 0.0;
  std::size_t runs = 0;
  std::vector<double> run_walls;
  double busy_share = 0.0;
  std::string digest;
};

SweepSample timed_sweep(const engine::SweepPlan& plan,
                        engine::ThreadPool& pool, SpanRecorder& recorder) {
  engine::SweepOptions options;
  options.pool = &pool;
  SweepSample sample;
  const Clock::time_point start = Clock::now();
  const engine::SweepResult result = engine::run_sweep(plan, options);
  sample.wall = seconds_between(start, Clock::now());
  sample.runs = result.total_runs;
  double busy = 0.0;
  for (const engine::CellSummary& cell : result.cells)
    for (const double w : cell.run_walls) {
      sample.run_walls.push_back(w);
      busy += w;
    }
  sample.busy_share =
      busy / (static_cast<double>(result.threads) * result.wall_seconds);
  sample.digest = digest_cells(result.cells, recorder);
  return sample;
}

/// Drops every cached context and builds it all again: one cold set-up.
/// The caller must hold no earlier set-up. With `reset_peak`, freed memory
/// is returned to the system and the peak-RSS mark restarts first, so
/// peak_rss_mb covers this set-up and what follows, not earlier ones.
Prepared cold_set_up(const BatchSpec& spec, engine::ThreadPool& pool,
                     SpanRecorder& recorder, bool reset_peak) {
  engine::ScenarioContextCache::instance().clear();
  if (reset_peak) reset_peak_rss();
  return set_up(spec, pool, recorder);
}

}  // namespace

Json cells_json(const std::vector<engine::CellSummary>& cells) {
  Json::Array out;
  for (const engine::CellSummary& cell : cells) {
    Json c;
    c["scenario"] = cell.scenario;
    c["algorithm"] = cell.algorithm;
    c["overall"] = performance_json(cell.overall);
    Json::Array pair_types;
    for (const forward::Performance& p : cell.by_pair_type.per_type)
      pair_types.push_back(performance_json(p));
    c["by_pair_type"] = Json(std::move(pair_types));
    c["delays"] = Json(Json::Array(cell.delays.begin(), cell.delays.end()));
    c["cost_per_message"] = cell.cost_per_message;
    c["truncated_relay_steps"] = cell.truncated_relay_steps;
    c["expirations"] = cell.expirations;
    c["evictions"] = cell.evictions;
    c["drops"] = cell.drops;
    c["budget_blocked"] = cell.budget_blocked;
    c["buffer_rejections"] = cell.buffer_rejections;
    c["messages_offered"] = cell.messages_offered;
    out.push_back(std::move(c));
  }
  return Json(std::move(out));
}

std::vector<engine::CellSummary> replay_sweep(
    const engine::SweepPlan& plan, const engine::ScenarioContext& context,
    engine::ThreadPool& pool, SpanRecorder& recorder, std::uint64_t parent,
    std::vector<ReplayRun>* runs_out) {
  if (plan.scenarios.size() != 1)
    throw std::invalid_argument("replay_sweep: single-scenario plans only");
  const engine::PlanConfig& config = plan.config;
  const psn::core::Dataset& dataset = *context.dataset;
  engine::ErrorSlot errors;

  std::vector<std::vector<forward::Message>> workloads(config.runs);
  for (std::size_t r = 0; r < config.runs; ++r) {
    pool.submit([&, r] {
      try {
        Span span(recorder, "generate_workload", "core", parent);
        psn::core::WorkloadConfig wc;
        wc.mode = psn::core::WorkloadMode::kPoissonRate;
        wc.message_rate = config.message_rate;
        wc.horizon = dataset.message_horizon;
        wc.seed = engine::workload_stream_seed(config.master_seed, 0, r,
                                               config.seed_mode);
        wc.size_bytes = config.message_size_bytes;
        wc.ttl = config.message_ttl;
        workloads[r] =
            psn::core::generate_workload(dataset.trace.num_nodes(), wc);
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_set();

  std::vector<forward::Run> runs(plan.runs.size());
  std::vector<ReplayRun> replay(plan.runs.size());
  for (std::size_t slot = 0; slot < plan.runs.size(); ++slot) {
    pool.submit([&, slot] {
      try {
        const engine::RunSpec& spec = plan.runs[slot];
        const std::string& name = plan.algorithms[spec.algorithm];
        Span span(recorder, "simulate:" + name, "forward", parent);
        const auto algorithm = forward::make_algorithm(name);
        const std::string key = algorithm->shared_snapshot_key();
        if (!key.empty()) {
          const auto [snapshot, built] =
              context.observations->get_or_build(key, [&] {
                return algorithm->build_shared_snapshot(*context.graph,
                                                        dataset.trace);
              });
          if (built)
            engine::ScenarioContextCache::instance().reaccount(context);
          algorithm->adopt_shared_snapshot(snapshot);
        }
        runs[slot].messages = workloads[spec.run];
        forward::SimulationRequest request;
        request.algorithm = algorithm.get();
        request.graph = context.graph.get();
        request.trace = &dataset.trace;
        request.messages = &runs[slot].messages;
        request.traffic = config.traffic;
        request.seed = engine::sim_stream_seed(config.master_seed, 0,
                                               spec.run, config.seed_mode);
        thread_local forward::SimulatorWorkspace workspace;
        runs[slot].result = forward::simulate(request, workspace);
        replay[slot] = {span.elapsed(), name};
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_set();

  // The engine's aggregation, in plan order.
  Span span(recorder, "aggregate", "engine", parent);
  std::vector<engine::CellSummary> cells;
  for (std::size_t a = 0; a < plan.algorithms.size(); ++a) {
    engine::CellSummary cell;
    cell.scenario = plan.scenarios[0].name;
    cell.algorithm = plan.algorithms[a];
    std::vector<forward::Run> cell_runs;
    std::uint64_t transmissions = 0;
    std::size_t messages = 0;
    for (std::size_t r = 0; r < config.runs; ++r) {
      forward::Run& run = runs[plan.slot(0, a, r)];
      cell.truncated_relay_steps += run.result.truncated_relay_steps;
      cell.expirations += run.result.expirations;
      cell.evictions += run.result.evictions;
      cell.drops += run.result.drops;
      cell.budget_blocked += run.result.budget_blocked;
      cell.buffer_rejections += run.result.buffer_rejections;
      transmissions += run.result.transmissions;
      messages += run.messages.size();
      cell_runs.push_back(std::move(run));
    }
    cell.overall = forward::aggregate_performance(cell.algorithm, cell_runs);
    cell.by_pair_type = forward::split_by_pair_type(cell.algorithm, cell_runs,
                                                    dataset.rates);
    cell.delays = forward::pooled_delays(cell_runs);
    cell.messages_offered = messages;
    if (messages > 0)
      cell.cost_per_message = static_cast<double>(transmissions) /
                              static_cast<double>(messages);
    cells.push_back(std::move(cell));
  }
  if (runs_out != nullptr) *runs_out = std::move(replay);
  return cells;
}

namespace {

/// Minimum timed sweeps per run, whatever --seconds says.
constexpr std::size_t kMinSweeps = 3;

void add_layer_setup_metrics(RunOutcome& out, const Prepared& prepared) {
  const engine::ScenarioContext& context = *prepared.context;
  const double contacts =
      static_cast<double>(context.dataset->trace.size());
  const double arena = static_cast<double>(context.graph->arena_bytes());
  out.add("synth.dataset_s", prepared.dataset_s, "s");
  out.add("synth.contacts", contacts, "count");
  out.add("graph.build_s", prepared.graph_s, "s");
  out.add("graph.arena_bytes", arena, "bytes");
  out.add("graph.bytes_per_contact", arena / contacts, "bytes");
  for (const auto& [name, wall] : prepared.snapshot_s)
    out.add("forward.snapshot_s." + metric_token(name), wall, "s");
  out.add("forward.snapshot_bytes",
          static_cast<double>(context.observations->bytes()), "bytes");
}

RunOutcome run_batch_untraced(const RunConfig& config, const BatchSpec& spec,
                              engine::ThreadPool& pool,
                              SpanRecorder& recorder) {
  RunOutcome out;
  std::vector<double> setups;
  Prepared prepared;
  std::size_t repetitions = 3;
  for (std::size_t i = 0; i < repetitions; ++i) {
    prepared = Prepared{};
    prepared = cold_set_up(spec, pool, recorder, i + 1 == repetitions);
    setups.push_back(prepared.total_s);
    if (i == 0) repetitions = setup_repetitions(setups.front());
  }
  const engine::SweepPlan plan =
      make_batch_plan(spec, prepared.scenario, config.seed);

  // Warm-up sweep: fills the workers' workspaces; its digest is the
  // reference every timed sweep must reproduce.
  const SweepSample reference = timed_sweep(plan, pool, recorder);
  out.digest = reference.digest;

  std::vector<double> rates;
  std::vector<double> sweep_walls;
  std::vector<double> run_walls;
  // Sweeps until the next one would likely end past --seconds, so a run
  // measures about --seconds whatever a sweep's length.
  const Clock::time_point start = Clock::now();
  double typical_sweep = reference.wall;
  for (std::size_t sweep = 0;
       sweep < kMinSweeps ||
       seconds_between(start, Clock::now()) + typical_sweep <= config.seconds;
       ++sweep) {
    out.attempted += plan.total_runs();
    SweepSample sample;
    try {
      sample = timed_sweep(plan, pool, recorder);
    } catch (const std::exception& e) {
      out.failed += plan.total_runs();
      out.notes.push_back(std::string("sweep failed: ") + e.what());
      continue;
    }
    if (sample.digest != reference.digest) {
      out.failed += plan.total_runs();
      out.digest_ok = false;
      out.notes.push_back("digest mismatch: " + sample.digest + " != " +
                          reference.digest);
      continue;
    }
    rates.push_back(static_cast<double>(sample.runs) / sample.wall);
    sweep_walls.push_back(sample.wall);
    typical_sweep = median(sweep_walls);
    run_walls.insert(run_walls.end(), sample.run_walls.begin(),
                     sample.run_walls.end());
  }

  if (rates.empty()) throw std::runtime_error("no sweep succeeded");

  // A batch request is one run_sweep call: its median wall is the
  // latency. Too few sweeps fit in a run for a tail, so the tail is taken
  // over the runs inside them — the slowest runs gate every sweep.
  const Tail tail = tail_latency(run_walls);
  double sweep_seconds = 0.0;
  for (const double w : sweep_walls) sweep_seconds += w;
  out.add("setup_s", median(setups), "s");
  out.add("runs_per_s", median(rates), "runs/s");
  out.add("throughput_rps",
          static_cast<double>(sweep_walls.size()) / sweep_seconds, "req/s");
  out.add("latency_p50_s", median(sweep_walls), "s");
  out.add("latency_tail_s", tail.value, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.notes.push_back("input: " + spec.scenario + ", " +
                      std::to_string(spec.algorithms.size()) +
                      " algorithms x " + std::to_string(spec.runs) +
                      " runs = " + std::to_string(plan.total_runs()) +
                      " runs per sweep, " + std::to_string(rates.size()) +
                      " timed sweeps");
  out.notes.push_back("latency_tail_s is p" + std::to_string(tail.percentile) +
                      " of " + std::to_string(tail.samples) + " run walls");
  out.details["setup_s_samples"] = Json(Json::Array(setups.begin(), setups.end()));
  out.details["tail_percentile"] = tail.percentile;
  out.details["tail_samples"] = tail.samples;
  out.details["sweep_walls"] =
      Json(Json::Array(sweep_walls.begin(), sweep_walls.end()));
  return out;
}

RunOutcome run_batch_traced(const RunConfig& config, const BatchSpec& spec,
                            engine::ThreadPool& pool,
                            SpanRecorder& recorder) {
  RunOutcome out;
  auto& cache = engine::ScenarioContextCache::instance();
  const engine::ScenarioCacheStats cache_before = cache.stats();
  const Prepared prepared = cold_set_up(spec, pool, recorder, false);
  add_layer_setup_metrics(out, prepared);

  const engine::ScenarioContext& context = *prepared.context;
  for (const std::string& name : oracle_algorithms()) {
    if (std::find(spec.algorithms.begin(), spec.algorithms.end(), name) ==
        spec.algorithms.end())
      continue;
    const auto algorithm = forward::make_algorithm(name);
    Span span(recorder, "prepare:" + name, "forward");
    algorithm->prepare(*context.graph, context.dataset->trace);
    out.add("forward.prepare_s." + metric_token(name), span.elapsed(), "s");
  }

  const engine::SweepPlan plan =
      make_batch_plan(spec, prepared.scenario, config.seed);
  SpanRecorder untraced(false);
  const SweepSample reference = timed_sweep(plan, pool, untraced);
  out.digest = reference.digest;

  // Alternate untraced sweeps and traced replays of the same plan: the
  // ratio of their median walls is the tracing overhead.
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> busy_shares;
  std::vector<ReplayRun> last_runs;
  std::vector<engine::CellSummary> last_cells;
  const Clock::time_point start = Clock::now();
  while (traced_walls.size() < 2 ||
         seconds_between(start, Clock::now()) < config.seconds) {
    out.attempted += 2 * plan.total_runs();
    const SweepSample sample = timed_sweep(plan, pool, untraced);
    untraced_walls.push_back(sample.wall);
    busy_shares.push_back(sample.busy_share);
    std::vector<ReplayRun> runs;
    std::vector<engine::CellSummary> cells;
    {
      Span iteration(recorder, "replay_sweep", "bench");
      cells = replay_sweep(plan, context, pool, recorder, iteration.id(),
                           &runs);
      traced_walls.push_back(iteration.elapsed());
    }
    const std::string traced_digest = digest_cells(cells, recorder);
    if (sample.digest != reference.digest) {
      out.failed += plan.total_runs();
      out.digest_ok = false;
    }
    if (traced_digest != reference.digest) {
      out.failed += plan.total_runs();
      out.digest_ok = false;
      out.notes.push_back("traced digest " + traced_digest +
                          " != untraced " + reference.digest);
    }
    last_runs = std::move(runs);
    last_cells = std::move(cells);
  }

  std::map<std::string, std::vector<double>> per_algorithm;
  for (const ReplayRun& run : last_runs)
    per_algorithm[run.algorithm].push_back(run.simulate_s);
  for (const auto& [name, walls] : per_algorithm)
    out.add("forward.simulate_s." + metric_token(name) + ".p50",
            median(walls), "s");

  double transmissions = 0.0, delivered = 0.0, messages = 0.0;
  double truncated = 0.0, evictions = 0.0, drops = 0.0, blocked = 0.0;
  for (const engine::CellSummary& cell : last_cells) {
    transmissions += cell.cost_per_message *
                     static_cast<double>(cell.messages_offered);
    delivered += static_cast<double>(cell.overall.delivered);
    messages += static_cast<double>(cell.overall.messages);
    truncated += static_cast<double>(cell.truncated_relay_steps);
    evictions += static_cast<double>(cell.evictions);
    drops += static_cast<double>(cell.drops);
    blocked += static_cast<double>(cell.budget_blocked);
  }
  out.add("forward.transmissions", transmissions, "count");
  out.add("forward.tx_per_delivery",
          delivered > 0 ? transmissions / delivered : 0.0, "ratio");
  out.add("forward.success_rate", messages > 0 ? delivered / messages : 0.0,
          "ratio");
  out.add("forward.truncated_relay_steps", truncated, "count");
  out.add("forward.evictions", evictions, "count");
  out.add("forward.drops", drops, "count");
  out.add("forward.budget_blocked", blocked, "count");

  const engine::ScenarioCacheStats cache_after = cache.stats();
  out.add("engine.busy_share", median(busy_shares), "ratio");
  out.add("engine.cache_hits",
          static_cast<double>(cache_after.hits - cache_before.hits), "count");
  out.add("engine.cache_misses",
          static_cast<double>(cache_after.misses - cache_before.misses),
          "count");
  out.add("engine.cache_evictions",
          static_cast<double>(cache_after.evictions - cache_before.evictions),
          "count");
  out.add("engine.resident_bytes",
          static_cast<double>(cache_after.resident_bytes), "bytes");

  const double overhead = median(traced_walls) / median(untraced_walls) - 1.0;
  out.add("bench.trace_overhead", overhead, "ratio");
  out.notes.push_back("tracing overhead: traced replay median " +
                      std::to_string(median(traced_walls)) +
                      " s vs untraced run_sweep median " +
                      std::to_string(median(untraced_walls)) + " s (" +
                      std::to_string(100.0 * overhead) + "%)");
  return out;
}

}  // namespace

RunOutcome run_batch(const RunConfig& config) {
  const BatchSpec spec = batch_spec(config.workload);
  engine::ThreadPool pool(worker_count());
  SpanRecorder recorder(config.trace);
  RunOutcome out = config.trace
                       ? run_batch_traced(config, spec, pool, recorder)
                       : run_batch_untraced(config, spec, pool, recorder);
  if (config.trace) {
    const std::vector<SpanRecord> spans = recorder.spans();
    out.details["layer_self_s"] = Json();
    for (const auto& [layer, self] : layer_self_times(spans))
      out.details["layer_self_s"][layer] = self;
    out.chrome_trace = chrome_trace_json(spans);
    std::vector<double> dumps;
    std::vector<double> parses;
    for (const SpanRecord& span : spans) {
      if (span.name == "Json::dump") dumps.push_back(span.duration());
      if (span.name == "Json::parse") parses.push_back(span.duration());
    }
    out.add("serve.json_dump_s", median(dumps), "s");
    out.add("serve.json_parse_s", median(parses), "s");
  }
  return out;
}

}  // namespace perfbench
