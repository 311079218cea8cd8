// Tests of the benchmark's own math: the tail-percentile rule, self time
// from nested spans, and the stability of the result digest (two in-process
// sweeps, and the traced layer replay against run_sweep).
//
//   python3 perfbench/run.py --self-test

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_tail_rule() {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // unsorted input
  const perfbench::Tail p99 = perfbench::tail_latency(values);
  check(near(p99.value, 990.0), "1000 samples: tail is the 990th value");
  check(near(p99.percentile, 99.0), "1000 samples: tail is p99");
  std::size_t beyond = 0;
  for (const double v : values) beyond += v > p99.value ? 1 : 0;
  check(beyond == 10, "exactly ten samples lie beyond the tail");

  const perfbench::Tail small =
      perfbench::tail_latency({5, 1, 4, 2, 3, 11, 7, 6, 10, 9, 8, 12});
  check(near(small.value, 2.0), "12 samples: tail is the 2nd value");
  check(near(small.percentile, 100.0 * 2 / 12), "12 samples: percentile");

  bool threw = false;
  try {
    (void)perfbench::tail_latency(std::vector<double>(10, 1.0));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "10 samples: no percentile has ten samples beyond it");
}

perfbench::SpanRecord span(std::uint64_t id, std::uint64_t parent,
                           const char* layer, double start, double end) {
  perfbench::SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = layer;
  s.layer = layer;
  s.start_s = start;
  s.end_s = end;
  return s;
}

void test_self_time() {
  // Parent [0,10]; children [1,3] and [2,5] overlap (concurrent workers),
  // [8,12] overruns the parent and is clipped; [6,7] is a grandchild and
  // does not count against the parent.
  const std::vector<perfbench::SpanRecord> spans = {
      span(1, 0, "engine", 0, 10), span(2, 1, "forward", 1, 3),
      span(3, 1, "forward", 2, 5), span(4, 1, "graph", 8, 12),
      span(5, 4, "synth", 8.5, 9), span(6, 2, "synth", 6, 7)};
  const auto self = perfbench::self_times(spans);
  check(near(self.at(1), 10.0 - 4.0 - 2.0), "parent self time");
  check(near(self.at(2), 2.0), "child outside its own child keeps its span");
  check(near(self.at(4), 4.0 - 0.5), "child self time minus grandchild");
  const auto layers = perfbench::layer_self_times(spans);
  check(near(layers.at("forward"), 2.0 + 3.0), "layer sum of self times");
  check(near(layers.at("synth"), 0.5 + 1.0), "leaf layer sum");

  // Spans recorded through the RAII type nest by thread.
  perfbench::SpanRecorder recorder(true);
  {
    perfbench::Span outer(recorder, "outer", "bench");
    perfbench::Span inner(recorder, "inner", "forward");
  }
  const auto recorded = recorder.spans();
  check(recorded.size() == 2, "two spans recorded");
  if (recorded.size() == 2)
    check(recorded[0].parent == recorded[1].id, "inner span's parent");
  check(psn::serve::Json::parse(perfbench::chrome_trace_json(recorded))
                .at("traceEvents")
                .as_array()
                .size() == 2,
        "chrome trace holds every span");
}

void test_digest_stability() {
  const psn::engine::Scenario scenario =
      psn::engine::make_scenario_by_name("conference_small");
  psn::engine::PlanConfig config;
  config.runs = 2;
  config.master_seed = perfbench::mix_seed(1, 0);
  config.message_rate = 0.01;
  const psn::engine::SweepPlan plan = psn::engine::make_plan(
      {scenario}, {"Epidemic", "FRESH", "Dynamic Programming", "Spray+Wait"},
      config);
  psn::engine::ThreadPool pool(2);
  psn::engine::SweepOptions options;
  options.pool = &pool;
  const auto digest = [](const std::vector<psn::engine::CellSummary>& cells) {
    return perfbench::digest_of(perfbench::cells_json(cells).dump());
  };
  const std::string first = digest(psn::engine::run_sweep(plan, options).cells);
  const std::string second =
      digest(psn::engine::run_sweep(plan, options).cells);
  check(first == second, "two in-process sweeps give one digest");

  const auto context =
      psn::engine::ScenarioContextCache::instance().acquire(scenario);
  perfbench::SpanRecorder recorder(true);
  std::vector<perfbench::ReplayRun> runs;
  const std::string replayed = digest(
      perfbench::replay_sweep(plan, *context, pool, recorder, 0, &runs));
  check(replayed == first, "traced layer replay reproduces run_sweep");
  check(runs.size() == plan.total_runs(), "one replay record per run");
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time();
  test_digest_stability();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
