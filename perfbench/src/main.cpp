// psn_perfbench — runs one benchmark workload and prints its metrics.
//
//   psn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--benchmark BENCHMARK.json] [--out-dir DIR]
//                 [--expect-digest HEX] [--serve-binary PATH]
//
// BENCHMARK.json (default: in the working directory) is the catalogue: its
// workload names, and the metric names and units of the final line.
// Untraced runs (--trace 0) print its end-to-end metrics; traced runs
// (--trace 1) replay the same inputs through each layer's public calls and
// print its per-layer metrics. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}. A result file (machine
// record, every metric, digest, notes) and, for traced runs, a Chrome
// trace viewable in Perfetto are written to --out-dir. Exit status is 1
// when the result is not correct (a failed operation or a digest that does
// not match), 2 on bad usage, 3 on a build that is not Release.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include <malloc.h>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunConfig;
using perfbench::RunOutcome;
using psn::serve::Json;

int usage() {
  std::cerr << "usage: psn_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--benchmark BENCHMARK.json] [--out-dir DIR] "
               "[--expect-digest HEX] [--serve-binary PATH]\n";
  return 2;
}

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return Json::parse(text);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  // Blocks of 1 MiB and up always come from mmap and go back on free.
  // glibc otherwise raises this threshold as large blocks are freed, and
  // peak RSS then depends on which worker's arena held which transient
  // build buffer (campus_512 set-up peaks spread from 119 to 198 MiB).
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
  RunConfig config;
  config.out_dir = ".";
  config.serve_binary = PSN_SERVE_BINARY;
  std::string expect_digest;
  std::string benchmark_path = "BENCHMARK.json";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (arg == "--benchmark") {
        benchmark_path = value;
      } else if (arg == "--out-dir") {
        config.out_dir = value;
      } else if (arg == "--expect-digest") {
        expect_digest = value;
      } else if (arg == "--serve-binary") {
        config.serve_binary = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload) return usage();
  Json benchmark;
  try {
    benchmark = read_json(benchmark_path);
  } catch (const std::exception& e) {
    std::cerr << "psn_perfbench: " << e.what() << '\n';
    return 2;
  }
  bool known = false;
  for (const Json& workload : benchmark.at("workloads").as_array())
    known = known || workload.at("name").as_string() == config.workload;
  if (!known) {
    std::cerr << "psn_perfbench: " << benchmark_path << " lists no workload "
              << config.workload << '\n';
    return usage();
  }
  if (!perfbench::release_build()) {
    std::cerr << "psn_perfbench: refusing to measure a '"
              << PSN_PERFBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  RunOutcome outcome;
  try {
    outcome = config.workload == "serve_mix" ? perfbench::run_serve_mix(config)
                                             : perfbench::run_batch(config);
  } catch (const std::exception& e) {
    std::cerr << "psn_perfbench: " << config.workload << ": " << e.what()
              << '\n';
    return 1;
  }
  if (!expect_digest.empty() && outcome.digest != expect_digest) {
    outcome.digest_ok = false;
    outcome.notes.push_back("digest " + outcome.digest +
                            " != recorded digest " + expect_digest);
  }
  const bool correct = outcome.digest_ok && outcome.failed == 0;

  // The final line carries exactly the catalogue for this mode. Per-layer
  // metrics of layers this workload does not run are reported as 0 and
  // named in a note; a missing end-to-end metric is a bug.
  std::map<std::string, perfbench::Metric> measured;
  for (const perfbench::Metric& m : outcome.metrics) measured[m.name] = m;
  Json metrics;
  std::string absent;
  for (const Json& spec :
       benchmark.at(config.trace ? "per_layer" : "end_to_end").as_array()) {
    const std::string& name = spec.at("name").as_string();
    const std::string& unit = spec.at("unit").as_string();
    double value = 0.0;
    const auto it = measured.find(name);
    if (it != measured.end()) {
      if (it->second.unit != unit) {
        std::cerr << "psn_perfbench: unit mismatch for " << name << '\n';
        return 1;
      }
      value = it->second.value;
    } else if (!config.trace) {
      std::cerr << "psn_perfbench: missing metric " << name << '\n';
      return 1;
    } else {
      absent += ' ' + name;
    }
    Json entry;
    entry["value"] = value;
    entry["unit"] = unit;
    metrics[name] = entry;
  }
  if (!absent.empty())
    outcome.notes.push_back("not run by this workload (reported as 0):" +
                            absent);

  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  Json record;
  record["workload"] = config.workload;
  record["machine"] = perfbench::machine_record(config.seed);
  record["seconds"] = config.seconds;
  record["trace"] = config.trace;
  record["digest"] = outcome.digest;
  record["correct"] = correct;
  record["attempted"] = outcome.attempted;
  record["failed"] = outcome.failed;
  record["error_rate"] =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted)
          : 0.0;
  Json all;
  for (const perfbench::Metric& m : outcome.metrics) {
    Json entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    all[m.name] = entry;
  }
  record["metrics"] = all;
  record["details"] = outcome.details;
  record["notes"] = Json(Json::Array(outcome.notes.begin(), outcome.notes.end()));
  try {
    write_file(stem + ".json", record.dump());
    if (config.trace) write_file(stem + ".trace.json", outcome.chrome_trace);
  } catch (const std::exception& e) {
    std::cerr << "psn_perfbench: " << e.what() << '\n';
    return 1;
  }

  for (const std::string& note : outcome.notes)
    std::cout << "# " << note << '\n';
  std::cout << "# machine " << record.at("machine").dump() << '\n';
  std::cout << "# digest " << outcome.digest << ", error_rate "
            << record.at("error_rate").dump() << " ("
            << outcome.failed << '/' << outcome.attempted << ")\n";
  std::cout << "# result file " << stem << ".json"
            << (config.trace ? ", trace " + stem + ".trace.json" : "")
            << '\n';
  for (const auto& [name, entry] : metrics.as_object())
    std::cout << name << ' ' << entry.at("value").dump() << ' '
              << entry.at("unit").as_string() << '\n';
  Json line;
  line["correct"] = correct;
  line["attempted"] = outcome.attempted;
  line["failed"] = outcome.failed;
  line["metrics"] = metrics;
  std::cout << line.dump() << std::endl;
  return correct ? 0 : 1;
}
