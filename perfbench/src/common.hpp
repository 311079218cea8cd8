// Shared pieces of the benchmark driver: the in-memory span recorder and
// its Chrome-trace export, the latency statistics, the result digest, the
// machine record, and the result a workload hands back to main().
//
// Every layer is timed from outside: spans are opened by the benchmark's
// own code around calls into the psn library's public functions, never
// inside the library.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "psn/serve/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- spans

/// One closed span: a named interval on one thread, attributed to a
/// layer, with the id of the span that caused it (0 = root).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string layer;
  std::uint64_t thread = 0;
  double start_s = 0.0;  ///< seconds since the recorder was created.
  double end_s = 0.0;
  [[nodiscard]] double duration() const { return end_s - start_s; }
};

/// Collects spans in memory; written out once, at exit. Disabled
/// recorders hand out id 0 and record nothing, so untraced runs pay one
/// branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  [[nodiscard]] std::uint64_t begin();
  void end(std::uint64_t id, std::uint64_t parent, std::string name,
           std::string layer, Clock::time_point start);
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span. `parent` 0 means the innermost open span on this thread.
class Span {
 public:
  Span(SpanRecorder& recorder, std::string name, std::string layer,
       std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// Seconds since the span opened (valid whether or not it records).
  [[nodiscard]] double elapsed() const;

 private:
  SpanRecorder& recorder_;
  std::string name_;
  std::string layer_;
  std::uint64_t id_;
  std::uint64_t parent_;
  Clock::time_point start_;
  std::uint64_t saved_current_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may run
/// concurrently on other threads, so overlaps count once).
[[nodiscard]] std::map<std::uint64_t, double> self_times(
    const std::vector<SpanRecord>& spans);

/// Summed self time per layer.
[[nodiscard]] std::map<std::string, double> layer_self_times(
    const std::vector<SpanRecord>& spans);

/// Chrome Trace Event JSON (complete "X" events), viewable in Perfetto.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------- statistics

[[nodiscard]] double median(std::vector<double> values);

/// The tail rule: the highest percentile with at least ten samples beyond
/// it, i.e. the (n-10)-th smallest of n samples (nearest rank). Needs
/// n >= 11; `percentile` is 100 * (n-10) / n, so p99 needs n >= 1000.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_latency(std::vector<double> values);

// -------------------------------------------------------------- digest

/// FNV-1a 64 of `text`, as 16 hex digits.
[[nodiscard]] std::string digest_of(std::string_view text);

// ------------------------------------------------------------- machine

/// nproc, CPU model, compiler, build type and seed, for the result file.
[[nodiscard]] psn::serve::Json machine_record(std::uint64_t seed);
[[nodiscard]] bool release_build();
/// VmHWM of `pid` (0 = this process) in MiB; 0 if unreadable.
[[nodiscard]] double peak_rss_mb(long pid = 0);
/// Returns freed heap to the system and restarts this process's VmHWM at
/// its current RSS (Linux clear_refs).
void reset_peak_rss();
[[nodiscard]] std::size_t worker_count();

// -------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back: correctness counts, the metrics for
/// the final line, and details for the result file.
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool digest_ok = true;  ///< false on any digest mismatch.
  std::string digest;     ///< the result digest of this run.
  std::vector<Metric> metrics;
  psn::serve::Json details;
  std::vector<std::string> notes;  ///< human-readable lines for stdout.
  std::string chrome_trace;        ///< traced runs: the span file.

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;  ///< psn_serve path (serve_mix only).
  std::string out_dir;       ///< where result and trace files go.
};

/// How many times a run repeats its set-up (setup_s is the median): at
/// least 3, and enough for about a second of set-up when one is short,
/// at most 9.
[[nodiscard]] std::size_t setup_repetitions(double first_setup_s);

/// `name` with every character outside [A-Za-z0-9_.-] replaced by '_'
/// ("Spray+Wait" -> "Spray_Wait"), for metric names.
[[nodiscard]] std::string metric_token(const std::string& name);

/// Splitmix64 finaliser: the workload seed -> the engine master seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
