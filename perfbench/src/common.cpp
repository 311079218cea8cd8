#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <malloc.h>
#include <unistd.h>

namespace perfbench {

using psn::serve::Json;

namespace {

/// The innermost open span of this thread (0 = none).
thread_local std::uint64_t current_span = 0;

std::uint64_t thread_number() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000003;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t SpanRecorder::begin() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::end(std::uint64_t id, std::uint64_t parent,
                       std::string name, std::string layer,
                       Clock::time_point start) {
  if (!enabled_) return;
  const Clock::time_point stop = Clock::now();
  SpanRecord record;
  record.id = id;
  record.parent = parent;
  record.name = std::move(name);
  record.layer = std::move(layer);
  record.thread = thread_number();
  record.start_s = seconds_between(origin_, start);
  record.end_s = seconds_between(origin_, stop);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Span::Span(SpanRecorder& recorder, std::string name, std::string layer,
           std::uint64_t parent)
    : recorder_(recorder),
      name_(std::move(name)),
      layer_(std::move(layer)),
      id_(recorder.begin()),
      parent_(parent != 0 ? parent : current_span),
      start_(Clock::now()),
      saved_current_(current_span) {
  if (id_ != 0) current_span = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  current_span = saved_current_;
  recorder_.end(id_, parent_, std::move(name_), std::move(layer_), start_);
}

double Span::elapsed() const { return seconds_between(start_, Clock::now()); }

std::map<std::uint64_t, double> self_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& span : spans)
    if (span.parent != 0)
      children[span.parent].emplace_back(span.start_s, span.end_s);
  std::map<std::uint64_t, double> out;
  for (const SpanRecord& span : spans) {
    auto& intervals = children[span.id];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children's intervals, clipped to this span.
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (const auto& [a, b] : intervals) {
      const double lo = std::max(a, span.start_s);
      const double hi = std::min(b, span.end_s);
      if (hi <= lo) continue;
      if (lo > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    out[span.id] = span.duration() - covered;
  }
  return out;
}

std::map<std::string, double> layer_self_times(
    const std::vector<SpanRecord>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (const SpanRecord& span : spans) out[span.layer] += self.at(span.id);
  return out;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  Json::Array events;
  events.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    Json event;
    event["name"] = span.name;
    event["cat"] = span.layer;
    event["ph"] = "X";
    event["ts"] = span.start_s * 1e6;
    event["dur"] = span.duration() * 1e6;
    event["pid"] = 1;
    event["tid"] = span.thread;
    Json args;
    args["id"] = span.id;
    args["parent"] = span.parent;
    event["args"] = args;
    events.push_back(std::move(event));
  }
  Json out;
  out["traceEvents"] = Json(std::move(events));
  out["displayTimeUnit"] = "ms";
  return out.dump();
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_latency(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 11)
    throw std::invalid_argument("tail_latency: needs at least 11 samples");
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.value = values[n - 11];
  tail.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  tail.samples = n;
  return tail;
}

std::string digest_of(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

bool release_build() {
  return std::string_view(PSN_PERFBENCH_BUILD_TYPE) == "Release";
}

std::size_t worker_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

Json machine_record(std::uint64_t seed) {
  Json out;
  out["nproc"] = worker_count();
  out["cpu_model"] = cpu_model();
  out["compiler"] = compiler();
  out["build_type"] = PSN_PERFBENCH_BUILD_TYPE;
  out["seed"] = seed;
  return out;
}

double peak_rss_mb(long pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5\n";
}

std::string metric_token(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    if (!keep) c = '_';
  }
  return out;
}

std::size_t setup_repetitions(double first_setup_s) {
  const double wanted = first_setup_s > 0 ? std::ceil(1.0 / first_setup_s) : 9;
  return static_cast<std::size_t>(std::clamp(wanted, 3.0, 9.0));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
