// serve_mix: the real psn_serve binary on an AF_UNIX socket, driven as a
// closed loop — one client process, two connections per core, each sending
// its next request only after the previous one was answered.
//
// Robustness: every response has a deadline, the child is polled for an
// early death, and shutdown closes every connection before a bounded wait
// for the process to exit (then SIGKILL). A timeout, an error response, a
// dead child or a result that does not match counts as a failed request.

#include <algorithm>
#include <csignal>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "psn/core/workload.hpp"
#include "psn/engine/model_sweep.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/serve/request.hpp"
#include "psn/serve/service.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using psn::serve::Json;
namespace engine = psn::engine;

namespace {

// ------------------------------------------------------------ the mix

/// The mix is dealt in decks of ten with a fixed family pattern (7
/// forwarding, 2 path, 1 model), so any window of a run covers nearly the
/// same family shares whatever the seed. The seed picks the order of the
/// forwarding templates (each of the twelve once per two decks, plus two
/// repeats) and the forwarding master seeds.
constexpr const char kDeckPattern[] = "FFPFFMFFPF";
constexpr std::size_t kDeck = sizeof kDeckPattern - 1;
constexpr std::size_t kForwardingTemplates = 12;
/// Warm-up requests (two decks): answered and checked, not timed.
constexpr std::size_t kWarmup = 2 * kDeck;
/// Scenario-cache budget for the server: below the mix's working set
/// (~15.6 MB with all three scenarios and their snapshots), so the least
/// recently used small context is evicted and rebuilt. At 12 MiB campus_512
/// with its snapshot no longer fit at all and was rebuilt on every use.
constexpr std::uint64_t kCacheBudgetBytes = 14ull << 20;
/// Deadline on each response.
constexpr double kResponseDeadline = 60.0;
/// Bounded wait for the server to exit after shutdown.
constexpr double kExitDeadline = 10.0;

/// Counter-based stream for the mix (splitmix64 of seed and index), so the
/// mix is the same on every platform and standard library.
class MixRandom {
 public:
  explicit MixRandom(std::uint64_t seed) : seed_(seed) {}
  std::uint64_t next() { return mix_seed(seed_, counter_++); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

struct Mix {
  std::vector<Json> templates;         ///< request bodies without "id".
  std::vector<std::size_t> sequence;   ///< template index per request.
};

Mix make_mix(std::uint64_t seed, std::size_t decks) {
  MixRandom random(mix_seed(seed, 1));
  // Path message samples come from a stream that is the same for every
  // seed: one enumeration's cost varies several-fold between samples, and
  // with seed-drawn samples the throughput of ten seeds spread by 26%.
  MixRandom path_samples(mix_seed(0, 2));
  // Likewise the model master seeds: one model_10k request's cost varies
  // ~4x between master seeds, and with one seed-drawn master seed per tier
  // the throughput of two seeds differed by 20%.
  MixRandom model_seeds(mix_seed(0, 4));
  Mix mix;
  const std::vector<std::string> scenarios = {"conference_small", "town_128",
                                              "campus_512"};
  // Six (scenario, runs) shapes, each with two algorithm sets that share
  // the shape's master seed: such requests coalesce into one sweep. Shapes
  // and sets are fixed, so every seed asks for the same forwarding work;
  // the seed picks the master seeds and the order.
  const std::vector<std::vector<std::string>> algorithm_sets = {
      {"Epidemic"},
      {"FRESH", "Greedy", "Direct"},
      {"Greedy Online", "Spray+Wait"},
      {"Epidemic", "FRESH"},
      {"Direct"},
      {"Greedy", "Greedy Online", "Spray+Wait"},
      {"Spray+Wait", "Direct"},
      {"Greedy", "Epidemic"},
      {"FRESH"},
      {"Epidemic", "Direct", "Greedy Online"},
      {"Epidemic", "Greedy"},
      {"FRESH", "Spray+Wait"}};
  for (std::size_t t = 0; t < kForwardingTemplates; ++t) {
    const std::size_t shape = t / 2;
    Json body;
    body["family"] = "forwarding";
    body["scenario"] = scenarios[shape % scenarios.size()];
    body["algorithms"] = Json(Json::Array(algorithm_sets[t].begin(),
                                          algorithm_sets[t].end()));
    body["runs"] = 1 + shape % 4;
    body["master_seed"] = mix_seed(seed, 100 + shape) % 1000000;
    mix.templates.push_back(std::move(body));
  }
  std::vector<std::size_t> forwarding;  // template order, refilled.
  for (std::size_t d = 0; d < decks; ++d) {
    std::size_t path = 0;
    for (const char family : std::string_view(kDeckPattern)) {
      if (family == 'F') {
        if (forwarding.empty()) {
          for (std::size_t t = 0; t < kForwardingTemplates; ++t)
            forwarding.push_back(t);
          forwarding.push_back(random.below(kForwardingTemplates));
          forwarding.push_back(random.below(kForwardingTemplates));
          for (std::size_t i = forwarding.size() - 1; i > 0; --i)
            std::swap(forwarding[i], forwarding[random.below(i + 1)]);
        }
        mix.sequence.push_back(forwarding.back());
        forwarding.pop_back();
      } else if (family == 'M') {
        // model_1k and model_10k in turn, each request with a master seed
        // of its own.
        Json body;
        body["family"] = "model";
        body["scenario"] = d % 2 == 0 ? "model_1k" : "model_10k";
        body["jump_replicas"] = 4;
        body["master_seed"] = model_seeds.next() % 1000000;
        mix.sequence.push_back(mix.templates.size());
        mix.templates.push_back(std::move(body));
      } else {
        // Each path request draws its own message sample: enumeration
        // cost varies widely between samples, and fresh ones average out.
        // Two messages, not four: with four, path requests held ~64% of
        // the server's time, and the few that fit in a window (and the
        // noise on their long enumerations) set its throughput.
        const bool conference = (path++ + d) % 2 == 0;
        Json body;
        body["family"] = "path";
        body["scenario"] = conference ? "conference_small" : "campus_512";
        body["k"] = conference ? 2000 : 256;
        body["messages"] = 2;
        body["seed"] = path_samples.next() % 1000000;
        mix.sequence.push_back(mix.templates.size());
        mix.templates.push_back(std::move(body));
      }
    }
  }
  return mix;
}

// ------------------------------------------------------------ the server

class Server {
 public:
  Server(const std::string& binary, const std::string& socket_path,
         const std::string& log_path)
      : socket_path_(socket_path) {
    ::unlink(socket_path.c_str());
    const std::string threads = std::to_string(worker_count());
    const std::string budget = std::to_string(kCacheBudgetBytes);
    std::vector<std::string> args = {binary,         "--socket",
                                     socket_path,    "--threads",
                                     threads,        "--cache-budget-bytes",
                                     budget};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
  }

  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_path_.c_str());
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// True while the child runs; reaps it once it has exited.
  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// A connected socket, retried until the server listens or `deadline`.
  int connect_client(double deadline_s) {
    const Clock::time_point start = Clock::now();
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof(address.sun_path))
      throw std::runtime_error("socket path too long: " + socket_path_);
    std::memcpy(address.sun_path, socket_path_.c_str(),
                socket_path_.size() + 1);
    for (;;) {
      if (!alive()) throw std::runtime_error("psn_serve died at start-up");
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof address) == 0)
        return fd;
      ::close(fd);
      if (seconds_between(start, Clock::now()) > deadline_s)
        throw std::runtime_error("psn_serve did not listen in time");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Waits up to `deadline_s` for the child to exit; kills it after.
  /// Returns true if it exited on its own.
  bool wait_exit(double deadline_s) {
    const Clock::time_point start = Clock::now();
    while (alive()) {
      if (seconds_between(start, Clock::now()) > deadline_s) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

/// One client connection with a line buffer.
struct Connection {
  int fd = -1;
  std::string buffer;
  bool busy = false;
  std::size_t index = 0;  ///< request index in flight.
  Clock::time_point sent;
  std::uint64_t span_id = 0;

  explicit Connection(int descriptor) : fd(descriptor) {}
};

bool send_line(int fd, const std::string& text) {
  std::string payload = text;
  payload.push_back('\n');
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking request/response on one connection (set-up and admin calls).
Json call(Server& server, int fd, const std::string& line) {
  if (!send_line(fd, line)) throw std::runtime_error("send failed");
  std::string buffer;
  const Clock::time_point start = Clock::now();
  char chunk[4096];
  while (buffer.find('\n') == std::string::npos) {
    if (!server.alive()) throw std::runtime_error("psn_serve died");
    if (seconds_between(start, Clock::now()) > kResponseDeadline)
      throw std::runtime_error("response deadline passed");
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) throw std::runtime_error("connection closed");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return Json::parse(buffer.substr(0, buffer.find('\n')));
}

/// One answered request of the closed loop.
struct Answer {
  std::size_t index = 0;
  std::size_t template_index = 0;
  bool ok = false;
  double latency = 0.0;  ///< client-observed.
  double received_s = 0.0;  ///< answer time, seconds since the loop began.
  Json telemetry;
  std::string result_digest;
  Json result;
};

struct LoopStats {
  std::vector<Answer> answers;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// The measurement window: the time the loop sent for, or, when it
  /// sent a fixed range, from the first send to the last answer.
  double measured_s = 0.0;
  double drained_s = 0.0;      ///< from the first send to the last answer.
  std::vector<double> parse_s; ///< client Json::parse per response.
  std::vector<double> dump_s;  ///< client Json::dump per request.
};

/// Runs the closed loop over `mix.sequence[first, ...)`: sends while the
/// window is open (or until `last` when given), then collects every answer
/// still in flight. Answers after the window are checked like the others,
/// but only those received inside it are measured: while it is open every
/// client has a request outstanding, and during the drain that follows the
/// server's queue empties, which changes batching and latency.
void closed_loop(Server& server, std::vector<Connection>& connections,
                 const Mix& mix, std::size_t first, std::size_t last,
                 double window_s, SpanRecorder& recorder, LoopStats& stats) {
  const Clock::time_point start = Clock::now();
  std::size_t next = first;
  Clock::time_point last_answer = start;
  const auto can_send = [&] {
    if (next >= last || next >= mix.sequence.size()) return false;
    return window_s <= 0.0 || seconds_between(start, Clock::now()) < window_s;
  };
  const auto send_next = [&](Connection& c) {
    Json request = mix.templates[mix.sequence[next]];
    request["id"] = "r" + std::to_string(next);
    std::string line;
    {
      const Clock::time_point t = Clock::now();
      Span span(recorder, "Json::dump", "serve");
      line = request.dump();
      stats.dump_s.push_back(seconds_between(t, Clock::now()));
    }
    c.index = next++;
    c.busy = true;
    c.sent = Clock::now();
    c.span_id = recorder.begin();
    if (!send_line(c.fd, line)) throw std::runtime_error("send failed");
  };
  for (Connection& c : connections)
    if (can_send()) send_next(c);

  std::vector<pollfd> fds(connections.size());
  char chunk[65536];
  for (;;) {
    bool any_busy = false;
    for (const Connection& c : connections) any_busy = any_busy || c.busy;
    if (!any_busy) break;
    if (!server.alive()) {
      for (Connection& c : connections)
        if (c.busy) {
          ++stats.failed;
          c.busy = false;
        }
      stats.errors.push_back("psn_serve died during the loop");
      break;
    }
    for (std::size_t i = 0; i < connections.size(); ++i)
      fds[i] = {connections[i].fd, POLLIN, 0};
    ::poll(fds.data(), fds.size(), 50);
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < connections.size(); ++i) {
      Connection& c = connections[i];
      if (!c.busy) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
        if (n <= 0) throw std::runtime_error("server closed a connection");
        c.buffer.append(chunk, static_cast<std::size_t>(n));
      }
      const auto newline = c.buffer.find('\n');
      if (newline == std::string::npos) {
        if (seconds_between(c.sent, now) > kResponseDeadline) {
          ++stats.failed;
          stats.errors.push_back("deadline passed for r" +
                                 std::to_string(c.index));
          c.busy = false;  // the connection is unusable from here on.
        }
        continue;
      }
      const Clock::time_point received = Clock::now();
      const std::string line = c.buffer.substr(0, newline);
      c.buffer.erase(0, newline + 1);
      c.busy = false;
      last_answer = received;
      recorder.end(c.span_id, 0,
                   "request:" +
                       mix.templates[mix.sequence[c.index]].at("family").as_string(),
                   "serve", c.sent);
      Answer answer;
      answer.index = c.index;
      answer.template_index = mix.sequence[c.index];
      answer.latency = seconds_between(c.sent, received);
      answer.received_s = seconds_between(start, received);
      Json response;
      try {
        const Clock::time_point t = Clock::now();
        Span span(recorder, "Json::parse", "serve");
        response = Json::parse(line);
        stats.parse_s.push_back(seconds_between(t, Clock::now()));
        answer.ok = response.at("ok").as_bool() &&
                    response.at("id").as_string() ==
                        "r" + std::to_string(c.index);
        if (answer.ok) {
          answer.telemetry = response.at("telemetry");
          answer.result = response.at("result");
          answer.result_digest = digest_of(answer.result.dump());
        }
      } catch (const std::exception& e) {
        answer.ok = false;
      }
      if (!answer.ok) {
        ++stats.failed;
        stats.errors.push_back("bad response: " + line.substr(0, 200));
      }
      stats.answers.push_back(std::move(answer));
      if (can_send()) send_next(c);
    }
  }
  stats.drained_s = seconds_between(start, last_answer);
  if (window_s > 0.0 && next >= mix.sequence.size())
    throw std::runtime_error("the mix ran out before the window closed");
  stats.measured_s = window_s > 0.0 ? window_s : stats.drained_s;
}

struct Session {
  std::unique_ptr<Server> server;
  std::vector<Connection> connections;
  double setup_s = 0.0;
};

/// Spawn to the first answered stats request.
Session start_server(const RunConfig& config, const std::string& socket_path,
                     const std::string& log_path) {
  Session session;
  const Clock::time_point start = Clock::now();
  session.server =
      std::make_unique<Server>(config.serve_binary, socket_path, log_path);
  const int fd = session.server->connect_client(kResponseDeadline);
  session.connections.emplace_back(fd);
  const Json stats = call(*session.server, fd,
                          R"({"id":"setup","family":"admin","command":"stats"})");
  if (!stats.at("ok").as_bool())
    throw std::runtime_error("stats request failed");
  session.setup_s = seconds_between(start, Clock::now());
  return session;
}

/// Sends shutdown, closes every connection, then waits (bounded) for the
/// process. Returns false if it had to be killed.
bool stop_server(Session& session) {
  bool clean = true;
  try {
    const Json reply =
        call(*session.server, session.connections.front().fd,
             R"({"id":"shutdown","family":"admin","command":"shutdown"})");
    clean = reply.at("ok").as_bool();
  } catch (const std::exception&) {
    clean = false;
  }
  for (Connection& c : session.connections) ::close(c.fd);
  session.connections.clear();
  return session.server->wait_exit(kExitDeadline) && clean;
}

// ------------------------------------------------- in-process references

/// Re-executes `bodies` in-process through serve::SweepService — the same
/// engine calls psn_serve makes — and returns each result's digest.
std::vector<std::string> in_process_digests(const std::vector<Json>& bodies) {
  psn::serve::ServiceConfig service_config;
  service_config.threads = worker_count();
  psn::serve::SweepService service(service_config);
  std::vector<std::string> out;
  for (const Json& body : bodies) {
    Json request = body;
    request["id"] = "check";
    const Json response = service.execute(psn::serve::parse_request(request));
    out.push_back(response.at("ok").as_bool()
                      ? digest_of(response.at("result").dump())
                      : "error");
  }
  return out;
}

std::string run_digest(const std::vector<Answer>& answers, std::size_t count) {
  std::vector<const Answer*> first(count, nullptr);
  for (const Answer& a : answers)
    if (a.index < count) first[a.index] = &a;
  std::string text;
  for (const Answer* a : first)
    text += (a != nullptr ? a->result_digest : std::string("missing")) + "\n";
  return digest_of(text);
}

double number(const Json& json, const std::string& key) {
  return json.at(key).as_number();
}

/// serve.* metrics from the answers' telemetry (traced runs).
void add_serve_layer_metrics(RunOutcome& out, const Mix& mix,
                             const LoopStats& stats) {
  std::vector<double> queue_wait, run_s, wire, batch;
  std::map<std::string, std::vector<double>> family_latency;
  double build = 0.0, coalesced = 0.0, hits = 0.0, cached = 0.0;
  for (const Answer& a : stats.answers) {
    if (!a.ok) continue;
    const Json& t = a.telemetry;
    const double server_latency = number(t, "latency_seconds");
    queue_wait.push_back(server_latency - number(t, "build_wall_seconds") -
                         number(t, "run_wall_seconds"));
    run_s.push_back(number(t, "run_wall_seconds"));
    build += number(t, "build_wall_seconds");
    wire.push_back(a.latency - server_latency);
    batch.push_back(number(t, "batch_size"));
    coalesced += t.at("coalesced").as_bool() ? 1.0 : 0.0;
    const std::string& family =
        mix.templates[a.template_index].at("family").as_string();
    family_latency[family].push_back(a.latency);
    if (family != "model") {
      cached += 1.0;
      hits += t.at("cache_hit").as_bool() ? 1.0 : 0.0;
    }
  }
  double batch_sum = 0.0;
  for (const double b : batch) batch_sum += b;
  const double n = static_cast<double>(batch.size());
  out.add("serve.queue_wait_s.p50", median(queue_wait), "s");
  out.add("serve.build_s", build, "s");
  out.add("serve.run_s.p50", median(run_s), "s");
  out.add("serve.batch_size.mean", batch_sum / n, "count");
  out.add("serve.coalesced_ratio", coalesced / n, "ratio");
  out.add("serve.cache_hit_ratio", cached > 0 ? hits / cached : 0.0, "ratio");
  out.add("serve.wire_s.p50", median(wire), "s");
  out.add("serve.json_parse_s", median(stats.parse_s), "s");
  out.add("serve.json_dump_s", median(stats.dump_s), "s");
  for (const char* family : {"forwarding", "path", "model"}) {
    const auto it = family_latency.find(family);
    if (it == family_latency.end()) continue;
    const std::string name = std::string(family) == "forwarding" ? "fwd" : family;
    out.add("serve." + name + "_latency_p50_s", median(it->second), "s");
  }
}

/// The traced run's in-process layer replay of every distinct template the
/// loop answered: each layer's public calls under spans, checked against
/// the server's answers. Returns the number of mismatching templates.
std::uint64_t replay_layers(const Mix& mix, const LoopStats& stats,
                            SpanRecorder& recorder, RunOutcome& out) {
  std::map<std::size_t, const Answer*> answered;
  for (const Answer& a : stats.answers)
    if (a.ok) answered.emplace(a.template_index, &a);

  engine::ThreadPool pool(worker_count());
  Span root(recorder, "layer_replay", "bench");
  std::uint64_t mismatches = 0;

  // Scenario contexts: one cold build of each distinct trace scenario.
  auto& cache = engine::ScenarioContextCache::instance();
  cache.clear();
  const psn::util::ParallelFor executor = engine::parallel_for(pool);
  std::map<std::string, engine::Scenario> scenarios;
  std::map<std::string, std::shared_ptr<const engine::ScenarioContext>> contexts;
  double dataset_s = 0.0, graph_s = 0.0, contacts = 0.0, arena = 0.0;
  for (const auto& [index, answer] : answered) {
    const Json& body = mix.templates[index];
    if (body.at("family").as_string() == "model") continue;
    const std::string name = body.at("scenario").as_string();
    if (scenarios.count(name) > 0) continue;
    {
      Span span(recorder, "make_scenario_by_name", "synth");
      scenarios[name] = engine::make_scenario_by_name(name, executor);
      dataset_s += span.elapsed();
    }
    {
      Span span(recorder, "ScenarioContextCache::acquire", "graph");
      contexts[name] = cache.acquire(scenarios[name], &executor);
      graph_s += span.elapsed();
    }
    contacts += static_cast<double>(contexts[name]->dataset->trace.size());
    arena += static_cast<double>(contexts[name]->graph->arena_bytes());
  }
  out.add("synth.dataset_s", dataset_s, "s");
  out.add("synth.contacts", contacts, "count");
  out.add("graph.build_s", graph_s, "s");
  out.add("graph.arena_bytes", arena, "bytes");
  out.add("graph.bytes_per_contact", contacts > 0 ? arena / contacts : 0.0,
          "bytes");

  // Forwarding: snapshots, then the sweep replay, per template.
  std::map<std::string, double> snapshot_s;
  std::map<std::string, std::vector<double>> simulate_s;
  double transmissions = 0.0, delivered = 0.0, messages = 0.0;
  double truncated = 0.0, evictions = 0.0, drops = 0.0, blocked = 0.0;
  double busy = 0.0, replay_wall = 0.0;
  // Paths and model accumulators.
  double enumerate_s = 0.0, deliveries = 0.0, reached = 0.0, path_msgs = 0.0;
  double steps = 0.0, events = 0.0, peak = 0.0, truncated_candidates = 0.0;
  double jump_s = 0.0, jump_events = 0.0, mc_s = 0.0, mc_messages = 0.0;

  for (const auto& [index, answer] : answered) {
    const Json& body = mix.templates[index];
    Json request = body;
    request["id"] = "replay";
    const psn::serve::Request parsed = psn::serve::parse_request(request);
    const std::string& family = body.at("family").as_string();
    if (family == "forwarding") {
      const engine::ScenarioContext& context =
          *contexts.at(parsed.forwarding.scenario);
      for (const std::string& name : parsed.forwarding.algorithms) {
        const auto algorithm = psn::forward::make_algorithm(name);
        const std::string key = algorithm->shared_snapshot_key();
        if (key.empty()) continue;
        Span span(recorder, "build_shared_snapshot:" + name, "forward");
        const auto [snapshot, built] =
            context.observations->get_or_build(key, [&] {
              return algorithm->build_shared_snapshot(*context.graph,
                                                      context.dataset->trace);
            });
        if (built) {
          cache.reaccount(context);
          snapshot_s[name] += span.elapsed();
        }
      }
      const engine::SweepPlan plan = engine::make_plan(
          {scenarios.at(parsed.forwarding.scenario)},
          parsed.forwarding.algorithms, parsed.forwarding.plan_config());
      std::vector<ReplayRun> runs;
      const Clock::time_point start = Clock::now();
      const auto cells =
          replay_sweep(plan, context, pool, recorder, root.id(), &runs);
      replay_wall += seconds_between(start, Clock::now());
      for (const ReplayRun& run : runs) {
        simulate_s[run.algorithm].push_back(run.simulate_s);
        busy += run.simulate_s;
      }
      const Json::Array& served = answer->result.at("cells").as_array();
      for (std::size_t a = 0; a < cells.size(); ++a) {
        const engine::CellSummary& cell = cells[a];
        const Json& s = served.at(a);
        const bool same =
            s.at("algorithm").as_string() == cell.algorithm &&
            s.at("success_rate").as_number() == cell.overall.success_rate &&
            s.at("average_delay").as_number() == cell.overall.average_delay &&
            s.at("delivered").as_number() ==
                static_cast<double>(cell.overall.delivered) &&
            s.at("cost_per_message").as_number() == cell.cost_per_message;
        if (!same) ++mismatches;
        transmissions += cell.cost_per_message *
                         static_cast<double>(cell.messages_offered);
        delivered += static_cast<double>(cell.overall.delivered);
        messages += static_cast<double>(cell.overall.messages);
        truncated += static_cast<double>(cell.truncated_relay_steps);
        evictions += static_cast<double>(cell.evictions);
        drops += static_cast<double>(cell.drops);
        blocked += static_cast<double>(cell.budget_blocked);
      }
    } else if (family == "path") {
      const psn::serve::PathRequest& spec = parsed.path;
      const engine::ScenarioContext& context = *contexts.at(spec.scenario);
      const auto sample = psn::core::uniform_message_sample(
          context.dataset->trace.num_nodes(), spec.messages,
          context.dataset->message_horizon, spec.seed);
      psn::paths::EnumeratorConfig ec;
      ec.k = spec.k;
      ec.record_paths = false;
      std::vector<psn::paths::EnumerationResult> results;
      {
        Span span(recorder, "enumerate_sample", "paths");
        results = engine::enumerate_sample(*context.graph, sample, ec,
                                           worker_count());
        enumerate_s += span.elapsed();
      }
      const Json::Array& records = answer->result.at("records").as_array();
      for (std::size_t m = 0; m < results.size(); ++m) {
        const auto record = psn::paths::make_explosion_record(results[m], spec.k);
        const Json& s = records.at(m);
        if (s.at("delivered").as_bool() != record.delivered ||
            s.at("total_paths").as_number() !=
                static_cast<double>(record.total_paths))
          ++mismatches;
        const auto& effort = results[m].effort;
        deliveries += static_cast<double>(results[m].deliveries.size());
        reached += results[m].reached_k ? 1.0 : 0.0;
        steps += static_cast<double>(effort.steps_replayed);
        events += static_cast<double>(effort.contact_events);
        peak = std::max(peak, static_cast<double>(effort.peak_stored_paths));
        truncated_candidates += static_cast<double>(effort.truncated_candidates);
      }
      path_msgs += static_cast<double>(results.size());
    } else {
      const psn::serve::ModelRequest& spec = parsed.model;
      engine::ModelSweepPlan plan;
      plan.scenarios.push_back(engine::make_model_scenario(spec.scenario));
      if (spec.mc_messages > 0)
        plan.scenarios.back().mc.messages = spec.mc_messages;
      plan.config.jump_replicas = spec.jump_replicas;
      plan.config.master_seed = spec.master_seed;
      engine::ModelSweepOptions options;
      options.pool = &pool;
      options.keep_messages = false;
      Span span(recorder, "run_model_sweep", "model");
      const engine::ModelSweepResult result =
          engine::run_model_sweep(plan, options);
      const engine::ModelCell& cell = result.cells.front();
      double cell_mc = 0.0;
      for (std::size_t q = 0; q < 4; ++q)
        cell_mc += static_cast<double>(cell.quadrants.messages[q]);
      if (answer->result.at("jump_events").as_number() !=
              static_cast<double>(cell.jump_events) ||
          answer->result.at("mc_messages").as_number() != cell_mc)
        ++mismatches;
      jump_s += cell.jump_wall_seconds;
      jump_events += static_cast<double>(cell.jump_events);
      mc_s += cell.mc_wall_seconds;
      mc_messages += cell_mc;
    }
  }
  for (const auto& [name, wall] : snapshot_s)
    out.add("forward.snapshot_s." + metric_token(name), wall, "s");
  double snapshot_bytes = 0.0;
  for (const auto& [name, context] : contexts)
    snapshot_bytes += static_cast<double>(context->observations->bytes());
  out.add("forward.snapshot_bytes", snapshot_bytes, "bytes");
  for (const auto& [name, walls] : simulate_s)
    out.add("forward.simulate_s." + metric_token(name) + ".p50", median(walls),
            "s");
  out.add("forward.transmissions", transmissions, "count");
  out.add("forward.tx_per_delivery",
          delivered > 0 ? transmissions / delivered : 0.0, "ratio");
  out.add("forward.success_rate", messages > 0 ? delivered / messages : 0.0,
          "ratio");
  out.add("forward.truncated_relay_steps", truncated, "count");
  out.add("forward.evictions", evictions, "count");
  out.add("forward.drops", drops, "count");
  out.add("forward.budget_blocked", blocked, "count");
  out.add("engine.busy_share",
          replay_wall > 0
              ? busy / (static_cast<double>(pool.size()) * replay_wall)
              : 0.0,
          "ratio");
  out.add("paths.enumerate_s", enumerate_s, "s");
  out.add("paths.deliveries", deliveries, "count");
  out.add("paths.reached_k_ratio", path_msgs > 0 ? reached / path_msgs : 0.0,
          "ratio");
  out.add("paths.steps_replayed", steps, "count");
  out.add("paths.contact_events", events, "count");
  out.add("paths.peak_stored_paths", peak, "count");
  out.add("paths.truncated_candidates", truncated_candidates, "count");
  out.add("model.jump_s", jump_s, "s");
  out.add("model.jump_events", jump_events, "count");
  out.add("model.mc_s", mc_s, "s");
  out.add("model.mc_messages", mc_messages, "count");
  return mismatches;
}

}  // namespace

RunOutcome run_serve_mix(const RunConfig& config) {
  RunOutcome out;
  SpanRecorder recorder(config.trace);
  SpanRecorder untraced(false);
  const Mix mix = make_mix(config.seed, 800);
  // One socket path per spawn: a replaced server unlinks its own path.
  const auto socket_path = [&config](std::size_t spawn) {
    return config.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
           std::to_string(spawn) + ".sock";
  };
  const std::string log_path = config.out_dir + "/serve_mix-seed" +
                               std::to_string(config.seed) + "-server.log";

  // Set-up: spawn to the first answered stats request, repeated; the
  // last server stays up for the mix.
  std::vector<double> setups;
  Session session;
  std::size_t repetitions = 3;
  for (std::size_t i = 0; i < repetitions; ++i) {
    if (session.server && !stop_server(session))
      out.notes.push_back("psn_serve needed SIGKILL after shutdown");
    session = start_server(config, socket_path(i), log_path);
    setups.push_back(session.setup_s);
    if (i == 0) repetitions = setup_repetitions(setups.front());
  }
  // Two connections per core: with one, a forwarding request either runs
  // at once or waits behind a whole path request, and the median latency
  // of a run flipped between those two modes (IQR 24% of the median over
  // seeds; 16% with two).
  const std::size_t clients = 2 * worker_count();
  while (session.connections.size() < clients)
    session.connections.emplace_back(
        session.server->connect_client(kResponseDeadline));

  // Warm-up deck: fills the context cache and the workers; its answers
  // are the run's digest and are checked, but not timed.
  LoopStats warm;
  closed_loop(*session.server, session.connections, mix, 0, kWarmup, 0.0,
              untraced, warm);
  out.digest = run_digest(warm.answers, kWarmup);

  // The timed window. A traced run then sends the same requests again
  // with spans on, so the tracing overhead compares like with like.
  LoopStats measured;
  LoopStats traced;
  closed_loop(*session.server, session.connections, mix, kWarmup,
              mix.sequence.size(), config.seconds, untraced, measured);
  if (config.trace) {
    std::size_t end = kWarmup;
    for (const Answer& a : measured.answers) end = std::max(end, a.index + 1);
    closed_loop(*session.server, session.connections, mix, kWarmup, end, 0.0,
                recorder, traced);
  }

  Json server_stats;
  out.attempted += 2;  // the closing stats and shutdown requests.
  try {
    server_stats = call(*session.server, session.connections.front().fd,
                        R"({"id":"stats","family":"admin","command":"stats"})");
  } catch (const std::exception& e) {
    out.notes.push_back(std::string("stats request failed: ") + e.what());
    ++out.failed;
  }
  const double server_peak = peak_rss_mb(session.server->pid());
  if (!stop_server(session)) {
    out.notes.push_back("psn_serve did not exit cleanly after shutdown");
    ++out.failed;
  }

  // Correctness: identical requests must get identical results, and a
  // sample (the first answer of each template of the warm-up deck) must
  // equal the in-process engine's result for the same request.
  std::vector<const LoopStats*> loops = {&warm, &measured, &traced};
  std::map<std::size_t, std::string> template_digest;
  for (const LoopStats* loop : loops) {
    out.attempted += loop->answers.size() + loop->failed -
                     std::count_if(loop->answers.begin(), loop->answers.end(),
                                   [](const Answer& a) { return !a.ok; });
    out.failed += loop->failed;
    for (const std::string& e : loop->errors) out.notes.push_back(e);
    for (const Answer& a : loop->answers) {
      if (!a.ok) continue;
      const auto [it, inserted] =
          template_digest.emplace(a.template_index, a.result_digest);
      if (!inserted && it->second != a.result_digest) {
        ++out.failed;
        out.digest_ok = false;
        out.notes.push_back("template " + std::to_string(a.template_index) +
                            " answered with two different results");
      }
    }
  }
  std::vector<Json> sample;
  std::vector<std::string> sample_digests;
  std::set<std::size_t> sampled;
  for (const Answer& a : warm.answers)
    if (a.ok && sampled.insert(a.template_index).second &&
        sampled.size() <= 6) {
      sample.push_back(mix.templates[a.template_index]);
      sample_digests.push_back(a.result_digest);
    }
  const std::vector<std::string> reference = in_process_digests(sample);
  for (std::size_t i = 0; i < sample.size(); ++i)
    if (reference[i] != sample_digests[i]) {
      ++out.failed;
      out.digest_ok = false;
      out.notes.push_back("served result differs from in-process result for " +
                          sample[i].dump());
    }

  std::vector<double> latencies;
  double runs = 0.0;
  std::size_t drained = 0;
  for (const Answer& a : measured.answers) {
    if (!a.ok) continue;
    if (a.received_s > measured.measured_s) {
      ++drained;
      continue;
    }
    latencies.push_back(a.latency);
    const Json& body = mix.templates[a.template_index];
    if (body.at("family").as_string() == "forwarding")
      runs += static_cast<double>(body.at("algorithms").as_array().size()) *
              body.at("runs").as_number();
  }
  if (latencies.size() < 11)
    throw std::runtime_error("too few answered requests for a tail");
  const Tail tail = tail_latency(latencies);
  out.notes.push_back("input: " + std::to_string(latencies.size()) +
                      " requests answered in the " +
                      std::to_string(measured.measured_s) + " s window (" +
                      std::to_string(drained) + " more after it) from " +
                      std::to_string(clients) +
                      " closed-loop clients; latency_tail_s is p" +
                      std::to_string(tail.percentile) + " of " +
                      std::to_string(tail.samples));
  out.details["setup_s_samples"] = Json(Json::Array(setups.begin(), setups.end()));
  out.details["server_stats"] = server_stats;
  out.details["tail_percentile"] = tail.percentile;
  out.details["tail_samples"] = tail.samples;
  out.notes.push_back(
      "known issue: stdio psn_serve (no --socket) hangs after an answered "
      "shutdown while its stdin stays open; this harness uses --socket");

  if (!config.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("runs_per_s", runs / measured.measured_s, "runs/s");
    out.add("throughput_rps",
            static_cast<double>(latencies.size()) / measured.measured_s,
            "req/s");
    out.add("latency_p50_s", median(latencies), "s");
    out.add("latency_tail_s", tail.value, "s");
    out.add("peak_rss_mb", server_peak, "MiB");
    return out;
  }

  add_serve_layer_metrics(out, mix, traced);
  if (server_stats.is_object() && server_stats.at("ok").as_bool()) {
    const Json& cache = server_stats.at("result").at("cache");
    out.add("engine.cache_hits", number(cache, "hits"), "count");
    out.add("engine.cache_misses", number(cache, "misses"), "count");
    out.add("engine.cache_evictions", number(cache, "evictions"), "count");
    out.add("engine.resident_bytes", number(cache, "resident_bytes"), "bytes");
  }
  // Both loops sent the same requests and drained them: like with like.
  const double overhead = traced.drained_s / measured.drained_s - 1.0;
  out.add("bench.trace_overhead", overhead, "ratio");
  out.notes.push_back("tracing overhead: the same " +
                      std::to_string(traced.answers.size()) + " requests took " +
                      std::to_string(traced.drained_s) + " s traced vs " +
                      std::to_string(measured.drained_s) + " s untraced (" +
                      std::to_string(100.0 * overhead) + "%)");

  const std::uint64_t mismatches = replay_layers(mix, traced, recorder, out);
  if (mismatches > 0) {
    out.failed += mismatches;
    out.digest_ok = false;
    out.notes.push_back(std::to_string(mismatches) +
                        " layer-replay results differ from the server's");
  }
  const std::vector<SpanRecord> spans = recorder.spans();
  for (const auto& [layer, self] : layer_self_times(spans))
    out.details["layer_self_s"][layer] = self;
  out.chrome_trace = chrome_trace_json(spans);
  return out;
}

}  // namespace perfbench
