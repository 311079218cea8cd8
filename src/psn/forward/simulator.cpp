#include "psn/forward/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "psn/util/rng.hpp"

namespace psn::forward {

namespace detail {

bool validate_request(const SimulationRequest& request) {
  if (request.algorithm == nullptr || request.graph == nullptr ||
      request.trace == nullptr || request.messages == nullptr)
    throw std::invalid_argument("simulate: null field in SimulationRequest");
  const NodeId n = request.graph->num_nodes();
  bool has_ttl = false;
  for (const Message& m : *request.messages) {
    if (m.source >= n || m.destination >= n)
      throw std::invalid_argument("simulate: message endpoint out of range");
    if (m.source == m.destination)
      throw std::invalid_argument("simulate: source equals destination");
    if (m.size_bytes == 0)
      throw std::invalid_argument("simulate: message size must be >= 1 byte");
    if (!std::isfinite(m.created))
      throw std::invalid_argument("simulate: message created must be finite");
    if (std::isnan(m.ttl) || m.ttl < 0.0)
      throw std::invalid_argument("simulate: message ttl must be >= 0");
    if (m.ttl != kNoTtl) has_ttl = true;
  }
  return has_ttl;
}

std::uint64_t edge_order_key(std::uint64_t seed, graph::Step s, NodeId a,
                             NodeId b) noexcept {
  std::uint64_t h =
      seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(s) + 1)) ^
      ((static_cast<std::uint64_t>(a) << 32) | b);
  return util::splitmix64(h);
}

}  // namespace detail

namespace {

using MessageState = detail::SimulatorState::MessageState;
using SettleScratch = detail::SimulatorState::SettleScratch;
using WorkEdge = detail::SimulatorState::WorkEdge;

constexpr std::uint32_t kNotFound = std::numeric_limits<std::uint32_t>::max();

/// Every SimulationResult counter: what a fast-forwarded relay pass adds.
constexpr std::uint64_t SimulationResult::*kCounters[] = {
    &SimulationResult::transmissions,  &SimulationResult::truncated_relay_steps,
    &SimulationResult::expirations,    &SimulationResult::evictions,
    &SimulationResult::drops,          &SimulationResult::budget_blocked,
    &SimulationResult::buffer_rejections};
static_assert(kCounters[0] == &SimulationResult::transmissions);
using CounterValues = std::array<std::uint64_t, std::size(kCounters)>;

std::uint16_t saturate_hops(std::uint32_t hops) {
  return static_cast<std::uint16_t>(std::min<std::uint32_t>(hops, 0xFFFF));
}

bool work_less(const WorkEdge& l, const WorkEdge& r) {
  if (l.key != r.key) return l.key < r.key;
  if (l.a != r.a) return l.a < r.a;
  return l.b < r.b;
}

/// Calls f(v) for every node whose bit is set in `bits`, word `w`.
template <typename F>
void for_each_bit(std::uint32_t w, std::uint64_t bits, F&& f) {
  while (bits != 0) {
    f(static_cast<NodeId>(w * 64 +
                          static_cast<std::uint32_t>(std::countr_zero(bits))));
    bits &= bits - 1;
  }
}

/// One simulate() call over a workspace. The replay is four stages —
/// the activation/expiry schedule, the flood closure, the holder-incident
/// relay, and traffic accounting — sharing the per-run state below.
struct SimulationRun {
  const SimulationRequest& request;  ///< passed detail::validate_request().
  detail::SimulatorState& ws;
  bool has_ttl = false;  ///< what detail::validate_request() returned.
  ForwardingAlgorithm& algorithm = *request.algorithm;
  const graph::SpaceTimeGraph& graph = *request.graph;
  const std::vector<Message>& messages = *request.messages;
  const TrafficConfig& traffic = request.traffic;
  NodeId n = graph.num_nodes();
  bool capacity_limited = traffic.capacity_limited();
  /// Unbounded replication under unconstrained traffic: the flood closure
  /// replaces the relay. It tracks holder sets only, which is incompatible
  /// with byte-accounted buffers and budgets, so constrained floods take
  /// the relay, whose per-step work is bounded by buffer capacity. TTL
  /// alone keeps the closure: expiry clears a message's holders before
  /// the step's contacts are processed.
  bool flooding = false;
  std::uint32_t quota = 1;
  bool quota_scheme = false;
  bool observes = false;
  /// Relay runs visit only steps where a current holder has a contact and
  /// relay only holder-incident edges. Requires a non-flooding algorithm,
  /// no online contact observation (observe_contact must see every trace
  /// contact), and at least one relay pass (a zero-pass run counts every
  /// edge-bearing step as truncated, visited or not).
  bool holder_incident = false;
  /// Every decision of a relay pass is a function of the residents (in
  /// order, with hops) of the worklist endpoints at the pass start, so a
  /// pass that returns to that state repeats itself to the pass bound and
  /// is fast-forwarded (DESIGN.md §8, "Livelocked relay steps"). Holds for
  /// the flood class (forwards unconditionally) without contact budgets
  /// (no check can fail) or random eviction (draws from the RNG).
  bool passes_repeat = false;
  util::Rng rng{request.seed};
  SimulationResult result{};
  std::size_t next_activation = 0;
  std::size_t next_expiry = 0;
  std::uint64_t holder_nodes = 0;  ///< nodes with holder_count > 0.

  // The relay step in progress.
  graph::Step step = 0;
  bool edges_complete = true;
  std::uint64_t member_stamp = 0;

  SimulationResult run() {
    algorithm.reset();
    algorithm.prepare(graph, *request.trace);
    quota = algorithm.initial_copies();
    quota_scheme = quota > 1;
    observes = algorithm.observes_contacts();
    flooding = algorithm.replicates() && quota == 0 && traffic.unconstrained();
    holder_incident = !flooding && !observes && request.max_relay_passes > 0;
    passes_repeat = algorithm.replicates() && quota == 0 &&
                    !traffic.budget_limited() &&
                    traffic.eviction != EvictionPolicy::kRandom;

    schedule_messages();
    reset_state();
    if (holder_incident) {
      replay_holder_contacts();
    } else {
      // Sparse event timeline: only steps carrying contact edges are
      // visited. Messages created after the last contact never activate —
      // nothing could happen to them anyway.
      for (const graph::Step s : graph.active_steps()) process_step(s);
    }
    // Expiry sweep over the rest of the trace window: a TTL elapsing after
    // the last contact still expires. TTLs outlasting the window leave the
    // message undelivered-but-unexpired: still in flight when the trace
    // ends.
    if (has_ttl && graph.num_steps() > 0)
      expire_until(graph.step_end(graph.num_steps() - 1));
    return std::move(result);
  }

  // --- Stage 1: the activation/expiry schedule ---------------------------

  /// Orders messages by (creation time, id) for activation and finite-TTL
  /// messages by (expiry time, id) for expiry: an advancing cursor over
  /// each list replaces a priority queue.
  void schedule_messages() {
    auto& order = ws.order;
    order.resize(messages.size());
    std::iota(order.begin(), order.end(), 0U);
    std::sort(order.begin(), order.end(), [&](std::uint32_t l, std::uint32_t r) {
      return std::pair(messages[l].created, l) <
             std::pair(messages[r].created, r);
    });
    auto& expiry_order = ws.expiry_order;
    expiry_order.clear();
    if (!has_ttl) return;
    for (std::uint32_t i = 0; i < messages.size(); ++i)
      if (messages[i].ttl != kNoTtl) expiry_order.push_back(i);
    std::sort(expiry_order.begin(), expiry_order.end(),
              [&](std::uint32_t l, std::uint32_t r) {
                return std::pair(messages[l].expiry_time(), l) <
                       std::pair(messages[r].expiry_time(), r);
              });
  }

  /// Workspace state is grown, never shrunk: slots beyond this run's needs
  /// keep their capacity for a later, larger run. Only flags and per-node
  /// tallies are reset here — holder sets / hop arrays are (re)initialized
  /// at activation.
  void reset_state() {
    result.outcomes.assign(messages.size(), {});
    auto& state = ws.states;
    if (state.size() < messages.size()) state.resize(messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      state[i].delivered = false;
      state[i].active = false;
      state[i].expired = false;
      state[i].dropped = false;
    }
    ws.active_msgs.clear();
    if (!flooding) {
      if (ws.at_node.size() < n) ws.at_node.resize(n);
      for (NodeId v = 0; v < n; ++v) ws.at_node[v].clear();
    }
    if (capacity_limited) {
      if (ws.store_bytes.size() < n) ws.store_bytes.resize(n);
      std::fill_n(ws.store_bytes.begin(), n, std::uint64_t{0});
    }
    ws.heap.clear();
    if (holder_incident) {
      if (ws.holder_count.size() < n) ws.holder_count.resize(n);
      std::fill_n(ws.holder_count.begin(), n, std::uint32_t{0});
      if (ws.node_stamp.size() < n) ws.node_stamp.resize(n, 0);
    }
    if (passes_repeat && ws.record_stamp.size() < n)
      ws.record_stamp.resize(n, 0);
  }

  /// One visited step: expiry, activation, contact observation, then the
  /// flood closure or the relay.
  void process_step(graph::Step s) {
    // Expiry first: a message is live during step s only if its TTL
    // outlasts the step's start.
    if (has_ttl) expire_until(static_cast<Seconds>(s) * graph.delta());
    activate_through(s);

    // History observation, in deterministic trace order, consuming the
    // graph's precomputed new-contact flags. Skipped outright for
    // algorithms that declare they keep no contact history.
    if (observes) {
      const auto step_edges = graph.edges(s);
      const auto new_flags = graph.new_edge_flags(s);
      for (std::size_t i = 0; i < step_edges.size(); ++i)
        algorithm.observe_contact(step_edges[i].a, step_edges[i].b, s,
                                  new_flags[i] != 0);
    }

    if (flooding) {
      flood_step(s);
    } else {
      relay_step(s);
    }
  }

  /// Expires every finite-TTL message whose expiry time has passed by
  /// `threshold`. Called with the step start before each processed step,
  /// so a TTL elapsing inside a skipped gap takes effect before the next
  /// visited step's first contact.
  void expire_until(Seconds threshold) {
    while (next_expiry < ws.expiry_order.size()) {
      const std::uint32_t id = ws.expiry_order[next_expiry];
      if (messages[id].expiry_time() > threshold) break;
      ++next_expiry;
      auto& st = ws.states[id];
      if (st.delivered || st.expired || st.dropped) continue;
      st.expired = true;
      result.outcomes[id].expired = true;
      ++result.expirations;
      if (st.active) {
        release_copies(id);
        // Cleared holders make every remaining per-node list entry stale;
        // the relay and flood scans drop them lazily.
        st.holders.clear();
      }
    }
  }

  /// Activates messages created at or before step s. A message created
  /// inside a contact-free gap activates at the first visited step after
  /// its creation. The source buffer must admit the message: under
  /// bounded buffers activation can evict residents, and a message larger
  /// than the whole buffer is stillborn.
  void activate_through(graph::Step s) {
    while (next_activation < ws.order.size()) {
      const std::uint32_t id = ws.order[next_activation];
      if (graph.step_of(messages[id].created) > s) break;
      ++next_activation;
      auto& st = ws.states[id];
      if (st.expired) continue;  // TTL elapsed before the first contact.
      const Message& m = messages[id];
      if (capacity_limited) {
        if (m.size_bytes > traffic.buffer_capacity_bytes) {
          ++result.buffer_rejections;
          st.dropped = true;
          result.outcomes[id].dropped = true;
          ++result.drops;
          continue;
        }
        make_room(m.source, m.size_bytes);
        ws.store_bytes[m.source] += m.size_bytes;
      }
      st.active = true;
      st.holders.clear();
      st.hops.assign(n, 0);
      if (quota_scheme) {
        st.copies.assign(n, 0);
        st.copies[m.source] = quota;
      }
      if (flooding) {
        // Pre-size flood holder sets so the closure's or_word() spreads
        // never reallocate mid-flood (capacity is invisible to results).
        st.holders.ensure_capacity(n);
        ws.active_msgs.push_back(id);
      } else {
        ws.at_node[m.source].push_back(id);
      }
      st.holders.set(m.source);
      if (holder_incident) {
        holder_gained(m.source);
        // The source's contact at this very step (if any) is picked up by
        // the worklist build; future contacts need an armed visit.
        arm_node(m.source, s);
      }
    }
  }

  /// The first active step at or after the next pending activation — the
  /// step the active-step replay would activate it at.
  [[nodiscard]] graph::Step pending_activation_step() const {
    if (next_activation >= ws.order.size()) return graph.num_steps();
    return graph.next_active_step(
        graph.step_of(messages[ws.order[next_activation]].created));
  }

  /// The holder-incident schedule: visit the earlier of (a) the next armed
  /// holder contact and (b) the next pending activation. Every skipped
  /// step is one where no holder has a contact and nothing activates — a
  /// pure no-op (expiry is applied at the next visited step, before any
  /// contact; the trailing sweep in run() catches the rest — DESIGN.md
  /// §11).
  void replay_holder_contacts() {
    auto& heap = ws.heap;
    const auto heap_pop = [&heap] {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
    };
    graph::Step next_act = pending_activation_step();
    while (true) {
      // Lazily discard visits whose node no longer holds anything: if it
      // regains a copy later, that transfer's step re-arms it.
      while (!heap.empty() &&
             ws.holder_count[static_cast<NodeId>(heap.front() &
                                                 0xFFFFFFFFULL)] == 0)
        heap_pop();
      const graph::Step heap_step =
          heap.empty() ? graph.num_steps()
                       : static_cast<graph::Step>(heap.front() >> 32);
      const graph::Step s = std::min(heap_step, next_act);
      if (s >= graph.num_steps()) break;
      // Drain every entry for this step; its contacts are found by the
      // worklist build, and endpoints still holding re-arm afterwards.
      while (!heap.empty() &&
             static_cast<graph::Step>(heap.front() >> 32) == s)
        heap_pop();
      process_step(s);
      next_act = pending_activation_step();
    }
  }

  /// Schedules node v's next contact after step s (if any) as a visit.
  /// Entries are lazily discarded when v no longer holds anything by the
  /// time they surface; duplicates are harmless (visits coalesce).
  void arm_node(NodeId v, graph::Step s) {
    const auto steps = graph.contact_steps(v);
    const auto it = std::upper_bound(steps.begin(), steps.end(), s);
    if (it == steps.end()) return;
    ws.heap.push_back((static_cast<std::uint64_t>(*it) << 32) | v);
    std::push_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
  }

  // --- Stage 2: the flood closure ----------------------------------------

  /// Epidemic closure: every member of a contact component ends the step
  /// holding everything any member held; delivery happens if the
  /// destination is in the component. Hop levels come from the component
  /// settle so epidemic deliveries carry real hop counts. Components
  /// (masks + nonzero-word lists, canonical order) are extracted once per
  /// step and shared by every message; with no live flood, nothing this
  /// step could change and the extraction is skipped (the closure draws no
  /// randomness, so the skip is invisible).
  void flood_step(graph::Step s) {
    auto& live = ws.active_msgs;
    std::erase_if(live, [this](std::uint32_t id) {
      return ws.states[id].delivered || ws.states[id].expired;
    });
    if (live.empty()) return;
    const std::size_t num_comps =
        graph::step_components_at(graph, s, ws.components);
    // Per-message flood state is disjoint, so the live list fans out
    // across the executor when one is provided. Shard geometry depends on
    // the list alone (not the executor).
    const std::size_t shards =
        request.parallel != nullptr && live.size() > 1
            ? std::clamp<std::size_t>(live.size() / 4, 1, 32)
            : 1;
    if (ws.settle.size() < shards) ws.settle.resize(shards);
    if (shards == 1) {
      std::size_t tx = 0;
      for (const std::uint32_t id : live)
        flood_message(id, s, num_comps, ws.settle[0], tx);
      result.transmissions += tx;
      return;
    }
    ws.shard_tx.assign(shards, 0);
    (*request.parallel)(shards, [&](std::size_t shard) {
      std::size_t tx = 0;
      const std::size_t lo = live.size() * shard / shards;
      const std::size_t hi = live.size() * (shard + 1) / shards;
      for (std::size_t i = lo; i < hi; ++i)
        flood_message(live[i], s, num_comps, ws.settle[shard], tx);
      ws.shard_tx[shard] = tx;
    });
    // Fixed-order reduction (sums are order-independent anyway).
    for (const std::size_t tx : ws.shard_tx) result.transmissions += tx;
  }

  /// Floods one message through the step's components. Touches only the
  /// message's own state and outcome slot plus the caller-provided scratch
  /// and transmission counter, so disjoint messages flood concurrently
  /// with bit-identical results.
  void flood_message(std::uint32_t id, graph::Step s, std::size_t num_comps,
                     SettleScratch& sc, std::size_t& tx) {
    auto& st = ws.states[id];
    if (st.delivered || st.expired) return;
    const NodeId dest = messages[id].destination;
    for (std::size_t ci = 0; ci < num_comps; ++ci) {
      const graph::StepComponent& comp = ws.components.pool[ci];
      unsigned held = 0;
      for (const std::uint32_t w : comp.words)
        held += static_cast<unsigned>(
            std::popcount(comp.mask.word(w) & st.holders.word(w)));
      if (held == 0) continue;
      if (comp.mask.test(dest)) {
        // The copies made inside the component before reaching the
        // destination (size - held - 1) plus the final hop.
        tx += comp.size - held;
        deliver(id, s, settle(comp, st, sc, dest));
        break;
      }
      // Fully flooded components have nothing left to spread; skipping
      // them also skips the (comparatively expensive) hop settle.
      if (held == comp.size) continue;
      settle(comp, st, sc, kNotFound);
      for (const std::uint32_t w : comp.words) {
        const std::uint64_t mask_word = comp.mask.word(w);
        for_each_bit(w, mask_word & ~st.holders.word(w), [&](NodeId v) {
          st.hops[v] = saturate_hops(sc.level[v]);
        });
        st.holders.or_word(w, mask_word);
      }
      tx += comp.size - held;
    }
  }

  /// Hop settle: a level-synchronous BFS over one component with frontier
  /// masks, seeded by the message's holders at their current hop counts
  /// (bucketed relative to the minimum seed level, so the frontier array
  /// stays short however large absolute hop counts grow). Per level the
  /// fresh frontier is `seeded & ~visited`, computed wordwise over the
  /// component's nonzero words only. Levels are minimal over all
  /// holder-to-node chains within the step (the zero-weight closure of
  /// §4.1). With `stop_at` inside the component, returns its level as soon
  /// as it settles; otherwise settles the whole component, leaving
  /// sc.level[] valid for every member. All scratch is cleared sparsely
  /// (component words only) before returning.
  std::uint32_t settle(const graph::StepComponent& comp,
                       const MessageState& st, SettleScratch& sc,
                       NodeId stop_at) const {
    if (sc.level.size() < n) sc.level.resize(n, 0);
    sc.visited.ensure_capacity(n);

    std::uint32_t base = kNotFound;  // the minimum holder level.
    for (const std::uint32_t w : comp.words)
      for_each_bit(w, comp.mask.word(w) & st.holders.word(w), [&](NodeId v) {
        base = std::min(base, static_cast<std::uint32_t>(st.hops[v]));
      });
    std::uint32_t top = 0;
    const auto frontier_at = [&](std::uint32_t lvl) -> util::NodeSet& {
      while (lvl >= sc.frontier.size()) {
        sc.frontier.emplace_back();
        sc.frontier.back().ensure_capacity(n);
      }
      return sc.frontier[lvl];
    };
    for (const std::uint32_t w : comp.words)
      for_each_bit(w, comp.mask.word(w) & st.holders.word(w), [&](NodeId v) {
        const std::uint32_t rel = st.hops[v] - base;
        frontier_at(rel).set(v);
        top = std::max(top, rel);
      });

    std::uint32_t found = kNotFound;
    for (std::uint32_t lvl = 0; lvl <= top; ++lvl) {
      // Materialize level lvl+1 first: growing the frontier vector later
      // would invalidate the references taken below.
      frontier_at(lvl + 1);
      util::NodeSet& f = sc.frontier[lvl];
      // Keep only nodes not already settled at a smaller level.
      bool any = false;
      for (const std::uint32_t w : comp.words) {
        const std::uint64_t fresh = f.word(w) & ~sc.visited.word(w);
        f.set_word(w, fresh);
        if (fresh != 0) any = true;
      }
      if (!any) continue;
      for (const std::uint32_t w : comp.words) {
        sc.visited.or_word(w, f.word(w));
        for_each_bit(w, f.word(w), [&](NodeId v) {
          sc.level[v] = base + lvl;
          if (v == stop_at) found = base + lvl;
        });
      }
      if (found != kNotFound) break;
      // Expand the settled frontier one hop; next level's `& ~visited`
      // filters re-reached nodes. ws.components carries step s's
      // adjacency, read-only and shared across shards.
      util::NodeSet& nf = sc.frontier[lvl + 1];
      bool expanded = false;
      for (const std::uint32_t w : comp.words)
        for_each_bit(w, f.word(w), [&](NodeId v) {
          for (const NodeId nb : ws.components.step_neighbors(v)) {
            nf.set(nb);
            expanded = true;
          }
        });
      if (expanded) top = std::max(top, lvl + 1);
    }

    // Sparse teardown: only the component's words were ever touched.
    for (std::uint32_t lvl = 0; lvl <= top && lvl < sc.frontier.size();
         ++lvl)
      for (const std::uint32_t w : comp.words) sc.frontier[lvl].set_word(w, 0);
    for (const std::uint32_t w : comp.words) sc.visited.set_word(w, 0);
    return found != kNotFound ? found : 0;
  }

  // --- Stage 3: the holder-incident relay --------------------------------

  /// Relays across the step's edges to a fixpoint so forwarding chains can
  /// cross several contacts within one step. Edges relay in
  /// detail::edge_order_key order, so the holder-incident worklist (edges
  /// with a holder endpoint, expanded as transfers mint new holders)
  /// replays the full edge list's decisions bit-exactly.
  void relay_step(graph::Step s) {
    step = s;
    auto& work = ws.work;
    work.clear();
    // When most nodes hold something the filtered scan saves nothing —
    // fall back to the complete edge list (same keys, same sort, so the
    // step's decisions are unchanged either way).
    edges_complete =
        !holder_incident || 4 * holder_nodes >= static_cast<std::uint64_t>(n);
    member_stamp = ++ws.stamp_gen;
    for (const graph::StepEdge& e : graph.edges(s)) {
      const NodeId a = std::min(e.a, e.b);
      const NodeId b = std::max(e.a, e.b);
      if (!edges_complete) {
        const bool ha = ws.holder_count[a] > 0;
        const bool hb = ws.holder_count[b] > 0;
        if (!ha && !hb) continue;
        // Holder endpoints are stamped: every edge incident to a stamped
        // node is in the worklist, which is the invariant expand_holder()
        // relies on.
        if (ha) ws.node_stamp[a] = member_stamp;
        if (hb) ws.node_stamp[b] = member_stamp;
      }
      work.push_back({detail::edge_order_key(request.seed, s, a, b), a, b,
                      traffic.contact_budget_bytes});
    }
    std::sort(work.begin(), work.end(), work_less);

    // Every delivery or transfer is one transmission, so a pass that adds
    // none is the fixpoint. Truncation is counted, not silent.
    bool converged = false;
    CounterValues before{};
    for (std::uint32_t pass = 0; pass < request.max_relay_passes; ++pass) {
      if (passes_repeat && pass > 0) {
        // A pass that ended where it started will repeat unchanged for
        // every pass left: add its deltas that many times instead. The
        // first record of a step is taken before pass 1, so from pass 2
        // on last_pass_record holds the previous pass's.
        record_pass_start(ws.pass_record);
        if (pass > 1 && ws.pass_record == ws.last_pass_record) {
          repeat_last_pass(request.max_relay_passes - pass, before);
          break;
        }
        std::swap(ws.pass_record, ws.last_pass_record);
      }
      for (std::size_t i = 0; i < before.size(); ++i)
        before[i] = result.*kCounters[i];
      for (std::size_t ei = 0; ei < work.size(); ++ei) {
        // Endpoints are re-read after each relay: a splice may shift the
        // current entry.
        relay_direction(work[ei].a, work[ei].b, ei);
        relay_direction(work[ei].b, work[ei].a, ei);
      }
      converged = result.transmissions == before[0];
      if (converged) break;
    }
    if (!converged) ++result.truncated_relay_steps;
    if (holder_incident) rearm_holders();
  }

  /// Writes the state a relay pass starts from: for each distinct
  /// worklist endpoint, in worklist order, its id, its live-resident
  /// count, then each live resident's id and hops in arrival order.
  void record_pass_start(std::vector<std::uint32_t>& record) {
    record.clear();
    const std::uint64_t seen = ++ws.stamp_gen;
    for (const WorkEdge& e : ws.work) {
      for (const NodeId v : {e.a, e.b}) {
        if (ws.record_stamp[v] == seen) continue;
        ws.record_stamp[v] = seen;
        record.push_back(v);
        const std::size_t count_at = record.size();
        record.push_back(0);
        for (const std::uint32_t id : ws.at_node[v]) {
          const auto& st = ws.states[id];
          if (st.delivered || st.expired || !st.holders.test(v)) continue;
          record.push_back(id);
          record.push_back(st.hops[v]);
          ++record[count_at];
        }
      }
    }
  }

  /// Adds `passes` more repeats of the pass that started from `before`.
  void repeat_last_pass(std::uint64_t passes, const CounterValues& before) {
    for (std::size_t i = 0; i < before.size(); ++i)
      result.*kCounters[i] += passes * (result.*kCounters[i] - before[i]);
  }

  /// Relays x's messages to y across worklist entry `ei` (advanced past
  /// any edges spliced in at or before it). Empty-list hoist: a relay from
  /// a holder-less node is a no-op, and most endpoints hold nothing.
  void relay_direction(NodeId x, NodeId y, std::size_t& ei) {
    if (ws.at_node[x].empty()) return;
    const bool y_held = holder_incident && ws.holder_count[y] > 0;
    relay(x, y, ei);
    if (holder_incident && !y_held && ws.holder_count[y] > 0)
      ei = expand_holder(y, ei);
  }

  void relay(NodeId x, NodeId y, std::size_t ei) {
    auto& work = ws.work;
    auto& list = ws.at_node[x];
    std::size_t k = 0;  // order-preserving compaction write cursor.
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint32_t id = list[i];
      auto& st = ws.states[id];
      // Lazily drop stale entries (delivered, expired, evicted, or moved
      // away).
      if (st.delivered || st.expired || !st.holders.test(x)) continue;
      const NodeId dest = messages[id].destination;
      const std::uint64_t sz = messages[id].size_bytes;
      if (y == dest) {
        // The final hop consumes contact budget like any transfer; a
        // blocked delivery stays queued for a later contact.
        if (work[ei].budget < sz) {
          ++result.budget_blocked;
          list[k++] = id;
          continue;
        }
        work[ei].budget -= sz;
        deliver(id, step, st.hops[x] + 1U);
        ++result.transmissions;
        continue;
      }
      if (!st.holders.test(y) &&
          algorithm.should_forward(x, y, dest, step,
                                   quota_scheme ? st.copies[x] : 1) &&
          admit(y, sz, ei, !quota_scheme || st.copies[x] > 1)) {
        st.holders.set(y);
        st.hops[y] = saturate_hops(st.hops[x] + 1U);
        ws.at_node[y].push_back(id);
        ++result.transmissions;
        if (quota_scheme) {
          // Binary spray: hand over half the remaining budget; the holder
          // keeps a copy while it has budget.
          const std::uint32_t give = st.copies[x] / 2;
          st.copies[x] -= give;
          st.copies[y] = give;
        } else if (!algorithm.replicates()) {
          if (capacity_limited)
            ws.store_bytes[x] -= sz;  // the single copy moves away.
          st.holders.reset(x);
          holder_lost(x);
          continue;  // the single copy moved away: drop from x.
        }
      }
      list[k++] = id;
    }
    list.resize(k);
  }

  /// Splices a freshly-minted holder's incident edges into the sorted
  /// worklist. Edges whose other endpoint is stamped are already present;
  /// a splice position at or before the caller's cursor lands the edge in
  /// the next pass — exactly where the full edge list, which passed over
  /// it as a no-op before y held anything, would first act on it. Returns
  /// the caller's adjusted cursor.
  std::size_t expand_holder(NodeId y, std::size_t ei) {
    if (edges_complete || ws.node_stamp[y] == member_stamp) return ei;
    auto& work = ws.work;
    for (const NodeId z : graph.neighbors(step, y)) {
      if (ws.node_stamp[z] == member_stamp) continue;
      const NodeId a = std::min(y, z);
      const NodeId b = std::max(y, z);
      const WorkEdge we{detail::edge_order_key(request.seed, step, a, b), a,
                        b, traffic.contact_budget_bytes};
      const auto it = std::lower_bound(work.begin(), work.end(), we, work_less);
      const auto pos = static_cast<std::size_t>(it - work.begin());
      work.insert(it, we);
      if (pos <= ei) ++ei;
    }
    ws.node_stamp[y] = member_stamp;
    return ei;
  }

  /// Re-arms every worklist endpoint that still holds something for its
  /// next contact. Worklist endpoints cover all candidates: a node that
  /// holds anything here either held it entering the step (its edges were
  /// filtered in) or received it across a worklist edge.
  void rearm_holders() {
    const std::uint64_t armed_stamp = ++ws.stamp_gen;
    for (const WorkEdge& e : ws.work) {
      for (const NodeId v : {e.a, e.b}) {
        if (ws.holder_count[v] == 0 || ws.node_stamp[v] == armed_stamp)
          continue;
        ws.node_stamp[v] = armed_stamp;
        arm_node(v, step);
      }
    }
  }

  // --- Stage 4: traffic accounting ---------------------------------------

  /// Whether y takes a copy of `sz` bytes across worklist entry `ei`. The
  /// checks run only for a transfer the algorithm wants (`wants`: quota
  /// schemes hand over copies only while budget remains), so the counters
  /// see only transfers that would actually happen. On admission the
  /// bytes are charged to y's buffer (evicting as needed) and the edge's
  /// budget, and y joins the holder tally.
  bool admit(NodeId y, std::uint64_t sz, std::size_t ei, bool wants) {
    if (!wants) return false;
    if (capacity_limited && sz > traffic.buffer_capacity_bytes) {
      ++result.buffer_rejections;
      return false;
    }
    // An unlimited budget (TrafficConfig::kUnlimited) never runs short.
    if (ws.work[ei].budget < sz) {
      ++result.budget_blocked;
      return false;
    }
    if (capacity_limited) {
      make_room(y, sz);
      ws.store_bytes[y] += sz;
    }
    ws.work[ei].budget -= sz;
    holder_gained(y);
    return true;
  }

  void holder_gained(NodeId v) {
    if (holder_incident && ws.holder_count[v]++ == 0) ++holder_nodes;
  }

  void holder_lost(NodeId v) {
    if (holder_incident && --ws.holder_count[v] == 0) --holder_nodes;
  }

  /// Every remaining copy of `id` stops counting against its holder's
  /// buffer and the holder tally (the copies themselves are removed lazily
  /// from the per-node lists).
  void release_copies(std::uint32_t id) {
    if (!capacity_limited && !holder_incident) return;
    const std::uint64_t sz = messages[id].size_bytes;
    ws.states[id].holders.for_each([&](std::uint32_t v) {
      if (capacity_limited) ws.store_bytes[v] -= sz;
      holder_lost(v);
    });
  }

  /// Marks `id` delivered at step s; a delivered message is inert. The
  /// final hop's transmission is the caller's to count. Touches only the
  /// message's own state and outcome slot on the flood path (which has no
  /// copies to release), so flood shards may call it concurrently.
  void deliver(std::uint32_t id, graph::Step s, std::uint32_t hops) {
    ws.states[id].delivered = true;
    result.outcomes[id] = {true, graph.step_end(s) - messages[id].created,
                           saturate_hops(hops)};
    release_copies(id);
  }

  /// Evicts resident copies at `node` until `incoming` more bytes fit, per
  /// the configured policy. Only called when incoming <= capacity, so it
  /// always succeeds: the per-node list holds every byte-accounted copy,
  /// and evicting all of them frees the whole buffer. Evicting the last
  /// copy of a message drops the message for good.
  void make_room(NodeId node, std::uint64_t incoming) {
    const std::uint64_t capacity = traffic.buffer_capacity_bytes;
    auto& stored = ws.store_bytes[node];
    if (stored + incoming <= capacity) return;
    auto& list = ws.at_node[node];
    // Compact away stale entries (delivered / expired / moved away) so
    // the victim scan sees exactly the live residents.
    std::erase_if(list, [&](std::uint32_t id) {
      const auto& st = ws.states[id];
      return st.delivered || st.expired || !st.holders.test(node);
    });
    // Whether resident l goes before resident r under a scan policy.
    const auto evicts_before = [&](std::uint32_t l, std::uint32_t r) {
      if (traffic.eviction == EvictionPolicy::kDropLargestHop) {
        const auto lh = ws.states[l].hops[node];
        const auto rh = ws.states[r].hops[node];
        if (lh != rh) return lh > rh;
      }
      const Message& a = messages[l];
      const Message& b = messages[r];
      return a.created < b.created || (a.created == b.created && a.id < b.id);
    };
    while (stored + incoming > capacity) {
      std::size_t victim = 0;
      if (traffic.eviction == EvictionPolicy::kRandom) {
        victim = rng.uniform_index(list.size());
      } else {
        for (std::size_t i = 1; i < list.size(); ++i)
          if (evicts_before(list[i], list[victim])) victim = i;
      }
      const std::uint32_t vid = list[victim];
      auto& vst = ws.states[vid];
      vst.holders.reset(node);
      stored -= messages[vid].size_bytes;
      ++result.evictions;
      holder_lost(node);
      // Order-preserving removal: the live order of every per-node list
      // is the canonical arrival order, which keeps victim draws and
      // algorithm callbacks subset-invariant.
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(victim));
      if (vst.holders.empty()) {
        vst.dropped = true;
        result.outcomes[vid].dropped = true;
        ++result.drops;
      }
    }
  }
};

}  // namespace

SimulationResult simulate(const SimulationRequest& request) {
  SimulatorWorkspace workspace;
  return simulate(request, workspace);
}

SimulationResult simulate(const SimulationRequest& request,
                          SimulatorWorkspace& workspace) {
  const bool has_ttl = detail::validate_request(request);
  return SimulationRun{request, workspace.internal_state(), has_ttl}.run();
}

}  // namespace psn::forward
