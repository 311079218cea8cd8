#include "psn/forward/reference.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <span>
#include <tuple>
#include <utility>

#include "psn/graph/components.hpp"
#include "psn/util/rng.hpp"

namespace psn::forward {
namespace {

std::uint16_t clamp_hops(std::uint32_t hops) {
  return static_cast<std::uint16_t>(std::min(hops, 0xFFFFU));
}

/// One copy of a message, at one node.
struct Copy {
  std::uint16_t hops = 0;
  std::uint32_t copies = 1;  ///< quota schemes: copies it may still spray.
};

struct ReferenceRun {
  const SimulationRequest& request;
  ForwardingAlgorithm& algorithm = *request.algorithm;
  const graph::SpaceTimeGraph& graph = *request.graph;
  const std::vector<Message>& messages = *request.messages;
  const TrafficConfig& traffic = request.traffic;
  std::uint32_t quota = 1;
  util::Rng rng{request.seed};
  SimulationResult result{};
  /// Per message: its copies by holding node (none once it is gone).
  std::vector<std::map<NodeId, Copy>> held =
      std::vector<std::map<NodeId, Copy>>(messages.size());
  /// Per node: the messages it holds, in arrival order.
  std::vector<std::vector<std::uint32_t>> residents =
      std::vector<std::vector<std::uint32_t>>(graph.num_nodes());

  SimulationResult run() {
    algorithm.reset();
    algorithm.prepare(graph, *request.trace);
    quota = algorithm.initial_copies();
    const bool flooding =
        algorithm.replicates() && quota == 0 && traffic.unconstrained();
    const bool observes = algorithm.observes_contacts();
    result.outcomes.assign(messages.size(), {});
    std::multimap<Seconds, std::uint32_t> pending;  // ties stay in id order.
    for (std::uint32_t id = 0; id < messages.size(); ++id)
      pending.emplace(messages[id].created, id);
    for (graph::Step s = 0; s < graph.num_steps(); ++s) {
      const auto edges = graph.edges(s);
      if (edges.empty()) continue;  // a contact-free step is a no-op.
      expire_until(static_cast<Seconds>(s) * graph.delta());
      while (!pending.empty() && graph.step_of(pending.begin()->first) <= s)
        activate(pending.extract(pending.begin()).mapped());
      const auto new_flags = graph.new_edge_flags(s);
      for (std::size_t i = 0; observes && i < edges.size(); ++i)
        algorithm.observe_contact(edges[i].a, edges[i].b, s,
                                  new_flags[i] != 0);
      if (flooding)
        flood_step(s, edges);
      else
        relay_step(s, edges);
    }
    if (graph.num_steps() > 0)
      expire_until(graph.step_end(graph.num_steps() - 1));
    return std::move(result);
  }

  void expire_until(Seconds threshold) {
    for (std::uint32_t id = 0; id < messages.size(); ++id) {
      MessageOutcome& o = result.outcomes[id];
      if (o.delivered || o.expired || o.dropped ||
          messages[id].expiry_time() > threshold)
        continue;
      o.expired = true;
      ++result.expirations;
      discard(id);
    }
  }

  void activate(std::uint32_t id) {
    const Message& message = messages[id];
    if (result.outcomes[id].expired) return;
    if (message.size_bytes > traffic.buffer_capacity_bytes) {
      ++result.buffer_rejections;
      result.outcomes[id].dropped = true;
      ++result.drops;
      return;
    }
    make_room(message.source, message.size_bytes);
    add_copy(message.source, id, {0, std::max(quota, 1U)});
  }

  void add_copy(NodeId v, std::uint32_t id, Copy copy) {
    held[id][v] = copy;
    residents[v].push_back(id);
  }
  void remove_copy(NodeId v, std::uint32_t id) {
    held[id].erase(v);
    std::erase(residents[v], id);
  }
  void discard(std::uint32_t id) {  // every copy of id, everywhere.
    for (const auto& [v, copy] : held[id]) std::erase(residents[v], id);
    held[id].clear();
  }
  void deliver(std::uint32_t id, graph::Step s, std::uint32_t hops) {
    result.outcomes[id] = {true, graph.step_end(s) - messages[id].created,
                           clamp_hops(hops)};
    ++result.transmissions;
    discard(id);
  }

  /// Evicts residents of `v` until `incoming` more bytes fit.
  void make_room(NodeId v, std::uint64_t incoming) {
    const std::vector<std::uint32_t>& list = residents[v];
    std::uint64_t stored = 0;
    for (const std::uint32_t id : list) stored += messages[id].size_bytes;
    const bool by_hops = traffic.eviction == EvictionPolicy::kDropLargestHop;
    const auto victim_key = [&](std::uint32_t id) {  // smallest goes first.
      return std::tuple(by_hops ? -int{held[id].at(v).hops} : 0,
                        messages[id].created, messages[id].id);
    };
    while (stored + incoming > traffic.buffer_capacity_bytes) {
      const std::uint32_t id =
          traffic.eviction == EvictionPolicy::kRandom
              ? list[rng.uniform_index(list.size())]
              : *std::ranges::min_element(list, std::less<>{}, victim_key);
      ++result.evictions;
      stored -= messages[id].size_bytes;
      remove_copy(v, id);
      if (held[id].empty()) {
        result.outcomes[id].dropped = true;
        ++result.drops;
      }
    }
  }

  void relay_step(graph::Step s, std::span<const graph::StepEdge> edges) {
    std::vector<std::tuple<std::uint64_t, NodeId, NodeId, std::uint64_t>>
        order;  // (order key, a, b, remaining budget), a < b.
    for (const graph::StepEdge& e : edges) {
      const NodeId a = std::min(e.a, e.b), b = std::max(e.a, e.b);
      order.emplace_back(detail::edge_order_key(request.seed, s, a, b), a, b,
                         traffic.contact_budget_bytes);
    }
    std::sort(order.begin(), order.end());
    for (std::uint32_t pass = 0; pass < request.max_relay_passes; ++pass) {
      const std::uint64_t before = result.transmissions;
      for (auto& [key, a, b, budget] : order) {
        relay(a, b, s, budget);
        relay(b, a, s, budget);
      }
      if (result.transmissions == before) return;  // nothing moved: fixpoint.
    }
    ++result.truncated_relay_steps;  // still changing after the last pass.
  }

  void relay(NodeId x, NodeId y, graph::Step s, std::uint64_t& budget) {
    for (const std::uint32_t id : std::vector(residents[x])) {
      Copy& copy = held[id].at(x);
      const std::uint64_t size = messages[id].size_bytes;
      const NodeId dest = messages[id].destination;
      // Meeting the destination always delivers; any other transfer is the
      // algorithm's decision, and a quota holder keeps its last copy.
      if (y != dest &&
          (held[id].contains(y) ||
           !algorithm.should_forward(x, y, dest, s, copy.copies) ||
           (quota > 1 && copy.copies <= 1)))
        continue;
      if (y != dest && size > traffic.buffer_capacity_bytes) {
        ++result.buffer_rejections;
        continue;
      }
      if (budget < size) {
        ++result.budget_blocked;
        continue;
      }
      budget -= size;
      if (y == dest) {
        deliver(id, s, copy.hops + 1U);
        continue;
      }
      make_room(y, size);
      const std::uint32_t give = quota > 1 ? copy.copies / 2 : 1;
      add_copy(y, id, {clamp_hops(copy.hops + 1U), give});
      ++result.transmissions;
      if (quota > 1)
        copy.copies -= give;  // binary spray: half the budget moves on.
      else if (!algorithm.replicates())
        remove_copy(x, id);
    }
  }

  /// A component with a copy ends the step with a copy at every member;
  /// the one at the destination is the delivery.
  void flood_step(graph::Step s, std::span<const graph::StepEdge> edges) {
    std::map<NodeId, std::vector<NodeId>> adj;
    for (const graph::StepEdge& e : edges) {
      adj[e.a].push_back(e.b);
      adj[e.b].push_back(e.a);
    }
    // Components keyed by their smallest member, in ascending order.
    const std::vector<NodeId> label = graph::components_at(graph, s);
    std::map<NodeId, std::vector<NodeId>> components;
    for (const auto& [v, unused] : adj) components[label[v]].push_back(v);
    for (std::uint32_t id = 0; id < messages.size(); ++id) {
      const NodeId dest = messages[id].destination;
      for (const auto& [root, members] : components) {
        if (held[id].empty()) break;  // delivered.
        // Multi-source BFS in order of level: holders enter at their own
        // hop counts, so level[v] is the fewest hops over any holder chain.
        using Entry = std::pair<std::uint32_t, NodeId>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
        for (const NodeId v : members)
          if (held[id].contains(v)) queue.emplace(held[id].at(v).hops, v);
        const std::size_t had = queue.size();
        const bool has_dest = label[dest] == root;
        if (had == 0 || (had == members.size() && !has_dest)) continue;
        std::map<NodeId, std::uint32_t> level;
        while (!queue.empty()) {
          const auto [l, v] = queue.top();
          queue.pop();
          if (!level.try_emplace(v, l).second) continue;
          for (const NodeId w : adj[v])
            if (!level.contains(w)) queue.emplace(l + 1, w);
        }
        for (const NodeId v : members)
          if (!held[id].contains(v) && v != dest)
            add_copy(v, id, {clamp_hops(level[v]), 1});
        result.transmissions += members.size() - had - (has_dest ? 1 : 0);
        if (has_dest) deliver(id, s, level[dest]);
      }
    }
  }
};

}  // namespace

SimulationResult simulate_reference(const SimulationRequest& request) {
  detail::validate_request(request);
  return ReferenceRun{request}.run();
}

}  // namespace psn::forward
