#include "psn/graph/space_time_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace psn::graph {

namespace {

bool edge_less(const StepEdge& lhs, const StepEdge& rhs) noexcept {
  return lhs.a != rhs.a ? lhs.a < rhs.a : lhs.b < rhs.b;
}

// The step interval [first, last] a contact is active in. A zero-length
// contact still occupies the step containing its start; a contact that
// ends exactly on a step boundary is not active in the following step.
std::pair<Step, Step> span_of(const trace::Contact& c, Seconds delta,
                              Step steps) noexcept {
  auto first = static_cast<Step>(std::floor(c.start / delta));
  const Seconds effective_end = std::max(c.end, c.start);
  auto last = static_cast<Step>(std::floor(effective_end / delta));
  if (effective_end > c.start &&
      std::floor(effective_end / delta) * delta == effective_end)
    last = last == 0 ? 0 : last - 1;
  first = std::min<Step>(first, steps - 1);
  last = std::min<Step>(last, steps - 1);
  return {first, last};
}

// Sorts one step's edge range and deduplicates it in place (several
// contacts between the same pair can overlap one step), compacting the
// unique edges to the front of the range. Returns the unique count.
// Shared verbatim by the serial and sharded builds, so the per-step edge
// content is identical by construction.
std::size_t sort_dedup_step(StepEdge* begin, StepEdge* end) noexcept {
  std::sort(begin, end, edge_less);
  StepEdge* write = begin;
  for (StepEdge* it = begin; it != end; ++it) {
    if (write != begin && (write - 1)->a == it->a && (write - 1)->b == it->b)
      continue;
    *write++ = *it;
  }
  return static_cast<std::size_t>(write - begin);
}

}  // namespace

SpaceTimeGraph::SpaceTimeGraph(const trace::ContactTrace& trace,
                               Seconds delta)
    : num_nodes_(trace.num_nodes()), delta_(delta) {
  if (delta <= 0.0)
    throw std::invalid_argument("SpaceTimeGraph: delta must be positive");
  num_steps_ =
      static_cast<Step>(std::max(1.0, std::ceil(trace.t_max() / delta_)));
  build_serial(trace);
}

SpaceTimeGraph::SpaceTimeGraph(const trace::ContactTrace& trace,
                               Seconds delta,
                               const util::ParallelFor& parallel)
    : num_nodes_(trace.num_nodes()), delta_(delta) {
  if (delta <= 0.0)
    throw std::invalid_argument("SpaceTimeGraph: delta must be positive");
  num_steps_ =
      static_cast<Step>(std::max(1.0, std::ceil(trace.t_max() / delta_)));
  if (!parallel)
    throw std::invalid_argument("SpaceTimeGraph: empty ParallelFor");
  build_sharded(trace, parallel);
}

void SpaceTimeGraph::build_serial(const trace::ContactTrace& trace) {
  const Step steps = num_steps_;

  // Pass 1: per-step occurrence counts -> edge arena offsets.
  edge_offsets_.assign(steps + std::size_t{1}, 0);
  for (const trace::Contact& c : trace.contacts()) {
    const auto [first, last] = span_of(c, delta_, steps);
    for (Step s = first; s <= last; ++s) ++edge_offsets_[s + 1];
  }
  for (Step s = 0; s < steps; ++s) edge_offsets_[s + 1] += edge_offsets_[s];

  // Pass 2: scatter every contact into the steps it overlaps.
  edges_.resize(edge_offsets_[steps]);
  {
    std::vector<std::size_t> cursor(edge_offsets_.begin(),
                                    edge_offsets_.end() - 1);
    for (const trace::Contact& c : trace.contacts()) {
      const auto [first, last] = span_of(c, delta_, steps);
      for (Step s = first; s <= last; ++s) edges_[cursor[s]++] = {c.a, c.b};
    }
  }

  // Pass 3: sort + deduplicate each step, compacting the arena in place.
  {
    std::size_t write = 0;
    std::size_t begin = 0;
    for (Step s = 0; s < steps; ++s) {
      const std::size_t end = edge_offsets_[s + 1];
      const std::size_t unique =
          sort_dedup_step(edges_.data() + begin, edges_.data() + end);
      std::copy(edges_.begin() + static_cast<std::ptrdiff_t>(begin),
                edges_.begin() + static_cast<std::ptrdiff_t>(begin + unique),
                edges_.begin() + static_cast<std::ptrdiff_t>(write));
      edge_offsets_[s] = write;  // old begin already consumed
      write += unique;
      begin = end;
    }
    edge_offsets_[steps] = write;
    edges_.resize(write);
    edges_.shrink_to_fit();
  }

  finish_edges();

  // New-contact flags: a step's edges and the previous step's edges are
  // both (a, b)-sorted, so one two-pointer merge per step marks exactly
  // the edges absent from step s-1 — the flat-array equivalent of
  // `s == 0 || !in_contact(s-1, a, b)`.
  new_edge_.assign(edges_.size(), 1);
  for (Step s = 1; s < steps; ++s) {
    std::size_t prev = edge_offsets_[s - 1];
    const std::size_t prev_end = edge_offsets_[s];
    for (std::size_t i = edge_offsets_[s]; i < edge_offsets_[s + 1]; ++i) {
      while (prev < prev_end && edge_less(edges_[prev], edges_[i])) ++prev;
      if (prev < prev_end && edges_[prev].a == edges_[i].a &&
          edges_[prev].b == edges_[i].b)
        new_edge_[i] = 0;
    }
  }

  // Pass 4: the delta-encoded adjacency stream + per-node timeline.
  build_adjacency();
}

void SpaceTimeGraph::build_sharded(const trace::ContactTrace& trace,
                                   const util::ParallelFor& parallel) {
  const Step steps = num_steps_;
  const auto& contacts = trace.contacts();
  const std::size_t num_contacts = contacts.size();

  // Shard geometry is a pure function of the input sizes — never of the
  // executor — so every executor produces identical arenas. Contact
  // shards are capped so the per-shard count tables stay small even for
  // finely discretized traces.
  std::size_t contact_shards =
      std::clamp<std::size_t>(num_contacts / 32768, 1, 64);
  contact_shards = std::min(
      contact_shards,
      std::max<std::size_t>(
          1, (std::size_t{64} << 20) / ((steps + 1) * sizeof(std::size_t))));
  const std::size_t step_shards = std::clamp<std::size_t>(steps / 16, 1, 64);
  const auto contact_range = [&](std::size_t shard) {
    return std::pair{num_contacts * shard / contact_shards,
                     num_contacts * (shard + 1) / contact_shards};
  };
  const auto step_range = [&](std::size_t shard) {
    return std::pair{static_cast<Step>(std::size_t{steps} * shard /
                                       step_shards),
                     static_cast<Step>(std::size_t{steps} * (shard + 1) /
                                       step_shards)};
  };

  // Pass 1 (parallel over contact ranges): per-shard per-step counts.
  std::vector<std::vector<std::size_t>> shard_counts(contact_shards);
  parallel(contact_shards, [&](std::size_t shard) {
    auto& counts = shard_counts[shard];
    counts.assign(steps, 0);
    const auto [lo, hi] = contact_range(shard);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto [first, last] = span_of(contacts[i], delta_, steps);
      for (Step s = first; s <= last; ++s) ++counts[s];
    }
  });

  // Merge by prefix sum: edge_offsets_ plus each shard's start cursor per
  // step. After this, shard j's contacts for step s occupy exactly the
  // positions the serial build would have given them (shards are
  // contiguous contact ranges in trace order), so the pre-sort arena —
  // not just the final one — matches the serial build byte for byte.
  edge_offsets_.assign(steps + std::size_t{1}, 0);
  for (Step s = 0; s < steps; ++s) {
    std::size_t running = edge_offsets_[s];
    for (std::size_t j = 0; j < contact_shards; ++j) {
      const std::size_t count = shard_counts[j][s];
      shard_counts[j][s] = running;  // becomes the shard's write cursor.
      running += count;
    }
    edge_offsets_[s + 1] = running;
  }

  // Pass 2 (parallel over contact ranges): scatter into disjoint slots.
  edges_.resize(edge_offsets_[steps]);
  parallel(contact_shards, [&](std::size_t shard) {
    auto& cursor = shard_counts[shard];
    const auto [lo, hi] = contact_range(shard);
    for (std::size_t i = lo; i < hi; ++i) {
      const trace::Contact& c = contacts[i];
      const auto [first, last] = span_of(c, delta_, steps);
      for (Step s = first; s <= last; ++s) edges_[cursor[s]++] = {c.a, c.b};
    }
  });
  shard_counts.clear();
  shard_counts.shrink_to_fit();

  // Pass 3 (parallel over step ranges): sort + dedup each step to the
  // front of its own slot range; the serial compaction below then closes
  // the gaps with forward copies (write never overtakes the source).
  std::vector<std::size_t> unique_counts(steps);
  parallel(step_shards, [&](std::size_t shard) {
    const auto [lo, hi] = step_range(shard);
    for (Step s = lo; s < hi; ++s)
      unique_counts[s] = sort_dedup_step(edges_.data() + edge_offsets_[s],
                                         edges_.data() + edge_offsets_[s + 1]);
  });
  {
    std::size_t write = 0;
    for (Step s = 0; s < steps; ++s) {
      const std::size_t begin = edge_offsets_[s];
      std::copy(
          edges_.begin() + static_cast<std::ptrdiff_t>(begin),
          edges_.begin() + static_cast<std::ptrdiff_t>(begin +
                                                       unique_counts[s]),
          edges_.begin() + static_cast<std::ptrdiff_t>(write));
      edge_offsets_[s] = write;
      write += unique_counts[s];
    }
    edge_offsets_[steps] = write;
    edges_.resize(write);
    edges_.shrink_to_fit();
  }

  finish_edges();

  // New-contact flags (parallel over step ranges): each step reads only
  // its own and the previous step's final edge ranges.
  new_edge_.assign(edges_.size(), 1);
  parallel(step_shards, [&](std::size_t shard) {
    const auto [lo, hi] = step_range(shard);
    for (Step s = std::max<Step>(lo, 1); s < hi; ++s) {
      std::size_t prev = edge_offsets_[s - 1];
      const std::size_t prev_end = edge_offsets_[s];
      for (std::size_t i = edge_offsets_[s]; i < edge_offsets_[s + 1]; ++i) {
        while (prev < prev_end && edge_less(edges_[prev], edges_[i])) ++prev;
        if (prev < prev_end && edges_[prev].a == edges_[i].a &&
            edges_[prev].b == edges_[i].b)
          new_edge_[i] = 0;
      }
    }
  });

  // Pass 4: the delta-encoded adjacency stream + per-node timeline. One
  // serial encode shared verbatim with the serial build, so the arenas
  // stay byte-identical by construction (the stream is a strictly
  // sequential append; parallelizing it would need a two-phase size
  // pass for little gain — the sort passes above dominate build time).
  build_adjacency();
}

void SpaceTimeGraph::build_adjacency() {
  constexpr std::uint32_t kMaxOffset = 0xFFFFFFFFu;
  adj_data_.clear();
  node_steps_.clear();
  node_adj_begin_.clear();

  // Groups are emitted in (step, node) order; the per-node CSR below
  // redistributes them to (node, step) — appending in ascending step
  // order per node without any sort.
  struct GroupRef {
    NodeId node;
    Step step;
    std::uint32_t begin;  ///< group start in adj_data_.
  };
  std::vector<GroupRef> groups;
  groups.reserve(edges_.size());  // lower bound: >= 1 group per 2 entries.

  const auto append = [this](std::uint32_t v) {
    if (v < 0xFFFFu) {
      adj_data_.push_back(static_cast<std::uint16_t>(v));
    } else {
      adj_data_.push_back(0xFFFFu);
      adj_data_.push_back(static_cast<std::uint16_t>(v & 0xFFFFu));
      adj_data_.push_back(static_cast<std::uint16_t>(v >> 16));
    }
  };

  std::vector<std::uint64_t> pairs;  // (node << 32) | neighbor, per step.
  for (const Step s : active_steps_) {
    const auto es = edges(s);
    pairs.clear();
    pairs.reserve(2 * es.size());
    for (const StepEdge& e : es) {
      pairs.push_back((static_cast<std::uint64_t>(e.a) << 32) | e.b);
      pairs.push_back((static_cast<std::uint64_t>(e.b) << 32) | e.a);
    }
    // Step edges are deduplicated, so the packed pairs are distinct; the
    // sort groups them by node with neighbors ascending — exactly the
    // encode order.
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t i = 0; i < pairs.size();) {
      const auto node = static_cast<NodeId>(pairs[i] >> 32);
      std::size_t j = i;
      while (j < pairs.size() && static_cast<NodeId>(pairs[j] >> 32) == node)
        ++j;
      if (adj_data_.size() > kMaxOffset ||
          groups.size() >= static_cast<std::size_t>(kMaxOffset))
        throw std::length_error(
            "SpaceTimeGraph: adjacency stream exceeds 32-bit addressing");
      groups.push_back({node, s, static_cast<std::uint32_t>(adj_data_.size())});
      append(static_cast<std::uint32_t>(j - i));  // count
      auto prev = static_cast<std::uint32_t>(pairs[i]);
      append(prev);  // first neighbor, absolute
      for (std::size_t k = i + 1; k < j; ++k) {
        const auto v = static_cast<std::uint32_t>(pairs[k]);
        append(v - prev - 1);  // gap - 1: adjacent ids cost one zero word
        prev = v;
      }
      i = j;
    }
  }
  adj_data_.shrink_to_fit();

  // Per-node CSR over the groups. Appended step-ascending above, so the
  // stable scatter leaves each node's timeline sorted.
  node_offsets_.assign(num_nodes_ + std::size_t{1}, 0);
  for (const GroupRef& g : groups) ++node_offsets_[g.node + 1];
  for (NodeId v = 0; v < num_nodes_; ++v)
    node_offsets_[v + 1] += node_offsets_[v];
  node_steps_.resize(groups.size());
  node_adj_begin_.resize(groups.size());
  std::vector<std::uint32_t> cursor(node_offsets_.begin(),
                                    node_offsets_.end() - 1);
  for (const GroupRef& g : groups) {
    const std::uint32_t at = cursor[g.node]++;
    node_steps_[at] = g.step;
    node_adj_begin_[at] = g.begin;
  }
}

void SpaceTimeGraph::finish_edges() {
  const Step steps = num_steps_;
  // The active-step index: after compaction, a step is on the event
  // timeline iff its edge range is non-empty. While walking, enforce the
  // 32-bit within-step adjacency offset bound (2^31 edges in one step —
  // unreachable without exhausting memory first, but never silent).
  active_steps_.clear();
  for (Step s = 0; s < steps; ++s) {
    const std::size_t step_edges = edge_offsets_[s + 1] - edge_offsets_[s];
    if (2 * step_edges >
        static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()))
      throw std::length_error(
          "SpaceTimeGraph: more than 2^31 contact edges in one step");
    if (step_edges > 0) active_steps_.push_back(s);
  }
  active_steps_.shrink_to_fit();
}

bool SpaceTimeGraph::arenas_identical(
    const SpaceTimeGraph& o) const noexcept {
  const auto edges_equal = [](const std::vector<StepEdge>& a,
                              const std::vector<StepEdge>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].a != b[i].a || a[i].b != b[i].b) return false;
    return true;
  };
  return num_nodes_ == o.num_nodes_ && delta_ == o.delta_ &&
         num_steps_ == o.num_steps_ && edge_offsets_ == o.edge_offsets_ &&
         edges_equal(edges_, o.edges_) && new_edge_ == o.new_edge_ &&
         adj_data_ == o.adj_data_ && node_offsets_ == o.node_offsets_ &&
         node_steps_ == o.node_steps_ &&
         node_adj_begin_ == o.node_adj_begin_ &&
         active_steps_ == o.active_steps_;
}

Step SpaceTimeGraph::step_of(Seconds t) const noexcept {
  if (!(t > 0.0)) return 0;  // also NaN.
  // Clamp in floating point: casting a quotient beyond Step's range (or
  // +inf) to Step is undefined behaviour.
  const Seconds last = static_cast<Seconds>(num_steps() - 1);
  return static_cast<Step>(std::min(std::floor(t / delta_), last));
}

Step SpaceTimeGraph::next_active_step(Step s) const noexcept {
  const auto it =
      std::lower_bound(active_steps_.begin(), active_steps_.end(), s);
  return it == active_steps_.end() ? num_steps_ : *it;
}

bool SpaceTimeGraph::in_contact(Step s, NodeId a, NodeId b) const noexcept {
  // Neighbor lists decode in ascending order, so a linear scan with
  // early exit beats binary search on the delta stream (no random
  // access) and typical contact degrees are tiny.
  for (const NodeId w : neighbors(s, a)) {
    if (w == b) return true;
    if (w > b) return false;
  }
  return false;
}

}  // namespace psn::graph
