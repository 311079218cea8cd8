#include "psn/paths/enumerator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace psn::paths {

// Implementation notes.
//
// Loop-free paths visit each node at most once, so a path's hop count is
// exactly |membership set| - 1 — the membership set alone determines
// everything the enumerator must decide later (which extensions are
// loop-free, how many hops, who holds the path). Two stored paths with the
// same membership set are therefore interchangeable and are pooled: each
// node keeps one Entry per membership set, whose multiplicity counts
// pooled paths (distinct visit orders and distinct time-variants — the
// same relay repeated on a persistent contact yields formally distinct
// paths differing only in timestamps; the paper's Fig. 3 algorithm
// generates and counts them all, and the multiplicities reproduce those
// counts without materializing each variant).
//
// A representative Path object (for Figs. 12/14/15, which need actual node
// sequences) is kept only when config.record_paths is set, in per-node
// repr pools parallel to the entry pools; otherwise entries are just a
// bitset plus counters, the repr pools stay empty, and the whole sweep
// does no per-path allocation.
//
// Determinism: every loop the enumerator runs iterates either the graph's
// sorted adjacency, the sorted active-node list, or an entry pool in
// insertion order; the membership hash indexes are probed, never iterated.
// Insertion order is itself a pure function of (graph, message, config),
// so results cannot depend on workspace history, hash-table layout, or
// which thread's workspace served the message — the property the parallel
// path sweep's bit-identical-at-any-thread-count guarantee rests on.

namespace {
constexpr std::uint32_t kEmptySlot = 0xffffffffu;
}  // namespace

/// One enumerate() call: the per-step pipeline over a workspace. Declared
/// a friend of EnumeratorWorkspace so the scratch structures stay private.
struct EnumerationRun {
  using Entry = EnumeratorWorkspace::Entry;
  using EntryIndex = EnumeratorWorkspace::EntryIndex;
  using NodeTable = EnumeratorWorkspace::NodeTable;

  const graph::SpaceTimeGraph& g;
  const EnumeratorConfig& config;
  EnumeratorWorkspace& ws;
  EnumerationResult& result;
  NodeId source;
  NodeId destination;

  std::uint64_t k = 0;              ///< config.k, widened once.
  bool recording = false;
  std::uint32_t per_step_admissions = 0;
  std::size_t record_cap = 0;
  Step current_step = 0;
  std::uint64_t total_stored = 0;  ///< network-wide stored multiplicity.
  std::uint64_t cumulative = 0;    ///< deliveries emitted to the result.

  // --- membership index: open addressing, probed but never iterated ---

  static std::uint32_t index_find(const EntryIndex& index,
                                  const std::vector<Entry>& pool,
                                  const util::NodeSet& key) {
    if (index.slots.empty()) return kEmptySlot;
    const std::size_t mask = index.slots.size() - 1;
    for (std::size_t i = util::NodeSetHash{}(key) & mask;;
         i = (i + 1) & mask) {
      const std::uint32_t slot = index.slots[i];
      if (slot == kEmptySlot) return kEmptySlot;
      if (pool[slot].members == key) return slot;
    }
  }

  static void index_place(EntryIndex& index, const std::vector<Entry>& pool,
                          std::uint32_t idx) {
    const std::size_t mask = index.slots.size() - 1;
    std::size_t i = util::NodeSetHash{}(pool[idx].members) & mask;
    while (index.slots[i] != kEmptySlot) i = (i + 1) & mask;
    index.slots[i] = idx;
  }

  /// Rebuilds the index over pool entries [0, live).
  static void index_rebuild(EntryIndex& index, const std::vector<Entry>& pool,
                            std::size_t live) {
    std::size_t cap = index.slots.size() < 16 ? 16 : index.slots.size();
    while (cap * 3 < (live + 1) * 4) cap *= 2;
    if (index.slots.size() != cap) index.slots.resize(cap);
    std::fill(index.slots.begin(), index.slots.end(), kEmptySlot);
    index.size = live;
    for (std::size_t i = 0; i < live; ++i)
      index_place(index, pool, static_cast<std::uint32_t>(i));
  }

  /// Registers the just-appended entry pool[live - 1].
  static void index_insert(EntryIndex& index, const std::vector<Entry>& pool,
                           std::size_t live) {
    if ((index.size + 1) * 4 > index.slots.size() * 3) {
      index_rebuild(index, pool, live);
      return;
    }
    index_place(index, pool, static_cast<std::uint32_t>(live - 1));
    ++index.size;
  }

  static void index_clear(EntryIndex& index) {
    std::fill(index.slots.begin(), index.slots.end(), kEmptySlot);
    index.size = 0;
  }

  // --- table helpers ---

  /// Marks v as used by this message so the next message resets only the
  /// tables that actually carry state.
  void touch(NodeId v) {
    NodeTable& t = ws.nodes_[v];
    if (t.touched_stamp == ws.message_stamp_) return;
    t.touched_stamp = ws.message_stamp_;
    ws.touched_.push_back(v);
  }

  /// Next live slot of a pool, recycling the Entry (and its NodeSet
  /// capacity) left by a previous message or step.
  static Entry& push_entry(std::vector<Entry>& pool, std::size_t& size) {
    if (size == pool.size()) pool.emplace_back();
    Entry& e = pool[size++];
    e.mult = 0;
    e.propagated = 0;
    e.hops = 0;
    return e;
  }

  /// Representative of slot i of the repr pool `reprs`; null when not
  /// recording (the pool is empty then).
  [[nodiscard]] const Path* repr_at(const std::vector<Path>& reprs,
                                    std::size_t i) const {
    return recording ? &reprs[i] : nullptr;
  }

  /// Moves entry slot `from` of the stored pool to slot `to`, keeping the
  /// repr pool parallel.
  void swap_stored(NodeTable& t, std::size_t to, std::size_t from) const {
    std::swap(t.stored[to], t.stored[from]);
    if (recording) std::swap(t.stored_repr[to], t.stored_repr[from]);
  }

  /// Shrinks the stored pool's live prefix (and its repr pool) to `live`.
  void truncate_stored(NodeTable& t, std::size_t live) const {
    t.stored_size = live;
    if (recording) t.stored_repr.resize(live);
  }

  [[nodiscard]] bool meets_dst(NodeId v) const noexcept {
    return ws.nodes_[v].meets_dst_stamp == ws.stamp_;
  }

  /// Per-step admission budget, initialized lazily on first use within
  /// the step (equivalent to resetting every node each step, without the
  /// O(nodes) sweep).
  std::uint32_t& budget(NodeTable& t) const {
    if (t.budget_stamp != ws.stamp_) {
      t.budget_stamp = ws.stamp_;
      t.admission_budget = per_step_admissions;
    }
    return t.admission_budget;
  }

  void enqueue(NodeId v) {
    NodeTable& t = ws.nodes_[v];
    if (t.queued_stamp == ws.stamp_) return;
    t.queued_stamp = ws.stamp_;
    ws.worklist_.push_back(v);
  }

  // --- deliveries ---

  /// Records a delivery whose full path is `prefix` + destination. The
  /// prefix path pointer may be null when not recording.
  void record_delivery(std::uint16_t prefix_hops, const Path* prefix,
                       std::uint64_t mult) {
    Delivery d;
    d.step = current_step;
    d.arrival = g.step_end(current_step);
    d.hops = static_cast<std::uint16_t>(prefix_hops + 1);
    d.count = mult;
    if (recording && prefix != nullptr && prefix->valid() &&
        ws.step_deliveries_.size() < record_cap)
      d.path = prefix->extend(destination, current_step);
    ws.step_deliveries_.push_back(std::move(d));
  }

  /// Offers `mult` paths with membership `members` (held by a neighbor of
  /// v; representative `repr`, may be null when not recording) to node v:
  /// delivery if v meets the destination, storage in v's fresh pool
  /// otherwise.
  void offer(const util::NodeSet& members, std::uint16_t prefix_hops,
             const Path* repr, std::uint64_t mult, NodeId v) {
    if (members.test(v)) return;  // loop avoidance
    if (v == destination) {
      record_delivery(prefix_hops, repr, mult);
      return;
    }
    if (meets_dst(v)) {
      // v would hand the message straight to the destination (minimal
      // progress) and must not retain it (first preference), so this
      // arrival becomes a delivery through v.
      if (recording && repr != nullptr && repr->valid() &&
          ws.step_deliveries_.size() < record_cap) {
        const Path through = repr->extend(v, current_step);
        record_delivery(static_cast<std::uint16_t>(prefix_hops + 1), &through,
                        mult);
      } else {
        record_delivery(static_cast<std::uint16_t>(prefix_hops + 1), nullptr,
                        mult);
      }
      return;
    }
    // First preference, network-wide: if the prefix passes through any
    // node that meets the destination this step, every delivery of a
    // continuation at a later step is invalid (that node should have
    // handed the message over now), so the extension must not be stored.
    // Same-step deliveries of such prefixes are produced by the branches
    // above.
    if (members.intersects(ws.dst_mask_)) return;
    NodeTable& t = ws.nodes_[v];
    // Saturation pre-check before touching the index: once a node holds k
    // paths (stored + fresh), only equal-or-shorter candidates can matter
    // (increments of existing sets or displacements).
    const auto hops = static_cast<std::uint16_t>(prefix_hops + 1);
    const bool full = t.stored_mult + t.fresh_mult >= k;
    if (full && hops > t.worst_hops) {
      result.effort.truncated_candidates += mult;
      return;
    }
    ws.probe_ = members;  // reuses the scratch set's storage when warm.
    ws.probe_.set(v);
    const std::uint32_t idx = index_find(t.fresh_index, t.fresh, ws.probe_);
    if (idx != kEmptySlot) {
      t.fresh[idx].mult += mult;
      t.fresh_mult += mult;
      enqueue(v);
      return;
    }
    // New set at v: admit if v is not saturated or the candidate beats
    // v's current worst retained hop count (the k-shortest rule; excess
    // is trimmed at the end-of-step merge), subject to the per-step
    // admission budget.
    if (full && hops >= t.worst_hops) {
      result.effort.truncated_candidates += mult;
      return;
    }
    std::uint32_t& remaining = budget(t);
    if (remaining == 0) {
      result.effort.truncated_candidates += mult;
      return;
    }
    --remaining;
    touch(v);
    Entry& e = push_entry(t.fresh, t.fresh_size);
    e.members = ws.probe_;
    e.hops = hops;
    e.mult = mult;
    if (recording) {
      Path& slot = t.fresh_repr.emplace_back();
      if (repr != nullptr && repr->valid())
        slot = repr->extend(v, current_step);
    }
    index_insert(t.fresh_index, t.fresh, t.fresh_size);
    t.fresh_mult += mult;
    if (hops > t.worst_hops) t.worst_hops = hops;
    if (t.freshened_stamp != ws.stamp_) {
      t.freshened_stamp = ws.stamp_;
      ws.fresh_nodes_.push_back(v);
    }
    enqueue(v);
  }

  // --- per-node end-of-step maintenance (phase 3) ---

  /// Purges first-preference violators, merges fresh arrivals into
  /// storage, and enforces the k bound at node u.
  void settle_node(NodeId u, bool dst_active) {
    NodeTable& t = ws.nodes_[u];
    bool dirty = false;

    // Purge: stored paths passing through a node that met the destination
    // this step can never yield a valid delivery again.
    if (dst_active && t.stored_size > 0) {
      std::size_t live = 0;
      for (std::size_t r = 0; r < t.stored_size; ++r) {
        Entry& e = t.stored[r];
        if (e.members.intersects(ws.dst_mask_)) {
          t.stored_mult -= e.mult;
          total_stored -= e.mult;
          dirty = true;
        } else {
          if (live != r) swap_stored(t, live, r);
          ++live;
        }
      }
      if (dirty) {
        truncate_stored(t, live);
        index_rebuild(t.stored_index, t.stored, live);
      }
    }

    // Merge fresh arrivals, in insertion order, into the stored pool.
    if (t.fresh_size > 0) {
      dirty = true;
      for (std::size_t i = 0; i < t.fresh_size; ++i) {
        Entry& f = t.fresh[i];
        const std::uint32_t idx =
            index_find(t.stored_index, t.stored, f.members);
        if (idx != kEmptySlot) {
          t.stored[idx].mult += f.mult;
        } else {
          Entry& e = push_entry(t.stored, t.stored_size);
          std::swap(e.members, f.members);  // recycle both slots' storage.
          if (recording) t.stored_repr.push_back(std::move(t.fresh_repr[i]));
          e.hops = f.hops;
          e.mult = f.mult;
          index_insert(t.stored_index, t.stored, t.stored_size);
        }
        t.stored_mult += f.mult;
        total_stored += f.mult;
      }
      t.fresh_size = 0;
      t.fresh_mult = 0;
      t.fresh_repr.clear();
      index_clear(t.fresh_index);
    }

    // Trim to the k shortest: shed multiplicity from the longest entries;
    // among equal hop counts the most recently admitted shed first.
    if (t.stored_mult > k) {
      auto& order = ws.trim_order_;
      order.clear();
      for (std::size_t i = 0; i < t.stored_size; ++i)
        order.push_back(static_cast<std::uint32_t>(i));
      std::sort(order.begin(), order.end(),
                [&t](std::uint32_t lhs, std::uint32_t rhs) {
                  if (t.stored[lhs].hops != t.stored[rhs].hops)
                    return t.stored[lhs].hops > t.stored[rhs].hops;
                  return lhs > rhs;
                });
      std::uint64_t excess = t.stored_mult - k;
      for (const std::uint32_t i : order) {
        if (excess == 0) break;
        Entry& e = t.stored[i];
        const std::uint64_t cut = std::min(excess, e.mult);
        e.mult -= cut;
        excess -= cut;
        result.effort.truncated_candidates += cut;
        total_stored -= cut;
      }
      std::size_t live = 0;
      for (std::size_t r = 0; r < t.stored_size; ++r) {
        if (t.stored[r].mult == 0) continue;
        if (live != r) swap_stored(t, live, r);
        ++live;
      }
      truncate_stored(t, live);
      index_rebuild(t.stored_index, t.stored, live);
      t.stored_mult = k;
    }

    if (dirty) {
      t.worst_hops = 0;
      for (std::size_t i = 0; i < t.stored_size; ++i)
        t.worst_hops = std::max(t.worst_hops, t.stored[i].hops);
    }
  }

  // --- the step body (identical under both replay modes) ---

  /// Replays step s; returns false when enumeration is finished (k
  /// deliveries reached, or no stored path anywhere can ever extend
  /// again).
  bool run_step(Step s) {
    current_step = s;
    ++ws.stamp_;
    ++result.effort.steps_replayed;
    ws.step_deliveries_.clear();
    ws.worklist_.clear();
    ws.worklist_head_ = 0;
    ws.fresh_nodes_.clear();

    // Nodes in direct contact with the destination this step.
    ws.dst_mask_.clear();
    const auto dst_neighbors = g.neighbors(s, destination);
    for (const NodeId v : dst_neighbors) {
      ws.nodes_[v].meets_dst_stamp = ws.stamp_;
      ws.dst_mask_.set(v);
    }
    const bool dst_active = !dst_neighbors.empty();

    for (const std::uint8_t flag : g.new_edge_flags(s))
      result.effort.contact_events += flag;

    // Canonical phase-1 order: ascending node id over nodes still holding
    // stored paths (exactly the nodes the historical full scan did work
    // for). Nodes emptied by earlier steps drop out here.
    auto& active = ws.active_;
    std::sort(active.begin(), active.end());
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](NodeId v) {
                                  NodeTable& t = ws.nodes_[v];
                                  if (t.stored_size > 0) return false;
                                  t.active_stamp = 0;
                                  return true;
                                }),
                 active.end());

    // Phase 1: stored paths propagate across this step's contact edges.
    for (const NodeId u : active) {
      NodeTable& t = ws.nodes_[u];
      const auto neighbors = g.neighbors(s, u);
      if (neighbors.empty()) continue;
      if (meets_dst(u)) {
        // Minimal progress: u hands everything it holds to the destination
        // and (first preference) retains nothing; no lateral copies.
        for (std::size_t i = 0; i < t.stored_size; ++i)
          record_delivery(t.stored[i].hops, repr_at(t.stored_repr, i),
                          t.stored[i].mult);
        total_stored -= t.stored_mult;
        truncate_stored(t, 0);
        t.stored_mult = 0;
        t.worst_hops = 0;
        index_clear(t.stored_index);
        continue;
      }
      for (std::size_t i = 0; i < t.stored_size; ++i) {
        const Entry& e = t.stored[i];
        const Path* repr = repr_at(t.stored_repr, i);
        for (const NodeId v : neighbors)
          offer(e.members, e.hops, repr, e.mult, v);
      }
    }

    // Phase 2: zero-weight closure — fresh arrivals keep propagating
    // within the same step until no node gains new multiplicity. The
    // dequeue budget bounds pathological cascades in very dense steps (a
    // message relayed through dozens of hops inside one 10 s step is a
    // discretization artifact, not behaviour worth unbounded work).
    std::uint64_t dequeue_budget =
        64ULL * static_cast<std::uint64_t>(g.num_nodes());
    while (ws.worklist_head_ < ws.worklist_.size() && dequeue_budget-- > 0) {
      const NodeId u = ws.worklist_[ws.worklist_head_++];
      NodeTable& t = ws.nodes_[u];
      t.queued_stamp = 0;
      const auto neighbors = g.neighbors(s, u);
      // offer() only mutates neighbors' fresh pools (v != u always), so
      // iterating u's own pool here is safe; if a longer loop-free route
      // later feeds multiplicity back into u, u is re-queued and the
      // `propagated` bookkeeping resumes exactly where it left off.
      for (std::size_t i = 0; i < t.fresh_size; ++i) {
        Entry& e = t.fresh[i];
        if (e.mult == e.propagated) continue;
        const std::uint64_t delta = e.mult - e.propagated;
        e.propagated = e.mult;
        const Path* repr = repr_at(t.fresh_repr, i);
        for (const NodeId v : neighbors)
          offer(e.members, e.hops, repr, delta, v);
      }
    }
    // If the budget ran out, clear the queued flags of abandoned nodes so
    // the next step's worklist starts clean.
    for (std::size_t i = ws.worklist_head_; i < ws.worklist_.size(); ++i)
      ws.nodes_[ws.worklist_[i]].queued_stamp = 0;

    // Phase 3: settle every node that holds or received paths. Active
    // nodes first (ascending), then nodes freshened into emptiness-to-life
    // this step (discovery order); per-node settling is independent, so
    // the split does not affect results.
    for (const NodeId u : active) settle_node(u, dst_active);
    for (const NodeId u : ws.fresh_nodes_) {
      NodeTable& t = ws.nodes_[u];
      if (t.active_stamp == ws.message_stamp_) continue;  // settled above.
      settle_node(u, dst_active);
      if (t.stored_size > 0) {
        t.active_stamp = ws.message_stamp_;
        ws.active_.push_back(u);
      }
    }

    if (total_stored > result.effort.peak_stored_paths)
      result.effort.peak_stored_paths = total_stored;

    if (!ws.step_deliveries_.empty()) {
      // Shorter paths first; stable, so ties keep the deterministic
      // discovery order.
      std::stable_sort(ws.step_deliveries_.begin(), ws.step_deliveries_.end(),
                       [](const Delivery& lhs, const Delivery& rhs) {
                         return lhs.hops < rhs.hops;
                       });
      // Record per-path granularity up to the k-th delivery; a dense step
      // can produce vastly more arrivals in the same instant, which are
      // pooled into one aggregate record (they share the arrival time, so
      // T_n for n <= k is unaffected and totals stay exact).
      std::size_t i = 0;
      for (; i < ws.step_deliveries_.size() && cumulative < k; ++i) {
        cumulative += ws.step_deliveries_[i].count;
        result.deliveries.push_back(std::move(ws.step_deliveries_[i]));
      }
      if (i < ws.step_deliveries_.size()) {
        Delivery rest;
        rest.step = s;
        rest.arrival = g.step_end(s);
        rest.hops = ws.step_deliveries_[i].hops;
        rest.count = 0;
        for (; i < ws.step_deliveries_.size(); ++i)
          rest.count += ws.step_deliveries_[i].count;
        cumulative += rest.count;
        result.deliveries.push_back(std::move(rest));
      }
      if (cumulative >= k) {
        result.reached_k = true;
        return false;
      }
    }

    // Exact early exit: with nothing stored anywhere, no offer can ever
    // happen again, so later steps are no-ops in both replay modes.
    return total_stored > 0;
  }

  void run() {
    k = config.k;
    recording = config.record_paths;
    per_step_admissions = static_cast<std::uint32_t>(
        std::min<std::size_t>(2 * config.k, 1u << 20));
    // Beyond this many recorded deliveries in one step, further paths are
    // counted but not materialized: only the k shortest ever reach the
    // caller, and a dense step can exceed k by orders of magnitude.
    record_cap = 4 * config.k;

    // Lazy reset: undo exactly what the previous message on this
    // workspace touched, then stamp a new message generation.
    ++ws.message_stamp_;
    if (ws.nodes_.size() < g.num_nodes()) ws.nodes_.resize(g.num_nodes());
    for (const NodeId v : ws.touched_) {
      NodeTable& t = ws.nodes_[v];
      t.stored_repr.clear();
      t.fresh_repr.clear();
      t.stored_size = 0;
      t.fresh_size = 0;
      t.stored_mult = 0;
      t.fresh_mult = 0;
      t.worst_hops = 0;
      index_clear(t.stored_index);
      index_clear(t.fresh_index);
    }
    ws.touched_.clear();
    ws.active_.clear();

    const Step start = g.step_of(result.t_start);

    // Seed the origin at the source.
    touch(source);
    NodeTable& st = ws.nodes_[source];
    Entry& origin = push_entry(st.stored, st.stored_size);
    origin.members.clear();
    origin.members.set(source);
    origin.mult = 1;
    origin.hops = 0;
    if (recording) st.stored_repr.push_back(Path::origin(source, start));
    index_insert(st.stored_index, st.stored, st.stored_size);
    st.stored_mult = 1;
    st.active_stamp = ws.message_stamp_;
    ws.active_.push_back(source);
    total_stored = 1;
    result.effort.peak_stored_paths = 1;

    if (config.replay == ReplayMode::kDense) {
      for (Step s = start; s < g.num_steps(); ++s)
        if (!run_step(s)) break;
    } else {
      const auto timeline = g.active_steps();
      const auto* it =
          std::lower_bound(timeline.data(), timeline.data() + timeline.size(),
                           start);
      for (; it != timeline.data() + timeline.size(); ++it)
        if (!run_step(*it)) break;
    }
  }
};

KPathEnumerator::KPathEnumerator(const graph::SpaceTimeGraph& graph,
                                 EnumeratorConfig config)
    : graph_(&graph), config_(config) {
  if (config_.k == 0)
    throw std::invalid_argument("KPathEnumerator: k must be positive");
}

std::optional<Seconds> EnumerationResult::duration_of(std::size_t n) const {
  if (n == 0) return std::nullopt;
  std::uint64_t cumulative = 0;
  for (const Delivery& d : deliveries) {
    cumulative += d.count;
    if (cumulative >= n) return d.arrival - t_start;
  }
  return std::nullopt;
}

std::optional<Seconds> EnumerationResult::time_to_explosion(
    std::size_t k) const {
  const auto t1 = duration_of(1);
  const auto tk = duration_of(k);
  if (!t1 || !tk) return std::nullopt;
  return *tk - *t1;
}

EnumerationResult KPathEnumerator::enumerate(NodeId source,
                                             NodeId destination,
                                             Seconds t_start) const {
  EnumeratorWorkspace workspace;
  return enumerate(source, destination, t_start, workspace);
}

EnumerationResult KPathEnumerator::enumerate(
    NodeId source, NodeId destination, Seconds t_start,
    EnumeratorWorkspace& workspace) const {
  const auto& g = *graph_;
  if (source >= g.num_nodes() || destination >= g.num_nodes())
    throw std::invalid_argument("enumerate: node id out of range");
  if (source == destination)
    throw std::invalid_argument("enumerate: source equals destination");

  EnumerationResult result;
  result.source = source;
  result.destination = destination;
  result.t_start = t_start;

  EnumerationRun run{g, config_, workspace, result, source, destination};
  run.run();
  return result;
}

}  // namespace psn::paths
