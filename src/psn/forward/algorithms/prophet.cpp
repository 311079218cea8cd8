#include "psn/forward/algorithms/prophet.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace psn::forward {

// ---------------------------------------------------------------- table ---

namespace {

/// Copies a merged row back into the row's own storage. Copying, not
/// swapping, keeps each allocation with its row: swapped scratch buffers
/// would carry a long row's capacity to a short one (2.4x the table's
/// memory on campus_512). Growing to powers of two keeps reallocations
/// rare and their sizes reusable by the allocator.
void store_row(const std::vector<ProphetTable::Cell>& merged,
               std::vector<ProphetTable::Cell>& row) {
  if (row.capacity() < merged.size())
    row.reserve(std::bit_ceil(merged.size()));
  row.assign(merged.begin(), merged.end());
}

}  // namespace

void ProphetTable::init(NodeId n, const ProphetParams& params) {
  params_ = params;
  rows_.resize(n);
  clear();
}

void ProphetTable::clear() {
  for (auto& row : rows_) row.clear();
  decay_.assign(1, 1.0);
}

double ProphetTable::decay(Step units) const {
  while (decay_.size() <= units)
    decay_.push_back(decay_.back() * params_.gamma);
  return decay_[units];
}

double ProphetTable::value(const Cell& cell, Step s) const {
  // Aging epochs align to aging-unit boundaries, so the decay since the
  // write depends only on the two steps — not on when reads happened.
  return cell.v * decay(s / params_.aging_unit - cell.w / params_.aging_unit);
}

double ProphetTable::read(NodeId x, NodeId c, Step s) const {
  const auto& row = rows_[x];
  const auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const Cell& cell, NodeId key) { return cell.c < key; });
  if (it == row.end() || it->c != c) return 0.0;
  return value(*it, s);
}

void ProphetTable::upsert(NodeId x, NodeId c, Step s, double v,
                          std::vector<Write>* log) {
  auto& row = rows_[x];
  const auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const Cell& cell, NodeId key) { return cell.c < key; });
  if (it != row.end() && it->c == c) {
    it->w = s;
    it->v = v;
  } else {
    row.insert(it, Cell{c, s, v});
  }
  if (log != nullptr) log->push_back(Write{x, c, s, v});
}

void ProphetTable::observe(NodeId a, NodeId b, Step s,
                           std::vector<Write>* log) {
  // Direct encounter updates, both directions, always stored.
  {
    const double old = read(a, b, s);
    upsert(a, b, s, old + (1.0 - old) * params_.p_init, log);
  }
  {
    const double old = read(b, a, s);
    upsert(b, a, s, old + (1.0 - old) * params_.p_init, log);
  }

  // Transitivity touches exactly the peers either endpoint already has a
  // cell for (any other candidate is a product with zero): one merge walk
  // over the two peer-sorted rows writes both updated rows into scratch.
  // Per peer, a-side then b-side — the b-side candidate deliberately
  // reads the a-side value just written (a fresh write decays by
  // gamma^0 = 1, so it reads back exactly), preserving the sequencing of
  // the eager row-by-row formulation — and (a,c) is logged before (b,c).
  const double p_ab = read(a, b, s);
  const double p_ba = read(b, a, s);
  const auto& ra = rows_[a];
  const auto& rb = rows_[b];
  next_a_.clear();
  next_b_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ra.size() || j < rb.size()) {
    const bool in_a = j == rb.size() || (i < ra.size() && ra[i].c <= rb[j].c);
    const bool in_b = i == ra.size() || (j < rb.size() && rb[j].c <= ra[i].c);
    const NodeId c = in_a ? ra[i].c : rb[j].c;
    if (c == a || c == b) {
      // The direct cells just written: carried over unchanged.
      if (in_a) next_a_.push_back(ra[i++]);
      if (in_b) next_b_.push_back(rb[j++]);
      continue;
    }
    const double rac = in_a ? value(ra[i], s) : 0.0;
    const double rbc = in_b ? value(rb[j], s) : 0.0;
    double rac_now = rac;
    const double cand_a = p_ab * rbc * params_.beta;
    if (cand_a >= params_.transitive_floor && cand_a > rac) {
      next_a_.push_back(Cell{c, s, cand_a});
      if (log != nullptr) log->push_back(Write{a, c, s, cand_a});
      rac_now = cand_a;
    } else if (in_a) {
      next_a_.push_back(ra[i]);
    }
    const double cand_b = p_ba * rac_now * params_.beta;
    if (cand_b >= params_.transitive_floor && cand_b > rbc) {
      next_b_.push_back(Cell{c, s, cand_b});
      if (log != nullptr) log->push_back(Write{b, c, s, cand_b});
    } else if (in_b) {
      next_b_.push_back(rb[j]);
    }
    if (in_a) ++i;
    if (in_b) ++j;
  }
  store_row(next_a_, rows_[a]);
  store_row(next_b_, rows_[b]);
}

// ------------------------------------------------------------- snapshot ---

ProphetSnapshot::ProphetSnapshot(const graph::SpaceTimeGraph& graph,
                                 const ProphetParams& params)
    : aging_unit_(params.aging_unit) {
  const NodeId n = graph.num_nodes();

  // Replay the trace's new-contact events through the same table the
  // per-run algorithm uses, in the same order the simulator feeds
  // observe_contact, recording every write — by column, so the CSR pass
  // below can release each column as soon as it is placed.
  ProphetTable table;
  table.init(n, params);
  std::vector<NodeId> log_x;
  std::vector<NodeId> log_c;
  std::vector<Step> log_step;
  std::vector<double> log_val;
  std::vector<ProphetTable::Write> event;
  for (const graph::Step s : graph.active_steps()) {
    const auto edges = graph.edges(s);
    const auto flags = graph.new_edge_flags(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (flags[i] == 0) continue;
      event.clear();
      table.observe(edges[i].a, edges[i].b, s, &event);
      for (const auto& w : event) {
        log_x.push_back(w.x);
        log_c.push_back(w.c);
        log_step.push_back(w.s);
        log_val.push_back(w.v);
      }
    }
  }

  // CSR by (node, peer) in two stable counting passes, written straight
  // into the cell arrays. First by node: writes were appended in
  // nondecreasing step order, so each node's range comes out
  // chronological. Each column is released once placed, so the log and
  // the cell arrays are never both whole in memory.
  node_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const NodeId x : log_x) ++node_offsets_[x + 1];
  for (NodeId v = 0; v < n; ++v) node_offsets_[v + 1] += node_offsets_[v];
  const auto place = [&](auto& column, auto& cells) {
    cells.resize(column.size());
    std::vector<std::uint64_t> next(node_offsets_.begin(),
                                    node_offsets_.end() - 1);
    for (std::size_t i = 0; i < column.size(); ++i)
      cells[next[log_x[i]]++] = column[i];
    column.clear();
    column.shrink_to_fit();
  };
  place(log_c, cell_c_);
  place(log_step, cell_step_);
  place(log_val, cell_val_);
  log_x.clear();
  log_x.shrink_to_fit();

  // Then by peer within each node. The table's final row x lists exactly
  // the peers ever written for x, in order, so it ranks them without a
  // sort; a counting pass over the ranks keeps each group chronological.
  std::vector<NodeId> rank(n);
  std::vector<std::uint64_t> start;
  std::vector<std::uint64_t> dest;  ///< per write of the node: new offset.
  const auto regroup = [&dest](auto& cells, std::uint64_t lo) {
    const auto* const first = cells.data() + lo;
    const std::vector group(first, first + dest.size());
    for (std::size_t k = 0; k < group.size(); ++k)
      cells[lo + dest[k]] = group[k];
  };
  for (NodeId x = 0; x < n; ++x) {
    const auto& row = table.row(x);
    if (row.size() < 2) continue;  // one peer: already grouped.
    for (NodeId r = 0; r < row.size(); ++r) rank[row[r].c] = r;
    const std::uint64_t lo = node_offsets_[x];
    const std::uint64_t hi = node_offsets_[x + 1];
    start.assign(row.size() + 1, 0);
    for (std::uint64_t k = lo; k < hi; ++k) ++start[rank[cell_c_[k]] + 1];
    for (std::size_t r = 0; r < row.size(); ++r) start[r + 1] += start[r];
    dest.resize(hi - lo);
    for (std::uint64_t k = lo; k < hi; ++k)
      dest[k - lo] = start[rank[cell_c_[k]]]++;
    regroup(cell_c_, lo);
    regroup(cell_step_, lo);
    regroup(cell_val_, lo);
  }

  // Precompute the whole decay table (the iterated product the per-run
  // table grows lazily) so queries are lock-free across sweep threads.
  const Step max_units =
      graph.num_steps() == 0
          ? 0
          : (static_cast<Step>(graph.num_steps()) - 1) / params.aging_unit;
  decay_.resize(static_cast<std::size_t>(max_units) + 1);
  decay_[0] = 1.0;
  for (std::size_t k = 1; k < decay_.size(); ++k)
    decay_[k] = decay_[k - 1] * params.gamma;
}

double ProphetSnapshot::query(NodeId x, NodeId c, Step s) const {
  const auto lo = static_cast<std::ptrdiff_t>(node_offsets_[x]);
  const auto hi = static_cast<std::ptrdiff_t>(node_offsets_[x + 1]);
  const auto cb = cell_c_.begin();
  const auto first = std::lower_bound(cb + lo, cb + hi, c);
  const auto last = std::upper_bound(first, cb + hi, c);
  if (first == last) return 0.0;
  const auto sb = cell_step_.begin();
  const auto it = std::upper_bound(sb + (first - cb), sb + (last - cb), s);
  if (it == sb + (first - cb)) return 0.0;
  const auto wi = static_cast<std::size_t>(it - sb) - 1;
  const Step units = s / aging_unit_ - cell_step_[wi] / aging_unit_;
  // Simulation steps never leave the precomputed window; a query decayed
  // past it is vanishingly small either way.
  const double d = units < decay_.size() ? decay_[units] : 0.0;
  return cell_val_[wi] * d;
}

std::uint64_t ProphetSnapshot::bytes() const {
  return node_offsets_.size() * sizeof(std::uint64_t) +
         cell_c_.size() * sizeof(NodeId) + cell_step_.size() * sizeof(Step) +
         cell_val_.size() * sizeof(double) + decay_.size() * sizeof(double);
}

// ------------------------------------------------------------ algorithm ---

void ProphetForwarding::prepare(const graph::SpaceTimeGraph& graph,
                                const trace::ContactTrace& /*trace*/) {
  n_ = graph.num_nodes();
  reset();
}

void ProphetForwarding::reset() {
  current_step_ = 0;
  if (snapshot_ != nullptr) return;
  table_.init(n_, params_);
}

void ProphetForwarding::observe_contact(NodeId a, NodeId b, Step s,
                                        bool new_contact) {
  current_step_ = std::max(current_step_, s);
  if (!new_contact || snapshot_ != nullptr) return;
  table_.observe(a, b, s);
}

bool ProphetForwarding::should_forward(NodeId holder, NodeId peer, NodeId dest,
                                       Step s, std::uint32_t /*copies*/) {
  current_step_ = std::max(current_step_, s);
  if (snapshot_ != nullptr)
    return snapshot_->query(peer, dest, s) > snapshot_->query(holder, dest, s);
  return table_.read(peer, dest, s) > table_.read(holder, dest, s);
}

std::string ProphetForwarding::shared_snapshot_key() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "prophet/p%.17g-b%.17g-g%.17g-u%u-f%.17g",
                params_.p_init, params_.beta, params_.gamma,
                static_cast<unsigned>(params_.aging_unit),
                params_.transitive_floor);
  return buf;
}

std::shared_ptr<const ObservationSnapshot> ProphetForwarding::
    build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                          const trace::ContactTrace& /*trace*/) const {
  return std::make_shared<ProphetSnapshot>(graph, params_);
}

void ProphetForwarding::adopt_shared_snapshot(
    std::shared_ptr<const ObservationSnapshot> snapshot) {
  snapshot_ =
      std::dynamic_pointer_cast<const ProphetSnapshot>(std::move(snapshot));
}

double ProphetForwarding::predictability(NodeId from, NodeId to) const {
  if (snapshot_ != nullptr) return snapshot_->query(from, to, current_step_);
  return table_.read(from, to, current_step_);
}

}  // namespace psn::forward
