// PRoPHET (Lindgren, Doria & Schelen, cited as [12]): probabilistic routing
// using delivery predictabilities. Each node maintains P(x, y) in [0, 1]:
//  * on an encounter: P(a,b) <- P(a,b) + (1 - P(a,b)) * P_init;
//  * aging: P <- P * gamma^(elapsed aging units);
//  * transitivity: P(a,c) <- max(P(a,c), P(a,b) * P(b,c) * beta).
// A message is copied to a peer whose predictability for the destination
// exceeds the holder's.
//
// Representation: sparse per-node rows of (peer, write-step, value) cells
// with *lazy* aging — a read decays the stored value by gamma^(units(s) -
// units(w)) from a memoized iterated-product table instead of eagerly
// multiplying whole rows. Aging epochs always align to aging-unit
// boundaries (the eager implementation only ever advanced its clock in
// whole units), so the decay between a write and a read is
// path-independent and the lazy table is an exact reformulation — not an
// approximation. The one new knob is `transitive_floor`: transitive
// updates below it are not stored, which bounds row sizes (and with them
// the shared snapshot) at scale.
//
// The same ProphetTable drives both the per-run algorithm and the
// ProphetSnapshot builder; the snapshot records every write the table
// makes and answers "value of P(x, c) as of step s" by looking up the
// last write at or before s. Identical code making identical write
// decisions is what makes adopted (snapshot-backed) runs bit-identical
// to per-run replay.
//
// An encounter's transitivity update is one merge walk over the two
// endpoints' peer-sorted rows into scratch rows that are copied back, so
// it costs O(|row a| + |row b|) with no per-peer searches or inserts.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

struct ProphetParams {
  double p_init = 0.75;
  double beta = 0.25;
  double gamma = 0.98;  ///< per aging unit.
  Step aging_unit = 6;  ///< steps per aging application (~1 min at 10 s).
  /// Transitive updates below this value are dropped instead of stored.
  /// Direct encounter updates are always stored. Bounds the sparse rows
  /// (and the shared snapshot) at scale; 0 stores everything.
  double transitive_floor = 0.05;
};

/// The predictability state machine, shared by the per-run algorithm and
/// the snapshot builder (see the file comment for why that sharing is
/// what guarantees bit-identity).
class ProphetTable {
 public:
  /// One recorded mutation: P(x, c) became v at step s.
  struct Write {
    NodeId x;
    NodeId c;
    Step s;
    double v;
  };

  /// P(x, c) = v as of step w, for one peer c of a row.
  struct Cell {
    NodeId c;
    Step w;  ///< step of the last write.
    double v;
  };

  void init(NodeId n, const ProphetParams& params);
  /// Clears all rows (capacity retained) for another run.
  void clear();

  /// Applies one new-contact event at step s, optionally recording every
  /// write it makes (writes are appended in call order).
  void observe(NodeId a, NodeId b, Step s, std::vector<Write>* log = nullptr);

  /// P(x, c) as of step s (lazily decayed from the last write).
  [[nodiscard]] double read(NodeId x, NodeId c, Step s) const;

  /// gamma^units as an iterated product, memoized. Exposed so the
  /// snapshot can decay recorded writes with bit-identical arithmetic.
  [[nodiscard]] double decay(Step units) const;

  /// Node x's cells, sorted by peer: every peer ever written for x (cells
  /// are updated in place, never removed).
  [[nodiscard]] const std::vector<Cell>& row(NodeId x) const {
    return rows_[x];
  }

 private:
  /// The cell's value decayed to step s.
  [[nodiscard]] double value(const Cell& cell, Step s) const;
  void upsert(NodeId x, NodeId c, Step s, double v, std::vector<Write>* log);

  std::vector<std::vector<Cell>> rows_;
  /// decay_[k] = gamma^k, grown on demand (iterated product — appending
  /// is deterministic whatever the read order, so lazy growth is safe in
  /// the single-threaded per-run table).
  mutable std::vector<double> decay_;
  /// observe()'s merge output for rows a and b, copied back at its end.
  std::vector<Cell> next_a_;
  std::vector<Cell> next_b_;
  ProphetParams params_;
};

/// Immutable step-indexed PRoPHET predictabilities for one scenario: the
/// full write history of a ProphetTable replay of the trace, CSR-indexed
/// by (node, peer), queryable as of any step. Thread-safe after
/// construction (the decay table is precomputed over the whole window).
class ProphetSnapshot final : public ObservationSnapshot {
 public:
  ProphetSnapshot(const graph::SpaceTimeGraph& graph,
                  const ProphetParams& params);

  /// P(x, c) as of step s: the last recorded write at or before s,
  /// decayed to s. Matches ProphetTable::read after the same events.
  [[nodiscard]] double query(NodeId x, NodeId c, Step s) const;

  [[nodiscard]] std::uint64_t bytes() const override;

 private:
  /// Node x's writes occupy [node_offsets_[x], node_offsets_[x + 1]),
  /// grouped by peer c, chronological within a group.
  std::vector<std::uint64_t> node_offsets_;
  std::vector<NodeId> cell_c_;
  std::vector<Step> cell_step_;
  std::vector<double> cell_val_;
  std::vector<double> decay_;  ///< gamma^k for every reachable k.
  Step aging_unit_ = 1;
};

class ProphetForwarding final : public ForwardingAlgorithm {
 public:
  explicit ProphetForwarding(ProphetParams params = {}) : params_(params) {}

  [[nodiscard]] std::string name() const override { return "PRoPHET"; }
  [[nodiscard]] bool replicates() const override { return true; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  void reset() override;
  void observe_contact(NodeId a, NodeId b, Step s, bool new_contact) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

  /// Shared-snapshot protocol: the key carries every parameter the
  /// predictabilities depend on, so differently-tuned instances never
  /// share state.
  [[nodiscard]] std::string shared_snapshot_key() const override;
  [[nodiscard]] std::shared_ptr<const ObservationSnapshot>
  build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                        const trace::ContactTrace& trace) const override;
  void adopt_shared_snapshot(
      std::shared_ptr<const ObservationSnapshot> snapshot) override;
  [[nodiscard]] bool observes_contacts() const override {
    return snapshot_ == nullptr;
  }

  /// P(from, to) as of the latest step this instance has seen (through
  /// either observe_contact or should_forward) — test/diagnostic surface.
  [[nodiscard]] double predictability(NodeId from, NodeId to) const;

 private:
  ProphetParams params_;
  ProphetTable table_;
  std::shared_ptr<const ProphetSnapshot> snapshot_;
  Step current_step_ = 0;
  NodeId n_ = 0;
};

}  // namespace psn::forward
