// Trace-driven forwarding simulator (paper §6.1), extended with the
// contended-forwarding traffic model (bandwidth budgets, bounded buffers,
// TTL — forward/traffic.hpp).
//
// simulate() is the one fast path. It replays the space-time graph's
// *event timeline*: only steps carrying at least one contact edge
// (graph::SpaceTimeGraph's active-step index) are visited, so per-run
// cost is proportional to contact events rather than to wall-clock steps.
// Flooding runs spread through each step's contact components with a
// word-parallel closure; the other schemes relay along holder-incident
// contacts whenever they keep no online contact history. A contact-free
// step is a complete no-op: message activation, TTL expiry, and
// forwarding all happen at the next active step — observationally
// identical to acting inside the gap, since holder state is only ever read
// where a contact edge exists. simulate_reference() (reference.hpp)
// replays every step and every edge node by node, and the equivalence
// tests pin simulate() to it bit for bit, drop/expiry/eviction events
// included.
//
// Within one step the simulator relays to a fixpoint: a forwarding chain
// can cross several contact edges in one step (the zero-weight closure of
// §4.1), which is what makes Epidemic achieve exactly the optimal
// delivery time T(sigma, delta, t1). Under bounded buffers Epidemic's
// copies can evict each other forever; a relay pass that ends in the
// state it started from is fast-forwarded to the pass bound, exactly
// (DESIGN.md §8, "Livelocked relay steps").
//
// Traffic semantics (DESIGN.md §8):
//  * TTL — a message is live during step s iff its expiry time
//    (created + ttl) is > the step's start; expiry is checked before the
//    step's first contact, so a TTL elapsing inside a skipped gap expires
//    the message exactly. Expiry frees every held copy.
//  * contact budget — each edge carries at most contact_budget_bytes per
//    step, pooled across directions and relay passes; a blocked transfer
//    is counted and retried at later contacts.
//  * bounded buffers — a node stores at most buffer_capacity_bytes;
//    admission evicts residents per the eviction policy, and evicting the
//    last copy of an undelivered message drops it for good.
// With every limit infinite (the defaults) the replay is bit-identical to
// the historical unconstrained simulator, including its RNG stream (the
// eviction stream draws only when an eviction actually happens).
//
// Modeling choices mirror the paper where unconstrained: zero transmission
// time, symmetric contacts, and minimal progress (delivery to an
// encountered destination is automatic and not delegated to the
// algorithm). Delivery frees every remaining copy of the message — the
// delivered-message-is-inert rule the unconstrained simulator always had,
// extended to buffer accounting.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "psn/forward/algorithm.hpp"
#include "psn/forward/message.hpp"
#include "psn/forward/traffic.hpp"
#include "psn/graph/components.hpp"
#include "psn/util/node_set.hpp"
#include "psn/util/parallel.hpp"

namespace psn::forward {

/// One fully-specified simulation: what to run (algorithm), over what
/// (graph + trace), with which workload (messages), under which traffic
/// limits, seeded with what. simulate() and simulate_reference() take the
/// same request; engine::run_sweep builds one per run. All pointers are
/// non-owning and must outlive the call, which validates them and throws
/// std::invalid_argument on nulls or malformed messages.
struct SimulationRequest {
  ForwardingAlgorithm* algorithm = nullptr;
  const graph::SpaceTimeGraph* graph = nullptr;
  const trace::ContactTrace* trace = nullptr;
  const std::vector<Message>* messages = nullptr;
  /// Bandwidth/buffer limits (defaults are unlimited — paper semantics).
  TrafficConfig traffic;
  /// Maximum relay passes within one step (a safety bound on the fixpoint
  /// loop; chains longer than this are truncated).
  std::uint32_t max_relay_passes = 128;
  /// Seed of the per-run stream: it keys the stateless per-(seed, step)
  /// edge-order hash (the tie-break among simultaneous forwarding
  /// opportunities — hashed per edge rather than shuffled, so any subset
  /// of a step's edges sorts into the same relative order) and, under
  /// EvictionPolicy::kRandom, the eviction victim draws.
  std::uint64_t seed = 1;
  /// Optional intra-run executor (non-owning; may be null). When set, the
  /// word-parallel flooding path fans each step's component closures out
  /// across live messages: per-message flood state is disjoint, outcome
  /// slots are addressed by message id, and per-shard transmission
  /// counters are reduced in fixed order, so results are bit-identical to
  /// the serial replay at any thread count. Ignored by the generic relay
  /// path (whose RNG-ordered edge scan is inherently sequential) and by
  /// simulate_reference().
  const util::ParallelFor* parallel = nullptr;
};

namespace detail {

/// The simulator's reusable scratch state. Internal: the layout is an
/// implementation detail of simulate() and may change at any release;
/// callers interact only with SimulatorWorkspace as an opaque handle
/// (which is what decouples workspace ownership — the sweep engine, tests,
/// drivers — from the simulator's internals without friend declarations).
struct SimulatorState {
  struct MessageState {
    util::NodeSet holders;
    std::vector<std::uint16_t> hops;    ///< per holding node.
    std::vector<std::uint32_t> copies;  ///< per holding node (quota schemes).
    bool delivered = false;
    bool active = false;   ///< activated (holder state initialized).
    bool expired = false;  ///< TTL elapsed; every copy discarded.
    bool dropped = false;  ///< last copy evicted; undeliverable.
  };

  /// One generic-path worklist entry: an edge tagged with its per-(seed,
  /// step) order key and its remaining per-step byte budget (shared by
  /// both directions and all relay passes). Endpoints are normalized
  /// a < b; the worklist sorts by (key, a, b) — a strict total order, so
  /// the holder-incident subset sorts into exactly the relative order it
  /// has inside the step's full edge list.
  struct WorkEdge {
    std::uint64_t key;
    NodeId a;
    NodeId b;
    std::uint64_t budget;
  };

  std::vector<MessageState> states;
  std::vector<std::uint32_t> order;  ///< message ids by creation time.
  std::vector<std::uint32_t> expiry_order;  ///< ids by expiry time.
  std::vector<std::vector<std::uint32_t>> at_node;  ///< generic-path lists.
  /// Activated floods not yet known to be delivered or expired (flooding
  /// runs only), compacted at every flood step.
  std::vector<std::uint32_t> active_msgs;
  /// Per-node buffer occupancy in bytes (bounded-buffer runs only).
  std::vector<std::uint64_t> store_bytes;
  /// The generic relay path's per-step edge worklist (see WorkEdge).
  std::vector<WorkEdge> work;
  /// Holder-incident scheduling state (non-flooding runs without online
  /// contact history). `holder_count[v]` counts live message copies node
  /// v holds; `node_stamp` is a generation-stamped per-node flag reused
  /// for both the worklist-membership and once-per-step-arming marks (two
  /// generations per processed step, monotone across runs — a warm
  /// workspace needs no re-zeroing); `heap` is the min-heap of packed
  /// (step << 32 | node) next-contact visits.
  std::vector<std::uint32_t> holder_count;
  std::vector<std::uint64_t> node_stamp;
  std::uint64_t stamp_gen = 0;
  std::vector<std::uint64_t> heap;
  /// Livelock detection on the relay path: the endpoint-dedupe stamps
  /// and the last two relay-pass start records (flood-class algorithms
  /// under bounded buffers only).
  std::vector<std::uint64_t> record_stamp;
  std::vector<std::uint32_t> pass_record;
  std::vector<std::uint32_t> last_pass_record;
  /// Per-step contact components (masks + nonzero-word lists) for the
  /// flood closure.
  graph::StepComponentScratch components;

  /// Flood hop-settle scratch, one per fan-out shard (slot 0 serves the
  /// serial path). Frontier/visited masks are cleared sparsely via the
  /// component's word list, so a settle costs O(component), never
  /// O(population).
  struct SettleScratch {
    std::vector<std::uint32_t> level;    ///< absolute hop level per node.
    util::NodeSet visited;               ///< settled nodes, this settle.
    std::vector<util::NodeSet> frontier; ///< per-relative-level seed masks.
  };
  std::vector<SettleScratch> settle;
  std::vector<std::size_t> shard_tx;    ///< per-shard transmission counts.
};

/// Throws std::invalid_argument unless `request` is well formed (non-null
/// fields; in-range, distinct endpoints; nonzero sizes; finite creation
/// times; non-negative TTLs). Returns whether any message has a finite
/// TTL. Shared by simulate() and simulate_reference().
bool validate_request(const SimulationRequest& request);

/// The order key of contact edge {a, b}, a < b, at step s: each step
/// relays its edges in ascending (key, a, b) order, so any subset of a
/// step's edges sorts into the same relative order. Shared by simulate()
/// and simulate_reference().
[[nodiscard]] std::uint64_t edge_order_key(std::uint64_t seed, graph::Step s,
                                           NodeId a, NodeId b) noexcept;

}  // namespace detail

/// Reusable simulator scratch: per-message holder sets and hop arrays,
/// per-node message lists and buffer occupancy, the flooding path's
/// hop-settle and component scratch, and the per-step edge worklist. A
/// workspace warmed by one run lets subsequent runs execute without heap
/// allocation (capacities are retained, never shrunk), which is why the
/// sweep engine owns one per worker thread.
///
/// Not thread-safe: one workspace serves one simulate() call at a time.
/// Any population/workload size is accepted — the workspace grows to the
/// largest run it has served. Contents are internal to simulate().
class SimulatorWorkspace {
 public:
  SimulatorWorkspace() = default;
  SimulatorWorkspace(const SimulatorWorkspace&) = delete;
  SimulatorWorkspace& operator=(const SimulatorWorkspace&) = delete;
  SimulatorWorkspace(SimulatorWorkspace&&) = default;
  SimulatorWorkspace& operator=(SimulatorWorkspace&&) = default;

  /// The simulator's view of the scratch state. Internal — not a stable
  /// API surface; exists so simulate() needs no friend declaration.
  [[nodiscard]] detail::SimulatorState& internal_state() noexcept {
    return state_;
  }

 private:
  detail::SimulatorState state_;
};

/// Runs the request. The trace is handed to the algorithm's prepare() for
/// oracle knowledge; the algorithm's reset() is called before the run.
[[nodiscard]] SimulationResult simulate(const SimulationRequest& request);

/// As above, reusing the caller's workspace so repeated runs (a sweep's
/// steady state) allocate nothing once the workspace is warm. The
/// workspace never influences results (asserted by forward_test's
/// workspace-reuse equivalence).
[[nodiscard]] SimulationResult simulate(const SimulationRequest& request,
                                        SimulatorWorkspace& workspace);

}  // namespace psn::forward
