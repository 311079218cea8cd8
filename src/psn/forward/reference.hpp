// The reference forwarding simulator: simulate()'s semantics written for
// obviousness instead of speed. It replays every discretized step, relays
// across every contact edge, spreads floods node by node with a BFS hop
// settle, and keeps all of its state in locals. It shares only request
// validation and the per-(seed, step) edge-order key with simulate(),
// because those are semantics, not optimisations. The equivalence tests
// pin simulate() to it bit for bit: outcomes, delays, hop counts,
// transmissions, truncation and every traffic counter.

#pragma once

#include "psn/forward/simulator.hpp"

namespace psn::forward {

/// Runs the request like simulate(), without a workspace; the request's
/// `parallel` executor is ignored.
[[nodiscard]] SimulationResult simulate_reference(
    const SimulationRequest& request);

}  // namespace psn::forward
