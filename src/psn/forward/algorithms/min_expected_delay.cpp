#include "psn/forward/algorithms/min_expected_delay.hpp"

#include <limits>

#include "psn/trace/trace_stats.hpp"

namespace psn::forward {

ExpectedDelayMatrix::ExpectedDelayMatrix(const trace::ContactTrace& trace)
    : n_(trace.num_nodes()) {
  // Expected waiting time until the next meeting of a pair that meets at
  // i.i.d. intervals is half the mean inter-contact time under a uniformly
  // random query time; the constant factor does not change the metric's
  // ordering, so we use the mean itself as the edge weight.
  dist_ = trace::mean_intercontact_matrix(trace);
  const std::size_t n = n_;
  double* const d = dist_.data();
  for (std::size_t v = 0; v < n; ++v) d[v * n + v] = 0.0;

  // Floyd-Warshall over expected delays, in k, i, j order. Row k cannot
  // improve itself (d[k][k] = 0), so skipping i == k leaves every result
  // unchanged; the branch-free select is the same min the compare-and-
  // store computed, and lets the j loop vectorize.
  for (std::size_t k = 0; k < n; ++k) {
    const double* const rk = d + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == k) continue;
      double* const ri = d + i * n;
      const double dik = ri[k];
      if (dik == std::numeric_limits<double>::infinity()) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double c = dik + rk[j];
        ri[j] = c < ri[j] ? c : ri[j];
      }
    }
  }
}

void MinExpectedDelayForwarding::prepare(const graph::SpaceTimeGraph& /*graph*/,
                                         const trace::ContactTrace& trace) {
  if (adopted_) return;
  use(std::make_shared<const ExpectedDelayMatrix>(trace));
}

bool MinExpectedDelayForwarding::should_forward(NodeId holder, NodeId peer,
                                                NodeId dest, Step /*s*/,
                                                std::uint32_t /*copies*/) {
  return dist_[static_cast<std::size_t>(peer) * n_ + dest] <
         dist_[static_cast<std::size_t>(holder) * n_ + dest];
}

std::shared_ptr<const ObservationSnapshot>
MinExpectedDelayForwarding::build_shared_snapshot(
    const graph::SpaceTimeGraph& /*graph*/,
    const trace::ContactTrace& trace) const {
  return std::make_shared<const ExpectedDelayMatrix>(trace);
}

void MinExpectedDelayForwarding::adopt_shared_snapshot(
    std::shared_ptr<const ObservationSnapshot> snapshot) {
  use(std::dynamic_pointer_cast<const ExpectedDelayMatrix>(
      std::move(snapshot)));
  adopted_ = matrix_ != nullptr;
}

void MinExpectedDelayForwarding::use(
    std::shared_ptr<const ExpectedDelayMatrix> matrix) {
  matrix_ = std::move(matrix);
  dist_ = matrix_ != nullptr ? matrix_->data() : nullptr;
  n_ = matrix_ != nullptr ? matrix_->num_nodes() : 0;
}

}  // namespace psn::forward
