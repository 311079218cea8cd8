// Dynamic Programming / Minimum Expected Delay (paper §6.1, after Jain,
// Fall & Patra's MED and Jones et al.'s MEED): compute the expected delay
// between every pair of nodes from their mean inter-contact times over the
// whole trace (past and future knowledge), run all-pairs shortest path on
// that metric, and forward when the peer is strictly closer (in expected
// delay) to the destination than the holder is.
//
// The all-pairs matrix is a pure function of the trace, so it is shared
// through the snapshot protocol (algorithm.hpp): one build per scenario
// serves every run, and an adopted instance's prepare() does nothing.
// Unadopted, prepare() builds the same matrix with the same function.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

/// Immutable all-pairs expected delays for one scenario, row-major.
class ExpectedDelayMatrix final : public ObservationSnapshot {
 public:
  explicit ExpectedDelayMatrix(const trace::ContactTrace& trace);

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  [[nodiscard]] const double* data() const noexcept { return dist_.data(); }
  [[nodiscard]] std::uint64_t bytes() const override {
    return dist_.size() * sizeof(double);
  }

 private:
  std::vector<double> dist_;
  NodeId n_ = 0;
};

class MinExpectedDelayForwarding final : public ForwardingAlgorithm {
 public:
  /// The one snapshot key: the matrix depends on no parameter.
  static constexpr const char* kKey = "expected-delay-matrix";

  [[nodiscard]] std::string name() const override {
    return "Dynamic Programming";
  }
  [[nodiscard]] bool replicates() const override { return false; }
  [[nodiscard]] bool observes_contacts() const override { return false; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

  [[nodiscard]] std::string shared_snapshot_key() const override {
    return kKey;
  }
  [[nodiscard]] std::shared_ptr<const ObservationSnapshot>
  build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                        const trace::ContactTrace& trace) const override;
  void adopt_shared_snapshot(
      std::shared_ptr<const ObservationSnapshot> snapshot) override;

  /// Expected-delay distance between two nodes (for tests/inspection).
  [[nodiscard]] double distance(NodeId from, NodeId to) const noexcept {
    return dist_[static_cast<std::size_t>(from) * n_ + to];
  }

 private:
  void use(std::shared_ptr<const ExpectedDelayMatrix> matrix);

  std::shared_ptr<const ExpectedDelayMatrix> matrix_;
  bool adopted_ = false;
  const double* dist_ = nullptr;  ///< matrix_->data(), row-major.
  NodeId n_ = 0;
};

}  // namespace psn::forward
