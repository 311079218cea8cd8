// ErrorSlot: first-exception capture for fan-outs submitted to a
// ThreadPool directly. Tasks call capture() from a catch-all; the
// submitting thread rethrows after the pool's wait_idle(). The engine
// sweeps do not need it: a TaskGroup (thread_pool.hpp) captures its own
// tasks' exceptions and rethrows from wait().

#pragma once

#include <exception>

#include "psn/util/thread_annotations.hpp"

namespace psn::engine {

/// First exception thrown by any task, kept for rethrow on the caller.
class ErrorSlot {
 public:
  void capture() noexcept {
    util::LockGuard lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
  void rethrow_if_set() {
    util::LockGuard lock(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  util::Mutex mu_;
  std::exception_ptr error_ PSN_GUARDED_BY(mu_);
};

}  // namespace psn::engine
