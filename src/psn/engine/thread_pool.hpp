// A fixed-size worker pool for the sweep engine.
//
// Deliberately minimal: FIFO queue, no futures. Engine calls submit their
// tasks through a per-call TaskGroup and wait on that group alone, so
// several calls can share one pool at once (psn_serve runs concurrent
// batch groups this way); wait_idle() is the pool-wide barrier for
// callers that own the whole pool. Determinism in the sweep does not come
// from the pool (task completion order is arbitrary) but from result
// slots being addressed by plan index (see result_store.hpp); the pool
// only needs to run every task exactly once. Tasks submitted to the pool
// directly must not throw; a TaskGroup captures its tasks' exceptions.

#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "psn/util/parallel.hpp"
#include "psn/util/thread_annotations.hpp"

namespace psn::engine {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 is clamped to 1.
  explicit ThreadPool(std::size_t num_threads);

  /// Drains the queue (wait_idle) and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe to call from any thread, including workers.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Reasonable default thread count for this host (>= 1).
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  /// Written once by the constructor, joined by the destructor; read-only
  /// (size()) in between — never touched by worker threads.
  std::vector<std::thread> workers_;
  util::Mutex mu_;
  std::deque<std::function<void()>> queue_ PSN_GUARDED_BY(mu_);
  util::ConditionVariable work_cv_;
  util::ConditionVariable idle_cv_;
  std::size_t in_flight_ PSN_GUARDED_BY(mu_) = 0;
  bool stopping_ PSN_GUARDED_BY(mu_) = false;
};

/// A set of tasks on a shared pool that can be waited on by itself:
/// wait() returns once every task submitted through this group has run,
/// whatever else the pool holds. The first exception any task threw is
/// rethrown by wait(). The destructor waits too (without rethrowing), so
/// no task outlives the state its closure borrows. Like wait_idle(),
/// wait() must not be called from a task of the same pool: it blocks the
/// worker it runs on.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool as a member of this group.
  void submit(std::function<void()> task);

  /// Blocks until this group's tasks have run, then rethrows the first
  /// exception one of them threw.
  void wait();

 private:
  void wait_for_tasks();

  ThreadPool& pool_;
  util::Mutex mu_;
  util::ConditionVariable done_cv_;
  std::size_t pending_ PSN_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ PSN_GUARDED_BY(mu_);  // first failure.
};

/// Adapts `pool` to the util::ParallelFor contract. The caller thread
/// always participates: shards are handed out from a shared atomic
/// counter to the caller plus up to pool.size() helper tasks, so the
/// construct works from inside a pool worker (helpers queue behind other
/// work; the caller drains whatever they don't reach — no deadlock, no
/// dependence on pool progress) and degenerates to the serial executor
/// when the pool is busy or single-threaded. Shard results must not
/// depend on which thread ran them (the ParallelFor contract); the first
/// exception thrown by any shard is rethrown on the caller once every
/// shard has been attempted.
///
/// The returned closure borrows `pool`, which must outlive it.
[[nodiscard]] util::ParallelFor parallel_for(ThreadPool& pool);

}  // namespace psn::engine
