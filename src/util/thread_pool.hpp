// Fixed-size worker pool with future-returning submission.
//
// Used by the workflow engine (Merlin substitute) to execute ensemble
// simulation tasks, and by tests exercising concurrent data-store traffic.
//
// Shutdown semantics (load-bearing for TSan-clean teardown, tested by
// tests/test_sanitize_stress.cpp):
//
//   * The destructor drains every task already enqueued — work accepted by
//     submit() is never dropped — then joins all workers.
//   * submit() racing with destruction either enqueues the task (it will
//     run) or throws ltfb::Error("ThreadPool::submit after shutdown"). It
//     never deadlocks and never silently discards the callable. Note that
//     the caller is still responsible for keeping the pool object alive for
//     the duration of the submit() call itself (the usual rule for any
//     member function vs. the destructor).
//   * wait_idle() returns only when the queue is empty AND no worker is
//     executing a task (a task counts as in flight from the moment it is
//     popped until its side effects are published under the pool mutex), so
//     results written by tasks are visible to the waiter without extra
//     synchronisation.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"

namespace ltfb::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one). `thread_name` labels the
  /// workers' trace tracks (telemetry::set_thread_name) in Chrome-trace
  /// exports.
  explicit ThreadPool(std::size_t num_threads,
                      std::string thread_name = "threadpool/worker");

  /// Drains remaining work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a callable; returns a future for its result. Throws
  /// ltfb::Error if the pool has begun shutting down (see file comment).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      const MutexLock lock(mutex_);
      if (stopping_) {
        throw Error("ThreadPool::submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
      LTFB_COUNTER_ADD("threadpool/tasks_submitted", 1);
      LTFB_GAUGE_SET("threadpool/queue_depth",
                     static_cast<double>(queue_.size()));
    }
    cv_.notify_one();
    return fut;
  }

  /// Blocks until the queue is empty and all workers are idle. A worker
  /// mid-task holds the pool non-idle until the task completes.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  // written only in the ctor
  std::string thread_name_;
  // Resolved by the constructing thread (see the constructor).
  const telemetry::Timer task_timer_;
  Mutex mutex_;
  std::deque<std::function<void()>> queue_ LTFB_GUARDED_BY(mutex_);
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ LTFB_GUARDED_BY(mutex_) = 0;
  bool stopping_ LTFB_GUARDED_BY(mutex_) = false;
};

}  // namespace ltfb::util
