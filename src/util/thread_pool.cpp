#include "util/thread_pool.hpp"

#include <algorithm>

namespace ltfb::util {

ThreadPool::ThreadPool(std::size_t num_threads, std::string thread_name)
    : thread_name_(std::move(thread_name)),
      task_timer_(telemetry::Registry::instance().timer("threadpool/task")) {
  // Workers must never be the first to run a function-local static
  // initializer or take the registry lock: a fork while one of them is
  // mid-initialization leaves the guard "pending" in the child, where any
  // thread reaching it waits forever. The timer handle is resolved above,
  // and the clock's epoch static is primed here, on the constructing thread.
  (void)telemetry::now_ns();
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::worker_loop() {
  telemetry::set_thread_name(thread_name_);
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) {
        cv_.wait(lock.native());
      }
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    {
      LTFB_SPAN("threadpool/task");
      const telemetry::ScopedTimer timed(task_timer_);
      task();
    }
    {
      const MutexLock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) {
    idle_cv_.wait(lock.native());
  }
}

}  // namespace ltfb::util
