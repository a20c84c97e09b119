// Compute threads for data-parallel kernels: one process-wide pool plus a
// private share per World rank.
//
// The tensor kernels (gemm, the large elementwise ops) and the optimizer
// update loops all dispatch through ComputePool::instance().run_tasks() —
// the in-node analogue of LBANN spreading a trainer's math across cores
// while the comm substrate spreads it across ranks. Where the tasks run
// depends on the calling thread:
//
//   * A World rank (World::run_ranks threads, spawned rank processes) has a
//     ComputeShare bound: a slice of the host budget, rank_share(budget,
//     ranks), with its own lazily started workers. Ranks never compete for
//     one queue, and a rank whose share is 1 computes inline on its own
//     thread. This mirrors the paper's one-device-per-rank layout.
//   * Any other thread (tests, bench drivers, LocalLtfbDriver) uses the
//     process-wide pool, sized by LTFB_COMPUTE_THREADS (default: the CPUs
//     in the process's affinity mask, capped).
//
// Either way a size-s dispatch runs on s threads: the caller plus s-1
// workers, all claiming jobs from one queue. Size 1 is a true serial
// fallback that never touches a worker thread.
//
// Determinism contract (load-bearing for LTFB's bit-identical resume and
// the cross-rank weight-sync checks): callers partition their work into
// tasks whose boundaries do NOT depend on the pool size, and every task
// writes disjoint state. The pool only changes WHERE a task runs, never
// what it computes or how results combine, so a kernel run at size 1, 3,
// or 8 — process-wide or in a rank share — produces bit-identical output
// (tested in tests/test_tensor.cpp and tests/test_compute_share.cpp).
//
// Nested use: a task that calls back into run_tasks() — on a worker or on
// the participating caller — executes inline (no re-submission), so kernels
// may freely compose, e.g. gemm calling tensor::scale, without deadlock.
//
// Fork: a child process inherits the parent's pool objects but none of
// their worker threads. Spawned ranks bind a fresh share before running
// any kernel, and unbound threads of a forked child run every dispatch
// inline, so nothing ever waits on a worker that does not exist.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "util/annotations.hpp"

namespace ltfb::util {

class ThreadPool;

class ComputePool {
 public:
  /// The process-wide pool, created on first use with env_threads() threads.
  static ComputePool& instance();

  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  /// Threads a dispatch from an unbound thread runs on (>= 1). Size 1
  /// means every call runs inline.
  std::size_t size() const;

  /// Re-sizes the process-wide pool (tests and benches sweeping pool
  /// sizes). Callers must be quiescent: no run_tasks() may be in flight on
  /// another unbound thread. Rank shares are not affected.
  void resize(std::size_t threads);

  /// Runs fn(task_index) for every index in [0, tasks), on the calling
  /// thread's rank share when one is bound and on the process-wide pool
  /// otherwise. Executes inline when the chosen size is 1, the caller is
  /// already running a pooled task, or there is at most one task. Blocks
  /// until every task has completed; the first exception thrown by a task
  /// is rethrown after all tasks finish. fn must write disjoint state per
  /// index (see the determinism contract above).
  void run_tasks(std::size_t tasks,
                 const std::function<void(std::size_t)>& fn);

  /// Chunked helper for elementwise kernels: splits [0, n) into
  /// `grain`-sized ranges — boundaries depend only on n and grain, never on
  /// the pool size — and runs fn(begin, end) for each.
  void parallel_ranges(std::size_t n, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// The host's compute budget: LTFB_COMPUTE_THREADS, or when unset the
  /// number of CPUs the process may run on (its affinity mask), capped.
  static std::size_t env_threads();

  /// Threads each of `ranks` ranks on one host gets from a budget of
  /// `budget` threads: max(1, budget / ranks).
  static std::size_t rank_share(std::size_t budget, std::size_t ranks) noexcept;

 private:
  ComputePool();
  ~ComputePool();

  mutable Mutex mutex_;
  // threads_ - 1 workers, started by the first dispatch that needs them;
  // null until then and whenever the pool is serial.
  std::shared_ptr<ThreadPool> pool_ LTFB_GUARDED_BY(mutex_);
  std::size_t threads_ LTFB_GUARDED_BY(mutex_) = 1;
};

/// A rank's private slice of the host's compute threads. Constructing one
/// binds it to the calling thread: every run_tasks() from that thread goes
/// to this share until it is destroyed, which restores the previous
/// binding and joins the share's workers. Non-copyable, non-movable, and
/// used only by the thread that created it.
class ComputeShare {
 public:
  /// Binds a share of `threads` (>= 1) compute threads. Workers (threads-1
  /// of them) start on the first pooled dispatch, not here.
  explicit ComputeShare(std::size_t threads);
  ~ComputeShare();

  ComputeShare(const ComputeShare&) = delete;
  ComputeShare& operator=(const ComputeShare&) = delete;

 private:
  friend class ComputePool;

  std::size_t threads_;
  std::unique_ptr<ThreadPool> workers_;  // owner thread only
  ComputeShare* previous_;
};

}  // namespace ltfb::util
