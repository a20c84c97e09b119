#include "util/compute_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ltfb::util {

namespace {

// Set while a thread runs pooled tasks (pool workers for good, the
// participating caller for the duration of its dispatch), so nested kernel
// calls execute inline instead of re-submitting — which would deadlock a
// fully busy pool waiting on its own queue.
thread_local bool tl_on_compute_worker = false;

// The rank share bound to this thread (ComputeShare), or null.
thread_local ComputeShare* tl_share = nullptr;

// Set in a forked child of a process whose pool existed before the fork:
// the child has the pool object but none of its worker threads.
std::atomic<bool> g_forked_child{false};

// Upper bound for LTFB_COMPUTE_THREADS and for a rank share; a runaway
// value would oversubscribe every rank at once.
constexpr std::size_t kMaxWorkers = 64;

// Default sizing cap: enough to feed the GEMM macro-block fan-out without
// starving the comm rank threads sharing the machine.
constexpr std::size_t kDefaultWorkerCap = 16;

// CPUs the calling thread may run on (taskset, cpusets), falling back to
// the host count when the affinity mask cannot be read.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::thread::hardware_concurrency();
}

// One run_tasks() call in flight: its tasks grouped into `jobs` contiguous
// ranges that the caller and its helpers claim from a shared counter.
// Helpers hold it by shared_ptr, so one that is scheduled after the caller
// returned finds no job left and never touches `fn`.
struct Batch {
  Batch(const std::function<void(std::size_t)>& fn_in, std::size_t tasks_in,
        std::uint32_t jobs_in)
      : fn(fn_in), tasks(tasks_in), jobs(jobs_in) {}

  const std::function<void(std::size_t)>& fn;
  const std::size_t tasks;
  const std::uint32_t jobs;
  std::atomic<std::uint32_t> next{0};
  std::atomic<std::uint32_t> done{0};
  std::atomic<bool> failed{false};
  // Written once, by the thread that set `failed`, before its job counts
  // as done; read by the caller only after every job is done.
  std::exception_ptr error;
};

// Claims and runs jobs until none are left. Job j covers the tasks
// [tasks*j/jobs, tasks*(j+1)/jobs): execution per index is identical to a
// serial loop, which is what keeps results pool-size-invariant.
void run_jobs(Batch& batch) noexcept {
  for (;;) {
    const std::uint32_t j = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (j >= batch.jobs) return;
    telemetry::flight::heartbeat_hot();
    const std::size_t begin = batch.tasks * j / batch.jobs;
    const std::size_t end = batch.tasks * (j + 1) / batch.jobs;
    try {
      for (std::size_t t = begin; t < end; ++t) batch.fn(t);
    } catch (...) {
      if (!batch.failed.exchange(true, std::memory_order_relaxed)) {
        batch.error = std::current_exception();
      }
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.jobs) {
      batch.done.notify_all();
    }
  }
}

// Runs the tasks on `threads` threads: the caller plus up to threads-1
// helpers queued on `workers`.
void dispatch(ThreadPool& workers, std::size_t threads, std::size_t tasks,
              const std::function<void(std::size_t)>& fn) {
  // At most threads*4 jobs: enough slack for load balancing without a
  // queue entry per tiny task.
  const auto jobs = static_cast<std::uint32_t>(std::min(tasks, threads * 4));
  const auto batch = std::make_shared<Batch>(fn, tasks, jobs);
  // Helpers compute on behalf of the caller: they carry its telemetry rank
  // scope, so their spans and metrics land on the rank that asked.
  const int caller_rank = telemetry::bound_rank();
  const std::size_t helpers = std::min<std::size_t>(threads - 1, jobs - 1);
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      // Completion is tracked by batch->done; the future is not needed.
      (void)workers.submit([batch, caller_rank] {
        const telemetry::RankBinding bind_rank(caller_rank);
        tl_on_compute_worker = true;
        run_jobs(*batch);
      });
    }
  } catch (...) {
    // A helper that could not be queued only means fewer threads: the
    // caller still drains every job below.
  }
  tl_on_compute_worker = true;
  run_jobs(*batch);
  tl_on_compute_worker = false;
  for (std::uint32_t d = batch->done.load(std::memory_order_acquire);
       d != jobs; d = batch->done.load(std::memory_order_acquire)) {
    batch->done.wait(d, std::memory_order_acquire);
  }
  if (batch->failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(batch->error);
  }
}

}  // namespace

ComputePool::ComputePool() {
  // Pin the telemetry registry's construction BEFORE the worker pool's:
  // Meyers singletons destruct in reverse construction order, and pool
  // workers touch telemetry counters during drain-at-exit.
  telemetry::Registry::instance();
  ::pthread_atfork(nullptr, nullptr, [] {
    g_forked_child.store(true, std::memory_order_relaxed);
  });
  resize(env_threads());
}

ComputePool::~ComputePool() = default;

ComputePool& ComputePool::instance() {
  static ComputePool pool;
  return pool;
}

std::size_t ComputePool::size() const {
  if (g_forked_child.load(std::memory_order_relaxed)) return 1;
  const MutexLock lock(mutex_);
  return threads_;
}

void ComputePool::resize(std::size_t threads) {
  LTFB_CHECK_MSG(threads >= 1 && threads <= kMaxWorkers,
                 "compute pool size must be in [1, " << kMaxWorkers
                                                     << "], got " << threads);
  LTFB_CHECK_MSG(!g_forked_child.load(std::memory_order_relaxed),
                 "the compute pool cannot be resized in a forked child: it "
                 "inherited the parent's pool without its workers");
  std::shared_ptr<ThreadPool> retired;
  {
    const MutexLock lock(mutex_);
    if (threads == threads_) return;
    // Joined below, outside the lock; the next dispatch starts fresh ones.
    retired = std::move(pool_);
    threads_ = threads;
  }
  retired.reset();
}

std::size_t ComputePool::env_threads() {
  const char* env = std::getenv("LTFB_COMPUTE_THREADS");
  if (env == nullptr || *env == '\0') {
    return std::clamp<std::size_t>(usable_cpus(), 1, kDefaultWorkerCap);
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(env, &end, 10);
  LTFB_CHECK_MSG(end != env && *end == '\0' && parsed >= 1 &&
                     parsed <= kMaxWorkers,
                 "LTFB_COMPUTE_THREADS must be an integer in [1, "
                     << kMaxWorkers << "], got '" << env << "'");
  return static_cast<std::size_t>(parsed);
}

std::size_t ComputePool::rank_share(std::size_t budget,
                                    std::size_t ranks) noexcept {
  return std::max<std::size_t>(1, budget / std::max<std::size_t>(1, ranks));
}

void ComputePool::run_tasks(std::size_t tasks,
                            const std::function<void(std::size_t)>& fn) {
  LTFB_CHECK_MSG(fn != nullptr, "ComputePool::run_tasks requires a callable");
  if (tasks == 0) return;

  // Compute progress counts as liveness: a long GEMM sweep must not read
  // as a hang to the flight-recorder watchdog.
  telemetry::flight::heartbeat();

  if (tasks > 1 && !tl_on_compute_worker) {
    if (ComputeShare* const share = tl_share) {
      if (share->threads_ > 1) {
        if (!share->workers_) {
          share->workers_ = std::make_unique<ThreadPool>(
              share->threads_ - 1, "compute/worker");
        }
        dispatch(*share->workers_, share->threads_, tasks, fn);
        return;
      }
    } else if (!g_forked_child.load(std::memory_order_relaxed)) {
      std::shared_ptr<ThreadPool> pool;
      std::size_t threads = 1;
      {
        const MutexLock lock(mutex_);
        // Started on first use, so a process whose kernels all run on rank
        // shares never holds idle process-wide workers.
        if (threads_ > 1 && pool_ == nullptr) {
          pool_ = std::make_shared<ThreadPool>(threads_ - 1, "compute/worker");
        }
        pool = pool_;
        threads = threads_;
      }
      if (pool != nullptr) {
        dispatch(*pool, threads, tasks, fn);
        return;
      }
    }
  }
  for (std::size_t t = 0; t < tasks; ++t) fn(t);
}

void ComputePool::parallel_ranges(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  LTFB_CHECK_MSG(grain > 0, "ComputePool::parallel_ranges requires grain > 0");
  if (n == 0) return;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks == 1) {
    fn(0, n);
    return;
  }
  run_tasks(chunks, [n, grain, &fn](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    fn(begin, std::min(n, begin + grain));
  });
}

ComputeShare::ComputeShare(std::size_t threads)
    : threads_(threads), previous_(tl_share) {
  LTFB_CHECK_MSG(threads >= 1 && threads <= kMaxWorkers,
                 "compute share must be in [1, " << kMaxWorkers << "], got "
                                                 << threads);
  tl_share = this;
}

ComputeShare::~ComputeShare() {
  tl_share = previous_;
  workers_.reset();  // joins; every dispatch has completed by now
}

}  // namespace ltfb::util
