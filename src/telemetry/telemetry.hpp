// The unified instrumentation API: one process-wide Registry of named
// counters, gauges, and histogram timers, plus lightweight RAII trace
// spans. This replaces the ad-hoc Stopwatch-and-struct timing that used to
// be scattered per bench — every subsystem (comm, datastore, thread pool,
// trainers, LTFB, the cluster simulator) reports "where the time went"
// through this one API, and two exporters serve every consumer:
//
//   * a plain-text / JSON metrics dump (Registry::metrics_json,
//     log_metrics via the Logger sink path), and
//   * a Chrome `chrome://tracing` / Perfetto-compatible trace
//     (Registry::write_trace_json) with wall-clock spans on one process
//     track and virtual-time simulator spans on a separate one.
//
// Distributed attribution (DESIGN.md §11): in-process "ranks" (the World
// threads that stand in for MPI processes) bind themselves with
// telemetry::bind_rank(world_rank). While a binding is active on a thread,
// metric updates additionally land in that rank's per-rank scope
// (Registry::snapshot_rank) and trace spans export under a per-rank
// Chrome-trace pid (kRankPidBase + rank) instead of the merged pid 1.
// Helper threads doing work on behalf of a rank (DataStore prefetch,
// ComputePool workers) inherit the caller's binding via RankBinding.
// Cross-rank message edges (the comm layer's CommSend/CommRecv events)
// export as Chrome flow events so Perfetto draws send→recv arrows.
//
// Naming convention: `subsystem/verb` — lowercase [a-z0-9_] segments
// separated by '/', e.g. "datastore/fetch", "comm/allreduce",
// "ltfb/round". Registration validates this; tools/ltfb_lint.py enforces
// it statically for literals in src/, bench/, and examples/.
//
// Overhead contract (estimated by bench/telemetry_overhead):
//   * compile-time: configure with -DLTFB_TELEMETRY=OFF and every macro
//     below compiles to nothing;
//   * runtime: recording is gated on one relaxed atomic load — with the
//     registry disabled (the default) the instrumented hot paths are
//     indistinguishable from uninstrumented ones, and enabled they stay
//     within 2% of step time.
//
// Thread-safety: counters/gauges/timers accumulate lock-free on atomics.
// Spans and flow endpoints are events in the flight recorder's lock-free
// per-thread record (telemetry/flight_recorder.hpp), the one event store
// Chrome traces and postmortems both read. All of it is TSan-clean
// (tests/test_telemetry.cpp hammers it under LTFB_SANITIZE=thread).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/running_stats.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace ltfb::telemetry {

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Simple wall-clock stopwatch — the telemetry clock and the one users
/// reach for are the same clock by construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Monotonic nanoseconds since the process's first telemetry use. All
/// wall-clock span timestamps share this epoch so traces start near t=0.
std::uint64_t now_ns() noexcept;

// ---------------------------------------------------------------------------
// Runtime enable gate
// ---------------------------------------------------------------------------

namespace detail {
/// The two recording switches, one bit each in g_switches: tracing
/// (Registry::set_enabled: metrics plus retained trace events) and
/// postmortems (flight::set_enabled). Independent of each other; the
/// event ring records while either is on.
inline constexpr std::uint8_t kTraceSwitch = 1;
inline constexpr std::uint8_t kFlightSwitch = 2;
inline std::atomic<std::uint8_t> g_switches{0};

inline bool recording() noexcept {
  return g_switches.load(std::memory_order_relaxed) != 0;
}

inline void set_switch(std::uint8_t bit, bool on) noexcept {
  if (on) {
    g_switches.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_switches.fetch_and(static_cast<std::uint8_t>(~bit),
                         std::memory_order_relaxed);
  }
}

/// Trace records (spans, flow endpoints, sim spans) dropped past their
/// caps since the last Registry::clear_trace().
inline std::atomic<std::uint64_t> g_trace_dropped{0};
}  // namespace detail

namespace flight::detail {
/// Span edges into the calling thread's event ring (flight_recorder.cpp);
/// called only while recording(). span_begin returns whether the span is
/// traced (retained for Chrome export); span_end takes that answer back so
/// a span is retained whole or not at all.
bool span_begin(const char* name) noexcept;
void span_end(const char* name, bool traced) noexcept;
}  // namespace flight::detail

/// True when the registry is recording. One relaxed load — THE hot-path
/// check; every macro and handle method bails through it first.
inline bool enabled() noexcept {
  return (detail::g_switches.load(std::memory_order_relaxed) &
          detail::kTraceSwitch) != 0;
}

// ---------------------------------------------------------------------------
// Rank binding
// ---------------------------------------------------------------------------

namespace detail {

/// Upper bound on distinct rank scopes. Per-rank metric cells are allocated
/// eagerly per slot, so this caps memory, not correctness: binding a rank
/// >= kMaxRankScopes throws at bind time.
inline constexpr int kMaxRankScopes = 64;

/// The rank currently bound to this thread, or -1 (unbound). Plain
/// thread-local (no atomic): only the owning thread reads or writes it.
inline thread_local int tl_bound_rank = -1;

}  // namespace detail

/// Binds `rank` to the calling thread: subsequent metric updates also land
/// in the per-rank scope and spans export under pid kRankPidBase + rank.
/// Pass -1 to unbind. Works whether or not the registry is enabled (the
/// binding is consulted only on enabled-path recording). Throws
/// ltfb::InvalidArgument outside [-1, detail::kMaxRankScopes).
void bind_rank(int rank);

/// The calling thread's bound rank, or -1 when unbound.
inline int bound_rank() noexcept { return detail::tl_bound_rank; }

/// RAII rank binding for helper threads acting on behalf of a rank:
/// captures the constructor argument as the thread's binding and restores
/// the previous binding on destruction. A -1 argument is a no-op binding
/// (helper invoked from an unbound context), kept symmetric so call sites
/// can bind unconditionally with bound_rank() captured from the caller.
class RankBinding {
 public:
  explicit RankBinding(int rank) : previous_(bound_rank()) { bind_rank(rank); }
  ~RankBinding() { bind_rank(previous_); }
  RankBinding(const RankBinding&) = delete;
  RankBinding& operator=(const RankBinding&) = delete;

 private:
  int previous_;
};

/// Names the calling thread's trace track: write_trace_json emits a
/// `thread_name` metadata event for every (pid, tid) the thread recorded
/// spans on, so raw traces stay readable even without rank binding.
/// Last writer wins; empty restores the default (numbered) track name.
void set_thread_name(std::string_view name);

// ---------------------------------------------------------------------------
// Metric slots and handles
// ---------------------------------------------------------------------------

namespace detail {

/// Portable fetch_add for atomic<double> (CAS loop; avoids relying on the
/// C++20 floating-point fetch_add which older libstdc++ lacks).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

// Every slot carries, next to its process-wide cells, one plain cell per
// rank scope. The global cells are updated exactly as before; when the
// recording thread has a rank bound, the matching rank cell is updated
// too, so snapshot_rank(r) reads "what rank r contributed" while
// snapshot() stays the cluster-process total. Rank cells skip the log2
// histogram (per-rank percentiles are not worth 64x the memory).

struct CounterSlot {
  std::atomic<std::uint64_t> value{0};
  std::array<std::atomic<std::uint64_t>, kMaxRankScopes> rank_value{};
};

struct GaugeRankCell {
  std::atomic<double> value{0.0};
  std::atomic<double> max{0.0};
  std::atomic<std::uint64_t> sets{0};
};

struct GaugeSlot : GaugeRankCell {
  std::array<GaugeRankCell, kMaxRankScopes> rank{};
};

/// Log2 latency histogram: bucket i counts samples in [2^i, 2^(i+1)) ns.
/// 40 buckets cover ~18 minutes, far beyond any per-call latency here.
inline constexpr std::size_t kTimerBuckets = 40;

struct TimerRankCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum_s{0.0};
  std::atomic<double> min_s{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_s{0.0};
};

struct TimerSlot : TimerRankCell {
  std::array<std::atomic<std::uint64_t>, kTimerBuckets> buckets{};
  std::array<TimerRankCell, kMaxRankScopes> rank{};
};

}  // namespace detail

/// Monotonically increasing event count. Handles are cheap value types
/// pointing at registry-owned slots; slots live for the life of the
/// process (reset_metrics zeroes values but never invalidates handles).
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) noexcept {
    if (slot_ != nullptr && enabled()) {
      slot_->value.fetch_add(n, std::memory_order_relaxed);
      const int rank = detail::tl_bound_rank;
      if (rank >= 0) {
        slot_->rank_value[static_cast<std::size_t>(rank)].fetch_add(
            n, std::memory_order_relaxed);
      }
    }
  }
  std::uint64_t value() const noexcept {
    return slot_ ? slot_->value.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Counter(detail::CounterSlot* slot) : slot_(slot) {}
  detail::CounterSlot* slot_ = nullptr;
};

/// Last-written level plus the high-water mark since reset (e.g. thread
/// pool queue depth).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) noexcept {
    if (slot_ == nullptr || !enabled()) return;
    const auto update = [v](detail::GaugeRankCell& cell) {
      cell.value.store(v, std::memory_order_relaxed);
      detail::atomic_max(cell.max, v);
      cell.sets.fetch_add(1, std::memory_order_relaxed);
    };
    update(*slot_);
    const int rank = detail::tl_bound_rank;
    if (rank >= 0) update(slot_->rank[static_cast<std::size_t>(rank)]);
  }
  double value() const noexcept {
    return slot_ ? slot_->value.load(std::memory_order_relaxed) : 0.0;
  }
  double max() const noexcept {
    return slot_ ? slot_->max.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeSlot* slot) : slot_(slot) {}
  detail::GaugeSlot* slot_ = nullptr;
};

/// Latency distribution: count/total/min/max plus a log2 histogram from
/// which snapshot() derives approximate p50/p95.
class Timer {
 public:
  Timer() = default;

  void record(double seconds) noexcept {
    if (slot_ == nullptr || !enabled()) return;
    if (seconds < 0.0) seconds = 0.0;
    const auto update = [seconds](detail::TimerRankCell& cell) {
      cell.count.fetch_add(1, std::memory_order_relaxed);
      detail::atomic_add(cell.sum_s, seconds);
      detail::atomic_min(cell.min_s, seconds);
      detail::atomic_max(cell.max_s, seconds);
    };
    update(*slot_);
    const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
    const std::size_t bucket =
        std::min<std::size_t>(std::bit_width(ns), detail::kTimerBuckets - 1);
    slot_->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    const int rank = detail::tl_bound_rank;
    if (rank >= 0) update(slot_->rank[static_cast<std::size_t>(rank)]);
  }

  std::uint64_t count() const noexcept {
    return slot_ ? slot_->count.load(std::memory_order_relaxed) : 0;
  }
  double total_seconds() const noexcept {
    return slot_ ? slot_->sum_s.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  friend class ScopedTimer;
  explicit Timer(detail::TimerSlot* slot) : slot_(slot) {}
  detail::TimerSlot* slot_ = nullptr;
};

/// RAII: records the enclosing scope's duration into a Timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer timer) {
    if (timer.slot_ != nullptr && enabled()) {
      timer_ = timer;
      start_ns_ = now_ns();
      armed_ = true;
    }
  }
  ~ScopedTimer() {
    if (armed_) {
      timer_.record(static_cast<double>(now_ns() - start_ns_) * 1e-9);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer timer_;
  std::uint64_t start_ns_ = 0;
  bool armed_ = false;
};

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// RAII wall-clock trace span: SpanBegin/SpanEnd events in the calling
/// thread's event ring, traced iff tracing was on when it began. `name`
/// must be a string literal (or otherwise outlive the process's last trace
/// export) — events store the pointer, keeping the hot path allocation-free.
class Span {
 public:
  explicit Span(const char* name) {
    if (detail::recording()) {
      name_ = name;
      traced_ = flight::detail::span_begin(name);
    }
  }
  // Ends whenever the ctor began, even if recording stopped in between —
  // the per-thread span stack must stay balanced.
  ~Span() {
    if (name_ != nullptr) flight::detail::span_end(name_, traced_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  bool traced_ = false;
};

/// Records a span that already happened, [start_ns, end_ns] on the now_ns
/// clock, as a SpanBegin/SpanEnd pair — for intervals that open and close
/// in different scopes, where a Span cannot wrap them.
void record_interval(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns) noexcept;

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

struct CounterStat {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeStat {
  std::string name;
  double value = 0.0;
  double max = 0.0;
  std::uint64_t sets = 0;
};

struct TimerStat {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double mean_s = 0.0;
  /// Approximate percentiles from the log2 histogram (bucket upper bound).
  /// Per-rank snapshots (Registry::snapshot_rank) report 0 — rank cells
  /// do not keep histograms.
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  /// count / wall-clock seconds since process telemetry epoch or the last
  /// reset_metrics(), whichever is later.
  double rate_per_s = 0.0;
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterStat> counters;
  std::vector<GaugeStat> gauges;
  std::vector<TimerStat> timers;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// `name` must match the `subsystem/verb` convention:
/// lowercase [a-z0-9_]+ segments joined by '/'.
bool valid_metric_name(std::string_view name) noexcept;

/// JSON string-body escaping used by every exporter in this subsystem
/// (quotes, backslashes, and control characters as \uXXXX; non-ASCII
/// bytes pass through untouched — the output is byte-for-byte the input
/// encoding). Public so tests and downstream JSONL writers share the
/// exact exporter behaviour.
std::string json_escape(std::string_view in);

/// Finite shortest-round-trip-ish double formatting shared by the
/// exporters; infinities and NaN (legal JSON nowhere) render as 0.
std::string json_double(double v);

/// Chrome-trace pid of rank r's track is kRankPidBase + r. pid 1 stays
/// the merged (unbound) wall-clock track and pid 2 the simulator's
/// virtual-time track, so rank pids start above both.
inline constexpr int kRankPidBase = 10;

class Registry {
 public:
  static Registry& instance();

  /// Runtime gate shared by every handle, macro, and span.
  void set_enabled(bool on) noexcept {
    detail::set_switch(detail::kTraceSwitch, on);
  }
  bool is_enabled() const noexcept { return enabled(); }

  /// Registration is idempotent: the same name always yields a handle onto
  /// the same slot. Throws ltfb::InvalidArgument for names violating the
  /// naming convention, or registered as a different metric kind.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Timer timer(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// What rank `rank` contributed: every registered metric's per-rank
  /// cell, same shape and sort order as snapshot(). Timer percentiles are
  /// 0 (rank cells keep no histogram). Throws ltfb::InvalidArgument
  /// outside [0, detail::kMaxRankScopes).
  MetricsSnapshot snapshot_rank(int rank) const;

  /// Zeroes every metric value — global and per-rank cells — and restarts
  /// the rate_per_s window. Handles stay valid; slots are never removed
  /// (so cached `static` handles in the macros cannot dangle).
  void reset_metrics() noexcept;

  // -- trace (wall-clock spans and flows: the flight recorder's events) ---

  /// Simulator spans carry VIRTUAL time (seconds on the DES clock), not
  /// wall time; they are exported on a separate process track ("sim",
  /// pid 2) so the two time bases never visually interleave. `lane`
  /// becomes the track's tid (e.g. one lane per simulated reader).
  void record_sim_span(std::string name, double start_s, double duration_s,
                       int lane);

  /// Completed wall-clock spans / flow endpoints the trace would export.
  std::size_t span_count() const;
  std::size_t sim_span_count() const;
  std::size_t flow_count() const;
  std::uint64_t dropped_spans() const noexcept {
    return detail::g_trace_dropped.load(std::memory_order_relaxed);
  }
  void clear_trace();

  // -- exporters -----------------------------------------------------------

  std::string metrics_json() const;
  void write_metrics_json(std::ostream& out) const;
  bool write_metrics_json(const std::string& path) const;

  /// Chrome trace event format: {"traceEvents":[...]} of "ph":"X"
  /// complete events (ts/dur in microseconds), pid 1 = unbound wall
  /// clock, pid 2 = simulator virtual time, pid kRankPidBase + r = rank
  /// r's wall-clock track (spans that ended under an active bind_rank).
  /// process_name metadata labels every rank pid, thread_name metadata
  /// labels tracks of threads that called set_thread_name, a
  /// "dropped_events" metadata event carries dropped_spans(), and comm
  /// send/receive events export as "ph":"s"/"f" flow events. Loadable by
  /// chrome://tracing and https://ui.perfetto.dev.
  std::string trace_json() const;
  void write_trace_json(std::ostream& out) const;
  bool write_trace_json(const std::string& path) const;

  /// Emits one line per metric through the Logger (component
  /// "telemetry") — the shared logging/telemetry output path; any
  /// installed Logger sink sees the dump.
  void log_metrics(util::LogLevel level = util::LogLevel::Info) const;

 private:
  Registry() = default;

  struct SimSpan;

  static constexpr std::size_t kMaxSimSpans = 1u << 20;

  // Guards slot REGISTRATION only; the slots themselves are lock-free
  // atomics updated through stable unique_ptrs, so handles never need the
  // mutex after registration.
  mutable util::Mutex metrics_mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<detail::CounterSlot>>>
      counters_ LTFB_GUARDED_BY(metrics_mutex_);
  std::vector<std::pair<std::string, std::unique_ptr<detail::GaugeSlot>>>
      gauges_ LTFB_GUARDED_BY(metrics_mutex_);
  std::vector<std::pair<std::string, std::unique_ptr<detail::TimerSlot>>>
      timers_ LTFB_GUARDED_BY(metrics_mutex_);

  // Leaf lock: guards the simulator spans and serializes trace readers
  // (exporters, counts) against clear_trace freeing retained events.
  // Recording wall-clock events never takes it. See DESIGN.md §12.
  mutable util::Mutex export_mutex_;
  std::vector<SimSpan> sim_spans_ LTFB_GUARDED_BY(export_mutex_);

  /// Start of the rate_per_s window: 0 (the now_ns epoch) until the first
  /// reset_metrics() stamps it forward.
  std::atomic<std::uint64_t> rate_epoch_ns_{0};
};

// ---------------------------------------------------------------------------
// Environment-driven setup (examples / benches)
// ---------------------------------------------------------------------------

/// Enables the registry from the environment: LTFB_TELEMETRY, when set,
/// decides (util::env_flag: empty or "0" is off); when unset, setting
/// LTFB_TELEMETRY_OUT or LTFB_TELEMETRY_METRICS enables it. Returns
/// whether telemetry ended up enabled.
bool init_from_env();

/// Writes the trace to $LTFB_TELEMETRY_OUT and the metrics dump to
/// $LTFB_TELEMETRY_METRICS when set. Returns a human-readable summary of
/// what was written ("" when telemetry is idle).
std::string flush_from_env();

}  // namespace ltfb::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros
// ---------------------------------------------------------------------------
//
// All of these compile to nothing under -DLTFB_TELEMETRY=OFF (the
// LTFB_TELEMETRY_DISABLED compile definition); with telemetry compiled in
// but runtime-disabled they cost one relaxed atomic load. The `static`
// handle caches the registry lookup so steady-state cost is the slot
// update only.

#define LTFB_TELEMETRY_CONCAT_(a, b) a##b
#define LTFB_TELEMETRY_CONCAT(a, b) LTFB_TELEMETRY_CONCAT_(a, b)

#if !defined(LTFB_TELEMETRY_DISABLED)
#define LTFB_TELEMETRY_ENABLED 1

/// RAII wall-clock trace span for the enclosing scope.
#define LTFB_SPAN(name)                                            \
  const ::ltfb::telemetry::Span LTFB_TELEMETRY_CONCAT(             \
      ltfb_span_, __COUNTER__)(name)

/// One metric update through a handle cached in a function-local static.
#define LTFB_TELEMETRY_UPDATE_(Handle, registrar, name, call)      \
  do {                                                             \
    if (::ltfb::telemetry::enabled()) {                            \
      static ::ltfb::telemetry::Handle ltfb_tele_slot_ =           \
          ::ltfb::telemetry::Registry::instance().registrar(name); \
      ltfb_tele_slot_.call;                                        \
    }                                                              \
  } while (false)

#define LTFB_COUNTER_ADD(name, n) \
  LTFB_TELEMETRY_UPDATE_(Counter, counter, name, add(n))
#define LTFB_GAUGE_SET(name, v) \
  LTFB_TELEMETRY_UPDATE_(Gauge, gauge, name, set(v))
#define LTFB_TIMER_RECORD(name, seconds) \
  LTFB_TELEMETRY_UPDATE_(Timer, timer, name, record(seconds))

/// RAII: the enclosing scope's duration lands in timer `name`. The handle
/// is cached in a function-local static, so steady-state cost is the
/// enabled() gate plus two clock reads. (One LTFB_TIMED_SCOPE per source
/// line — the cache key is the line number.)
#define LTFB_TIMED_SCOPE(name)                                       \
  static const ::ltfb::telemetry::Timer LTFB_TELEMETRY_CONCAT(       \
      ltfb_timed_slot_, __LINE__) =                                  \
      ::ltfb::telemetry::Registry::instance().timer(name);           \
  const ::ltfb::telemetry::ScopedTimer LTFB_TELEMETRY_CONCAT(        \
      ltfb_timed_, __LINE__)(LTFB_TELEMETRY_CONCAT(ltfb_timed_slot_, \
                                                   __LINE__))

#else  // LTFB_TELEMETRY_DISABLED
#define LTFB_TELEMETRY_ENABLED 0

#define LTFB_SPAN(name) do { } while (false)
#define LTFB_COUNTER_ADD(name, n) do { } while (false)
#define LTFB_GAUGE_SET(name, v) do { } while (false)
#define LTFB_TIMER_RECORD(name, seconds) do { } while (false)
#define LTFB_TIMED_SCOPE(name) do { } while (false)

#endif  // LTFB_TELEMETRY_DISABLED
