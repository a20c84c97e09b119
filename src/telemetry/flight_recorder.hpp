// The process's one event record (DESIGN.md §8, §16): fixed-size,
// lock-free per-thread rings of span begin/end edges, comm send/recv/wait
// edges (tag, peer, correlation id), and fault-model transitions, plus a
// live span stack per thread, a registry of in-flight (blocking) comm
// operations, and per-rank progress heartbeats. Two consumers read it:
//
//   * Chrome traces (Registry::write_trace_json). While tracing is on, a
//     thread's span and flow events are also retained beyond the ring, in
//     heap chunks the exporter walks without a lock (kTraceCapPerThread
//     records per thread, drops counted), until Registry::clear_trace().
//   * Postmortems, for the unclean endings: a SIGSEGV/SIGABRT/SIGBUS crash
//     handler dumps the rings, live span stacks, pending ops, and rank
//     identity to postmortem_rank<N>.json with async-signal-safe calls
//     only (open/write); the FaultInjected / RankFailedError /
//     TimeoutError unwind paths (World::run_ranks, spawn_processes
//     children) dump the same report; a watchdog (LTFB_WATCHDOG_SEC)
//     dumps a "stall" report naming a blocked comm op whose rank's
//     heartbeat stood still for a full window.
//
// Memory/ordering model (the signal-safety contract):
//
//   * Rings, span stacks, and the pending-op registry are fixed arrays of
//     PODs and atomics in static storage: the dump never allocates. Only
//     trace retention allocates, and the dump never reads it.
//   * Rings and span stacks are single-producer: only the owning thread
//     writes. The producer fills the event cell, then publishes with a
//     release store of the head (or depth); snapshotting readers (the
//     watchdog, the crash handler — possibly on a *different* thread)
//     load with acquire and read only published cells. A writer that
//     wrapped the ring may be overwriting the oldest cell concurrently,
//     so a snapshot tolerates at most ONE torn event per thread — an
//     accepted artifact of staying lock-free, flagged in DESIGN.md §16.
//   * The hot-path gate is one relaxed atomic load: the ring records while
//     tracing (Registry::set_enabled) or postmortems (flight::set_enabled)
//     are on; with both off the instrumented paths are indistinguishable
//     from uninstrumented ones (bench/telemetry_overhead).
//
// Enable postmortems with LTFB_FLIGHT_RECORDER=1 (init_from_env), which
// also installs the crash handler, caches LTFB_POSTMORTEM_DIR (getenv is
// not signal-safe), and starts the watchdog when LTFB_WATCHDOG_SEC is set.
// Heartbeats, pending ops, and the watchdog follow that switch only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace ltfb::telemetry::flight {

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What one ring event records. Every event also carries its timestamp
/// and the recording thread's bound rank at that moment (pool workers
/// serve several ranks over their lifetime). The `name` of every event is
/// a string literal (same lifetime contract as Span names), so the crash
/// handler can safely dereference it from any thread.
enum class EventKind : std::uint8_t {
  SpanBegin = 0,  // a, b, c unused
  SpanEnd = 1,    // a, b, c unused
  CommOp = 2,     // entering a top-level comm op: a=tag, b=peer world rank
  CommSend = 3,   // message out: a=tag, b=dst world rank, c=flow id
  CommRecv = 4,   // message matched: a=tag, b=src world rank, c=flow id
  WaitBegin = 5,  // blocking wait begins: a=tag, b=peer world rank
  WaitEnd = 6,    // blocking wait ends: a=tag, b=peer world rank
  Fault = 7,      // fault-model transition: a, b kind-specific (op index,
                  // rank, clean flag); name says which transition
};

/// Stable dump/export name of an event kind ("span_begin", ...).
const char* event_kind_name(EventKind kind) noexcept;

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

namespace detail {
// Out-of-line hot-path sinks (flight_recorder.cpp); every inline wrapper
// below bails through a relaxed gate first, so the disabled cost is one
// atomic load. The gate itself (telemetry::detail::g_switches) lives in
// telemetry.hpp so Span can consult it without a circular include.
void flight_record(EventKind kind, const char* name, std::uint64_t a,
                   std::uint64_t b, std::uint64_t c) noexcept;
void flight_heartbeat() noexcept;
void flight_heartbeat_hot() noexcept;

/// A retained trace item: a complete span ('X', a thread's begin/end
/// events paired in LIFO order) or a flow endpoint ('s' send, 'f'
/// receive), on the rank bound when it ended / was recorded.
struct TraceItem {
  char ph;
  const char* name;
  std::uint64_t ts_ns, dur_ns, flow;
  int rank;
  std::uint32_t tid;
  std::string_view thread;
};

/// Replays every thread track of the current trace generation. Callers
/// serialize against clear_retained_trace (Registry's export mutex).
void for_each_trace_item(const std::function<void(const TraceItem&)>& fn);

/// Starts a new trace generation (and a zero drop count), freeing what
/// exited threads retained.
void clear_retained_trace();
}  // namespace detail

/// True when postmortem recording is on (flight::set_enabled). One relaxed
/// load. The ring also records while tracing is on.
inline bool enabled() noexcept {
  return (telemetry::detail::g_switches.load(std::memory_order_relaxed) &
          telemetry::detail::kFlightSwitch) != 0;
}

/// Turns recording on/off. Enabling does NOT install the crash handler or
/// watchdog — init_from_env() (or the explicit calls below) does.
void set_enabled(bool on) noexcept;

/// Reads LTFB_FLIGHT_RECORDER / LTFB_POSTMORTEM_DIR / LTFB_WATCHDOG_SEC:
/// enables the recorder when LTFB_FLIGHT_RECORDER is set truthy (anything
/// but "0"), caches the postmortem directory, installs the crash handler,
/// and starts the watchdog when a window is configured. Idempotent and
/// callable from every World entry point. Returns whether the recorder
/// ended up enabled.
bool init_from_env();

// ---------------------------------------------------------------------------
// Recording (hot path)
// ---------------------------------------------------------------------------

/// Appends one event to the calling thread's ring (a CommSend/CommRecv
/// with a flow id in `c` is a trace flow endpoint too). Lock-free; drops
/// (and counts) when the static thread-slot pool is exhausted. `name`
/// must be a string literal.
inline void record(EventKind kind, const char* name, std::uint64_t a = 0,
                   std::uint64_t b = 0, std::uint64_t c = 0) noexcept {
  if (telemetry::detail::recording()) {
    detail::flight_record(kind, name, a, b, c);
  }
}

/// Ticks the calling thread's bound rank's progress heartbeat (unbound
/// threads tick a shared slot). Comm entry points, round boundaries, and
/// the ComputePool/DataStore entry paths call this; the watchdog treats a
/// blocked comm op as stalled only while its rank's heartbeat stands still.
inline void heartbeat() noexcept {
  if (enabled()) detail::flight_heartbeat();
}

/// Decimated heartbeat for per-iteration hot loops (compute-pool jobs):
/// ticks on ~1/64 of calls so the clock read stays off the profile. Use
/// heartbeat() at low-frequency sites — decimation would delay their
/// liveness signal past short watchdog windows.
inline void heartbeat_hot() noexcept {
  if (enabled()) detail::flight_heartbeat_hot();
}

/// The rank's last heartbeat marker (-1 = the unbound slot): a ns-scale
/// progress timestamp that changes while the rank is alive, 0 before the
/// first tick or for ranks outside the scope table. Only the CHANGE is
/// meaningful — the watchdog compares it against the value captured at
/// pending-op entry.
std::uint64_t heartbeat_count(int rank) noexcept;

/// Trace records (spans + flow endpoints) one thread retains per trace
/// generation; records past it are counted in Registry::dropped_spans().
inline constexpr std::uint64_t kTraceCapPerThread = std::uint64_t{1} << 20;

/// Ring events recorded so far: the sum of every thread slot's head
/// (reset_for_tests and slot recycling restart a slot's count).
std::uint64_t recorded_events() noexcept;

/// Events dropped because the thread-slot pool was exhausted.
std::uint64_t dropped_events() noexcept;

// ---------------------------------------------------------------------------
// In-flight (pending) comm-op registry
// ---------------------------------------------------------------------------

/// RAII registration of one blocking communication operation: claims a
/// slot in the process-wide pending-op registry (op name, tag, peer, the
/// claiming thread's bound rank, entry timestamp, heartbeat at entry) and
/// releases it on destruction. Also records WaitBegin/WaitEnd ring events.
/// No-op while the recorder is disabled; claims are lock-free and the
/// registry is fixed-size (overflow is dropped and counted). Both comm
/// backends' blocking paths — mailbox waits, shrink rendezvous, socket
/// frame writes — hold one of these, which is exactly what the watchdog
/// and the postmortem dump enumerate.
class PendingOp {
 public:
  PendingOp(const char* op, std::int64_t tag, int peer) noexcept;
  ~PendingOp() noexcept;
  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;

 private:
  void* slot_ = nullptr;
};

/// Snapshot row of one pending op (see Backend::pending_ops).
struct PendingOpInfo {
  const char* op = nullptr;
  std::int64_t tag = 0;
  int peer = -1;
  int rank = -1;
  std::uint64_t age_ns = 0;
};

/// Point-in-time copy of every active pending op (allocates; NOT the
/// signal-safe path — the crash handler walks the registry directly).
std::vector<PendingOpInfo> pending_ops();

// ---------------------------------------------------------------------------
// Process identity + postmortem dumps
// ---------------------------------------------------------------------------

/// Names this process's world rank for postmortem files
/// (postmortem_rank<N>.json). -1 (the default) means "not a spawned rank
/// process" — dumps fall back to the recording thread's rank, then to
/// postmortem_proc.json. Throws ltfb::InvalidArgument below -1.
void set_process_rank(int rank);

/// Overrides the cached postmortem directory (normally captured from
/// LTFB_POSTMORTEM_DIR by init_from_env; "." when unset). Must fit the
/// static path buffer; throws ltfb::InvalidArgument otherwise.
void set_postmortem_dir(const std::string& dir);

/// The postmortem path a dump attributed to `rank` would write.
std::string postmortem_path(int rank);

/// Writes postmortem_rank<N>.json (or postmortem_proc.json when no rank is
/// attributable): process identity, per-rank heartbeats, every live
/// thread's span stack and recent ring events, and the pending-op
/// registry. Uses only open()/write() plus static buffers, so it is
/// async-signal-safe; `kind` and `reason` must be string literals (or
/// otherwise static). `rank` -1 falls back to the process rank; `signal`
/// 0 means "not a signal dump". Returns false when the file cannot be
/// opened. Safe to call with the recorder disabled (dumps whatever the
/// rings held when it was on).
bool write_postmortem(const char* kind, const char* reason, int rank = -1,
                      int signal = 0) noexcept;

/// Installs the SIGSEGV/SIGABRT/SIGBUS crash handler (idempotent): on
/// delivery it writes the postmortem, restores the default disposition,
/// and re-raises so the process still dies by the original signal (the
/// supervisor's WIFSIGNALED attribution survives).
void install_crash_handler();

// ---------------------------------------------------------------------------
// Hang watchdog
// ---------------------------------------------------------------------------

/// Starts the watchdog thread with a `seconds` no-progress window (must be
/// positive and finite; throws ltfb::InvalidArgument otherwise). The
/// thread wakes ~4x per window and declares a stall when an active
/// pending op is older than the window AND its rank's heartbeat has not
/// advanced since the op was claimed; it then emits the structured
/// `watchdog/stall_detected` diagnostic (telemetry counter + Logger line)
/// and writes a "stall" postmortem naming the blocked op, tag, and peer.
/// Each pending op dumps at most once. Idempotent while running; returns
/// false if a watchdog was already active. Enables the recorder.
bool start_watchdog(double seconds);

/// Stops and joins the watchdog thread (no-op when not running).
void stop_watchdog() noexcept;

// ---------------------------------------------------------------------------
// Test/reset hooks
// ---------------------------------------------------------------------------

/// Clears rings, span stacks, heartbeats, pending ops, and drop counters
/// (slots stay claimed by their threads; retained trace events are
/// Registry::clear_trace's business). Test isolation only — never needed
/// in production paths.
void reset_for_tests();

}  // namespace ltfb::telemetry::flight
