#include "telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string_view>
#include <thread>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace ltfb::telemetry::flight {

namespace {

// Every field a snapshotting reader (watchdog / crash handler, possibly a
// different thread) may touch is an atomic accessed relaxed: on the
// producer side a relaxed store compiles to a plain store on x86/arm, and
// atomics keep the cross-thread snapshot race TSan-clean and
// async-signal-safe (lock-free atomics are safe to read from a handler).
// Publication ordering is carried by the head/depth release stores alone.

constexpr int kMaxThreads = 256;
constexpr std::uint64_t kRingSize = 1024;  // power of two, events per thread
constexpr int kMaxSpanDepth = 64;
constexpr int kMaxPending = 128;
constexpr int kThreadNameLen = 32;
constexpr int kMaxDirLen = 224;

constexpr int kHeartbeatSlots = telemetry::detail::kMaxRankScopes + 1;

struct Event {
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint64_t> c{0};
  std::atomic<std::uint8_t> kind{0};
  std::atomic<std::int32_t> rank{-1};  // fits the padding after `kind`
};
static_assert(sizeof(Event) == 48, "rank must ride in Event's padding");

struct SpanFrame {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
};

struct Track;

struct ThreadState {
  std::atomic<bool> active{false};  // currently claimed by a live thread
  std::atomic<bool> used{false};    // ever claimed since the last reclaim
  std::atomic<std::uint64_t> head{0};
  // Open spans; only the outermost kMaxSpanDepth have a stored frame.
  std::atomic<std::uint32_t> depth{0};
  std::atomic<unsigned long> tid{0};
  std::atomic<char> name[kThreadNameLen]{};
  Event ring[kRingSize];
  SpanFrame stack[kMaxSpanDepth];
  /// The occupant's trace retention; touched by the occupant only.
  Track* track = nullptr;
};

ThreadState g_threads[kMaxThreads];
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_heartbeats[kHeartbeatSlots];

// Trace retention: while tracing is on, each thread also appends its span
// and flow events to heap chunks (single producer; a release store of the
// count publishes). Readers and clear_trace() hold Registry's export mutex.

struct TraceEvent {
  std::uint64_t ts_ns;
  const char* name;
  std::uint64_t flow;
  std::int32_t rank;
  EventKind kind;
};

struct Chunk {
  static constexpr std::uint32_t kEvents = 512;
  std::atomic<std::uint32_t> count{0};
  std::atomic<Chunk*> newer{nullptr};  // linked only once this one is full
  TraceEvent events[kEvents];
};

/// One thread's retained events for one trace generation. Owned by its
/// thread until released — at thread exit, or at the thread's first traced
/// event after a clear_trace() — and only then freed, by the next clear.
struct Track {
  std::uint32_t tid = 0;  // Chrome-trace track id
  std::uint64_t gen = 0;
  const ThreadState* slot = nullptr;  // thread name source while owned
  std::atomic<bool> owned{true};
  char final_name[kThreadNameLen] = {};
  std::atomic<Chunk*> oldest{nullptr};
  Chunk* newest = nullptr;    // owner only
  std::uint64_t records = 0;  // owner only: spans + flows admitted
  Track* next = nullptr;
};

std::atomic<Track*> g_tracks{nullptr};
std::atomic<std::uint64_t> g_trace_gen{1};
std::atomic<std::uint32_t> g_next_tid{1};

void load_name(const std::atomic<char> (&cells)[kThreadNameLen],
               char (&out)[kThreadNameLen]) noexcept {
  for (int i = 0; i < kThreadNameLen; ++i) {
    out[i] = cells[i].load(std::memory_order_relaxed);
  }
  out[kThreadNameLen - 1] = '\0';
}

void push_track(Track* track) noexcept {
  track->next = g_tracks.load(std::memory_order_relaxed);
  while (!g_tracks.compare_exchange_weak(track->next, track,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
  }
}

/// Hands the thread's track to the next clear_trace(), keeping its name
/// (the slot's name cells pass to the slot's next occupant).
void release_track(ThreadState& ts) noexcept {
  if (ts.track == nullptr) return;
  load_name(ts.name, ts.track->final_name);
  ts.track->owned.store(false, std::memory_order_release);
  ts.track = nullptr;
}

/// The thread's track for this trace generation; nullptr when out of memory.
Track* current_track(ThreadState& ts) noexcept {
  const std::uint64_t gen = g_trace_gen.load(std::memory_order_acquire);
  if (ts.track != nullptr && ts.track->gen == gen) return ts.track;
  release_track(ts);
  ts.track = new (std::nothrow) Track;
  if (ts.track == nullptr) return nullptr;
  ts.track->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  ts.track->gen = gen;
  ts.track->slot = &ts;
  push_track(ts.track);
  return ts.track;
}

/// Whether tracing retains the thread's next span or flow endpoint,
/// counting it against kTraceCapPerThread or as a drop.
bool admit(ThreadState& ts) noexcept {
  if (!telemetry::enabled()) return false;
  Track* track = current_track(ts);
  if (track == nullptr || track->records >= kTraceCapPerThread) {
    telemetry::detail::g_trace_dropped.fetch_add(1,
                                                 std::memory_order_relaxed);
    return false;
  }
  ++track->records;
  return true;
}

void retain(ThreadState& ts, const TraceEvent& event) noexcept {
  Track* track = current_track(ts);
  if (track == nullptr) return;
  Chunk* chunk = track->newest;
  std::uint32_t n = chunk != nullptr
                        ? chunk->count.load(std::memory_order_relaxed)
                        : Chunk::kEvents;
  if (n == Chunk::kEvents) {
    auto* fresh = new (std::nothrow) Chunk;
    if (fresh == nullptr) {
      telemetry::detail::g_trace_dropped.fetch_add(1,
                                                   std::memory_order_relaxed);
      return;
    }
    (chunk != nullptr ? chunk->newer : track->oldest)
        .store(fresh, std::memory_order_release);
    track->newest = chunk = fresh;
    n = 0;
  }
  chunk->events[n] = event;
  chunk->count.store(n + 1, std::memory_order_release);
}

struct PendingSlot {
  // 0 = free, 1 = being written by the claimer, 2 = active (published).
  std::atomic<int> state{0};
  std::atomic<const char*> op{nullptr};
  std::atomic<std::int64_t> tag{0};
  std::atomic<int> peer{-1};
  std::atomic<int> rank{-1};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> hb_at_entry{0};
  std::atomic<bool> dumped{false};
};

PendingSlot g_pending[kMaxPending];
std::atomic<std::uint64_t> g_pending_dropped{0};

std::atomic<int> g_process_rank{-1};

// Postmortem directory, captured before the crash handler can fire
// (getenv and std::string are both off-limits inside the handler). Null
// terminated; writes happen in init paths only.
std::atomic<char> g_postmortem_dir[kMaxDirLen + 1]{};

std::atomic<bool> g_crash_handler_installed{false};
std::atomic<int> g_in_dump{0};

// Watchdog machinery. The mutex/cv pair exists only to make stop() prompt;
// all stall detection reads the lock-free structures above.
std::mutex g_watchdog_mutex;
std::condition_variable g_watchdog_cv;
std::thread g_watchdog_thread;
std::atomic<bool> g_watchdog_running{false};
bool g_watchdog_stop = false;  // guarded by g_watchdog_mutex
std::atomic<double> g_watchdog_window_s{0.0};
std::atomic<std::uint64_t> g_stalls_detected{0};

int heartbeat_index(int rank) noexcept {
  return (rank >= 0 && rank < telemetry::detail::kMaxRankScopes) ? rank + 1
                                                                 : 0;
}

unsigned long current_tid() noexcept {
  return static_cast<unsigned long>(::syscall(SYS_gettid));
}

/// Claims one ThreadState slot per thread for its lifetime; the slot is
/// recycled (history reset) after the thread exits. Claim order scans the
/// static pool, so slot exhaustion degrades to counted drops, never UB.
struct SlotHolder {
  ThreadState* slot = nullptr;

  SlotHolder() noexcept {
    for (auto& candidate : g_threads) {
      bool expected = false;
      if (candidate.active.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        candidate.head.store(0, std::memory_order_relaxed);
        candidate.depth.store(0, std::memory_order_relaxed);
        candidate.tid.store(current_tid(), std::memory_order_relaxed);
        candidate.name[0].store('\0', std::memory_order_relaxed);
        candidate.used.store(true, std::memory_order_release);
        slot = &candidate;
        break;
      }
    }
  }

  ~SlotHolder() {
    // The ring stays visible to later dumps (a thread that died mid-run is
    // what a postmortem wants to show) and the track to exports until
    // clear_trace(); only the claim is released, for slot recycling.
    if (slot == nullptr) return;
    release_track(*slot);
    slot->active.store(false, std::memory_order_release);
  }
};

ThreadState* local_slot() noexcept {
  thread_local SlotHolder holder;
  return holder.slot;
}

/// local_slot() for recording: with the slot pool exhausted the event is
/// dropped, and counted for postmortems and, while tracing, for traces.
ThreadState* recording_slot() noexcept {
  ThreadState* ts = local_slot();
  if (ts == nullptr) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::detail::g_trace_dropped.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }
  return ts;
}

/// Appends one event to the ring (and, when `traced`, to the track).
void append_event(ThreadState& ts, EventKind kind, const char* name,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t ts_ns, bool traced) noexcept {
  const std::int32_t rank = telemetry::bound_rank();
  const std::uint64_t head = ts.head.load(std::memory_order_relaxed);
  Event& event = ts.ring[head % kRingSize];
  event.ts_ns.store(ts_ns, std::memory_order_relaxed);
  event.name.store(name, std::memory_order_relaxed);
  event.a.store(a, std::memory_order_relaxed);
  event.b.store(b, std::memory_order_relaxed);
  event.c.store(c, std::memory_order_relaxed);
  event.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  event.rank.store(rank, std::memory_order_relaxed);
  ts.head.store(head + 1, std::memory_order_release);
  if (traced) retain(ts, {ts_ns, name, c, rank, kind});
}

// -------------------------------------------------------------------------
// Async-signal-safe JSON sink: open()/write() plus static formatting only.
// -------------------------------------------------------------------------

ssize_t write_all(int fd, const char* data, size_t len) noexcept {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

struct Sink {
  int fd = -1;
  char buf[4096];
  size_t len = 0;

  void flush() noexcept {
    if (len > 0) write_all(fd, buf, len);
    len = 0;
  }
  Sink& put(char c) noexcept {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
    return *this;
  }
  Sink& raw(const char* s) noexcept {
    while (*s != '\0') put(*s++);
    return *this;
  }
  Sink& u64(std::uint64_t v) noexcept {
    char tmp[24];
    int i = 0;
    do {
      tmp[i++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i > 0) put(tmp[--i]);
    return *this;
  }
  Sink& i64(std::int64_t v) noexcept {
    if (v >= 0) return u64(static_cast<std::uint64_t>(v));
    return put('-').u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
  }
  Sink& hex(std::uint64_t v) noexcept {
    raw("0x");
    char tmp[16];
    int i = 0;
    do {
      tmp[i++] = "0123456789abcdef"[v % 16];
      v /= 16;
    } while (v != 0);
    while (i > 0) put(tmp[--i]);
    return *this;
  }
  Sink& qstr(const char* s) noexcept {
    put('"');
    if (s != nullptr) {
      for (; *s != '\0'; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
          put('\\');
          put(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
          put(' ');
        } else {
          put(c);
        }
      }
    }
    put('"');
    return *this;
  }
};

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    default:
      return "signal";
  }
}

/// Builds the postmortem file path into `out` (size >= kMaxDirLen + 64)
/// without allocating. rank < 0 falls back to postmortem_proc.json.
void build_path(char* out, int rank) noexcept {
  size_t n = 0;
  const auto put = [&](const char* text) {
    while (*text != '\0') out[n++] = *text++;
  };
  for (int i = 0; i < kMaxDirLen; ++i) {
    const char c = g_postmortem_dir[i].load(std::memory_order_acquire);
    if (c == '\0') break;
    out[n++] = c;
  }
  if (n == 0) out[n++] = '.';
  put(rank >= 0 ? "/postmortem_rank" : "/postmortem_proc");
  if (rank >= 0) {
    char digits[16];
    int d = 0;
    auto value = static_cast<unsigned>(rank);
    do {
      digits[d++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    while (d > 0) out[n++] = digits[--d];
  }
  put(".json");
  out[n] = '\0';
}

struct StallBlame {
  const char* op;
  std::int64_t tag;
  int peer;
  int rank;
  std::uint64_t age_ns;
};

void dump_thread(Sink& sink, const ThreadState& ts) {
  sink.raw("{\"tid\": ").u64(ts.tid.load(std::memory_order_relaxed));
  char name[kThreadNameLen];
  load_name(ts.name, name);
  sink.raw(", \"name\": ").qstr(name);
  // The thread's rank is the one bound at its newest event.
  const std::uint64_t head = ts.head.load(std::memory_order_acquire);
  sink.raw(", \"rank\": ");
  sink.i64(head == 0 ? -1
                     : ts.ring[(head - 1) % kRingSize].rank.load(
                           std::memory_order_relaxed));
  sink.raw(", \"alive\": ")
      .raw(ts.active.load(std::memory_order_relaxed) ? "true" : "false");

  // Live span stack, outermost first. depth is the release-published
  // count; frames beyond kMaxSpanDepth were counted, not stored.
  const std::uint32_t open = ts.depth.load(std::memory_order_acquire);
  const std::uint32_t depth = std::min<std::uint32_t>(open, kMaxSpanDepth);
  sink.raw(", \"span_stack\": [");
  for (std::uint32_t i = 0; i < depth; ++i) {
    const SpanFrame& frame = ts.stack[i];
    sink.raw(i > 0 ? ", {\"name\": " : "{\"name\": ")
        .qstr(frame.name.load(std::memory_order_relaxed));
    sink.raw(", \"start_ns\": ")
        .u64(frame.start_ns.load(std::memory_order_relaxed))
        .put('}');
  }
  sink.put(']');
  sink.raw(", \"truncated_spans\": ").u64(open - depth);

  // Recent ring events, oldest first. The owning thread may still be
  // writing: at most the oldest event can be torn (see header contract).
  std::uint64_t first = head > kRingSize ? head - kRingSize : 0;
  sink.raw(", \"events\": [");
  for (std::uint64_t seq = first; seq < head; ++seq) {
    const Event& event = ts.ring[seq % kRingSize];
    if (seq > first) sink.raw(", ");
    sink.raw("{\"kind\": ");
    sink.qstr(event_kind_name(
        static_cast<EventKind>(event.kind.load(std::memory_order_relaxed))));
    sink.raw(", \"name\": ").qstr(event.name.load(std::memory_order_relaxed));
    sink.raw(", \"ts_ns\": ").u64(event.ts_ns.load(std::memory_order_relaxed));
    sink.raw(", \"a\": ").u64(event.a.load(std::memory_order_relaxed));
    sink.raw(", \"b\": ").u64(event.b.load(std::memory_order_relaxed));
    sink.raw(", \"c\": \"")
        .hex(event.c.load(std::memory_order_relaxed))
        .raw("\"}");
  }
  sink.raw("]}");
}

bool write_postmortem_impl(const char* kind, const char* reason, int rank,
                           int signal, const StallBlame* blame) noexcept {
  // One dump at a time: a crash inside the dump (or a concurrent watchdog
  // dump racing a crash) must not recurse or interleave output.
  if (g_in_dump.exchange(1) != 0) return false;

  if (rank < 0) rank = g_process_rank.load(std::memory_order_relaxed);
  if (rank < 0) rank = telemetry::bound_rank();

  char path[kMaxDirLen + 64];
  build_path(path, rank);
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    g_in_dump.store(0, std::memory_order_relaxed);
    return false;
  }

  Sink sink;
  sink.fd = fd;
  sink.raw("{\"schema\": \"ltfb-postmortem-v1\",\n \"kind\": ").qstr(kind);
  sink.raw(",\n \"reason\": ").qstr(reason);
  sink.raw(",\n \"rank\": ").i64(rank);
  sink.raw(",\n \"signal\": ").i64(signal);
  if (signal != 0) {
    sink.raw(",\n \"signal_name\": ").qstr(signal_name(signal));
  }
  sink.raw(",\n \"ts_ns\": ").u64(now_ns());
  const double window = g_watchdog_window_s.load(std::memory_order_relaxed);
  sink.raw(",\n \"watchdog_sec\": ")
      .u64(static_cast<std::uint64_t>(window * 1e3))
      .raw("e-3,\n \"dropped_events\": ")
      .u64(g_dropped.load(std::memory_order_relaxed))
      .raw(",\n \"pending_dropped\": ")
      .u64(g_pending_dropped.load(std::memory_order_relaxed));

  if (blame != nullptr) {
    sink.raw(",\n \"blame\": {\"op\": ").qstr(blame->op);
    sink.raw(", \"tag\": ").i64(blame->tag);
    sink.raw(", \"peer\": ").i64(blame->peer);
    sink.raw(", \"rank\": ").i64(blame->rank);
    sink.raw(", \"age_ns\": ").u64(blame->age_ns).put('}');
  }

  sink.raw(",\n \"heartbeats\": [");
  bool first_hb = true;
  for (int i = 0; i < kHeartbeatSlots; ++i) {
    const std::uint64_t count = g_heartbeats[i].load(std::memory_order_relaxed);
    if (count == 0) continue;
    if (!first_hb) sink.raw(", ");
    first_hb = false;
    sink.raw("{\"rank\": ").i64(i - 1);
    sink.raw(", \"count\": ").u64(count).put('}');
  }
  sink.put(']');

  sink.raw(",\n \"pending_ops\": [");
  bool first_op = true;
  const std::uint64_t now = now_ns();
  for (const auto& slot : g_pending) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    if (!first_op) sink.raw(", ");
    first_op = false;
    sink.raw("{\"op\": ").qstr(slot.op.load(std::memory_order_relaxed));
    sink.raw(", \"tag\": ").i64(slot.tag.load(std::memory_order_relaxed));
    sink.raw(", \"peer\": ").i64(slot.peer.load(std::memory_order_relaxed));
    sink.raw(", \"rank\": ").i64(slot.rank.load(std::memory_order_relaxed));
    const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
    sink.raw(", \"age_ns\": ").u64(now > start ? now - start : 0).put('}');
  }
  sink.put(']');

  sink.raw(",\n \"threads\": [");
  bool first_thread = true;
  for (const auto& ts : g_threads) {
    if (!ts.used.load(std::memory_order_acquire)) continue;
    if (!first_thread) sink.raw(",\n  ");
    first_thread = false;
    dump_thread(sink, ts);
  }
  sink.raw("]}\n");
  sink.flush();
  ::close(fd);
  g_in_dump.store(0, std::memory_order_relaxed);
  return true;
}

extern "C" void ltfb_flight_crash_handler(int sig) {
  write_postmortem_impl("crash", signal_name(sig), -1, sig, nullptr);
  // Restore the default disposition and re-raise so the process still dies
  // by the original signal — the supervisor's WIFSIGNALED attribution (and
  // core dumps, if enabled) survive the detour through the recorder.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SIG_DFL;
  ::sigaction(sig, &action, nullptr);
  ::raise(sig);
}

void watchdog_scan(std::uint64_t window_ns) {
  const std::uint64_t now = now_ns();
  for (auto& slot : g_pending) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
    if (now < start + window_ns) continue;
    const int rank = slot.rank.load(std::memory_order_relaxed);
    const std::uint64_t hb_now =
        g_heartbeats[heartbeat_index(rank)].load(std::memory_order_relaxed);
    if (hb_now != slot.hb_at_entry.load(std::memory_order_relaxed)) {
      // The owning rank made progress elsewhere (compute pool, datastore,
      // round boundary) while this op waited: not a stall. Re-arm the
      // window from now so a later wedge is still caught.
      slot.hb_at_entry.store(hb_now, std::memory_order_relaxed);
      slot.start_ns.store(now, std::memory_order_relaxed);
      continue;
    }
    if (slot.dumped.exchange(true, std::memory_order_acq_rel)) continue;

    StallBlame blame{slot.op.load(std::memory_order_relaxed),
                     slot.tag.load(std::memory_order_relaxed),
                     slot.peer.load(std::memory_order_relaxed), rank,
                     now - start};
    g_stalls_detected.fetch_add(1, std::memory_order_relaxed);
    LTFB_COUNTER_ADD("watchdog/stall_detected", 1);
    LTFB_LOG_WARN("flight",
                  "watchdog/stall_detected op="
                      << (blame.op != nullptr ? blame.op : "?")
                      << " tag=" << blame.tag << " peer=" << blame.peer
                      << " rank=" << blame.rank
                      << " age_ms=" << blame.age_ns / 1000000
                      << " window_ms=" << window_ns / 1000000 << " dump="
                      << postmortem_path(rank));
    write_postmortem_impl("stall", "watchdog/stall_detected", rank, 0, &blame);
  }
}

void watchdog_main(double window_s) {
  telemetry::set_thread_name("telemetry/watchdog");
  const auto window_ns = static_cast<std::uint64_t>(window_s * 1e9);
  // Wake ~4x per window so a stall is declared within window + period
  // <= 2x the configured window (the acceptance bound), clamped so
  // sub-second test windows stay responsive without busy-waiting.
  auto period = std::chrono::duration<double>(window_s / 4.0);
  if (period < std::chrono::milliseconds(10)) {
    period = std::chrono::milliseconds(10);
  }
  if (period > std::chrono::seconds(1)) period = std::chrono::seconds(1);

  std::unique_lock<std::mutex> lock(g_watchdog_mutex);
  while (!g_watchdog_stop) {
    g_watchdog_cv.wait_for(lock, period);
    if (g_watchdog_stop) break;
    lock.unlock();
    watchdog_scan(window_ns);
    lock.lock();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Hot-path sinks (declared in flight_recorder.hpp / telemetry.hpp detail)
// ---------------------------------------------------------------------------

namespace detail {

void flight_record(EventKind kind, const char* name, std::uint64_t a,
                   std::uint64_t b, std::uint64_t c) noexcept {
  ThreadState* ts = recording_slot();
  if (ts == nullptr) return;
  // A comm edge with a correlation id is one endpoint of a trace flow.
  const bool traced =
      (kind == EventKind::CommSend || kind == EventKind::CommRecv) &&
      c != 0 && admit(*ts);
  append_event(*ts, kind, name, a, b, c, now_ns(), traced);
}

void flight_heartbeat() noexcept {
  // A heartbeat only needs to CHANGE while the rank makes progress, so a
  // rate-limited timestamp store beats a counter: an unconditional
  // fetch_add on the shared rank slot from compute workers measured >10%
  // of step time in bench/telemetry_overhead. The read-mostly load keeps
  // the cache line shared between ticks; at most one writer per ms
  // dirties it.
  std::atomic<std::uint64_t>& slot =
      g_heartbeats[heartbeat_index(telemetry::bound_rank())];
  const std::uint64_t now = now_ns();
  const std::uint64_t prev = slot.load(std::memory_order_relaxed);
  if (prev != 0 && now - prev < 1'000'000) return;
  // 0 means "never ticked" — the first tick lands even when the telemetry
  // epoch was primed microseconds ago (now ~ 0).
  slot.store(now != 0 ? now : 1, std::memory_order_relaxed);
}

void flight_heartbeat_hot() noexcept {
  // The per-pool-job variant: called thousands of times per train step, so
  // even the clock read above is too hot (~4% of step time). A
  // thread-local counter decimates to ~1/64 of calls. Decimation only
  // delays liveness on slowly-progressing threads — a stalled rank makes
  // no calls at all, so no stall is ever masked — and every low-frequency
  // site (comm op entry, round boundaries) uses the precise tick.
  thread_local unsigned tl_decimate = 0;
  if ((++tl_decimate & 63u) != 0) return;
  flight_heartbeat();
}

void for_each_trace_item(const std::function<void(const TraceItem&)>& fn) {
  const std::uint64_t gen = g_trace_gen.load(std::memory_order_acquire);
  std::vector<const TraceEvent*> open;  // begins awaiting their end
  for (const Track* track = g_tracks.load(std::memory_order_acquire);
       track != nullptr; track = track->next) {
    if (track->gen != gen) continue;
    char name[kThreadNameLen];
    if (track->owned.load(std::memory_order_acquire)) {
      load_name(track->slot->name, name);
    } else {
      std::memcpy(name, track->final_name, sizeof(name));
    }
    open.clear();
    for (const Chunk* chunk = track->oldest.load(std::memory_order_acquire);
         chunk != nullptr;) {
      // A chunk with a newer one is full; its count was published first.
      const Chunk* newer = chunk->newer.load(std::memory_order_acquire);
      const std::uint32_t n = newer != nullptr
                                  ? Chunk::kEvents
                                  : chunk->count.load(std::memory_order_acquire);
      for (const TraceEvent& e : std::span(chunk->events, n)) {
        if (e.kind == EventKind::SpanBegin) {
          open.push_back(&e);
        } else if (e.kind != EventKind::SpanEnd) {
          fn({e.kind == EventKind::CommSend ? 's' : 'f', e.name, e.ts_ns, 0,
              e.flow, e.rank, track->tid, name});
        } else if (!open.empty()) {  // else it began before clear_trace
          const TraceEvent& begin = *open.back();
          open.pop_back();
          fn({'X', begin.name, begin.ts_ns, e.ts_ns - begin.ts_ns, 0, e.rank,
              track->tid, name});
        }
      }
      chunk = newer;
    }
  }
}

void clear_retained_trace() {
  g_trace_gen.fetch_add(1, std::memory_order_acq_rel);
  Track* track = g_tracks.exchange(nullptr, std::memory_order_acq_rel);
  while (track != nullptr) {
    Track* next = track->next;
    // A track its thread still owns is stale now (exporters skip it); the
    // first clear after its thread lets go frees it.
    if (track->owned.load(std::memory_order_acquire)) {
      push_track(track);
    } else {
      for (Chunk* chunk = track->oldest.load(std::memory_order_relaxed);
           chunk != nullptr;) {
        const std::unique_ptr<Chunk> owner(chunk);
        chunk = chunk->newer.load(std::memory_order_relaxed);
      }
      const std::unique_ptr<Track> owner(track);
    }
    track = next;
  }
  telemetry::detail::g_trace_dropped.store(0, std::memory_order_relaxed);
}

bool span_begin(const char* name) noexcept {
  ThreadState* ts = recording_slot();
  if (ts == nullptr) return false;
  const std::uint64_t now = now_ns();
  const std::uint32_t depth = ts->depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) {
    ts->stack[depth].name.store(name, std::memory_order_relaxed);
    ts->stack[depth].start_ns.store(now, std::memory_order_relaxed);
  }
  ts->depth.store(depth + 1, std::memory_order_release);
  const bool traced = admit(*ts);
  append_event(*ts, EventKind::SpanBegin, name, 0, 0, 0, now, traced);
  return traced;
}

void span_end(const char* name, bool traced) noexcept {
  ThreadState* ts = local_slot();
  if (ts == nullptr) return;
  // reset_for_tests may have zeroed the stack under an open span.
  if (const std::uint32_t depth = ts->depth.load(std::memory_order_relaxed);
      depth > 0) {
    ts->depth.store(depth - 1, std::memory_order_release);
  }
  append_event(*ts, EventKind::SpanEnd, name, 0, 0, 0, now_ns(), traced);
}

}  // namespace detail

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::SpanBegin:
      return "span_begin";
    case EventKind::SpanEnd:
      return "span_end";
    case EventKind::CommOp:
      return "comm_op";
    case EventKind::CommSend:
      return "comm_send";
    case EventKind::CommRecv:
      return "comm_recv";
    case EventKind::WaitBegin:
      return "wait_begin";
    case EventKind::WaitEnd:
      return "wait_end";
    case EventKind::Fault:
      return "fault";
  }
  return "unknown";
}

void set_enabled(bool on) noexcept {
  if (on) {
    // Prime the telemetry epoch outside any signal context: now_ns()
    // initializes a function-local static on first use, which must never
    // happen inside the crash handler.
    (void)now_ns();
    (void)local_slot();
  }
  telemetry::detail::set_switch(telemetry::detail::kFlightSwitch, on);
}

bool init_from_env() {
  if (const char* dir = std::getenv("LTFB_POSTMORTEM_DIR");
      dir != nullptr && dir[0] != '\0') {
    try {
      set_postmortem_dir(dir);
    } catch (const ltfb::InvalidArgument&) {
      LTFB_LOG_WARN("flight", "LTFB_POSTMORTEM_DIR longer than "
                                  << kMaxDirLen
                                  << " chars, keeping previous directory");
    }
  }

  if (util::env_flag("LTFB_FLIGHT_RECORDER")) {
    set_enabled(true);
    install_crash_handler();
  }

  if (const char* window = std::getenv("LTFB_WATCHDOG_SEC");
      window != nullptr && window[0] != '\0') {
    char* end = nullptr;
    const double seconds = std::strtod(window, &end);
    if (end == window || !(seconds > 0.0) || !std::isfinite(seconds)) {
      LTFB_LOG_WARN("flight",
                    "ignoring invalid LTFB_WATCHDOG_SEC=" << window);
    } else if (!g_watchdog_running.load(std::memory_order_acquire)) {
      start_watchdog(seconds);
    }
  }
  return enabled();
}

std::uint64_t heartbeat_count(int rank) noexcept {
  if (rank >= telemetry::detail::kMaxRankScopes) return 0;
  return g_heartbeats[heartbeat_index(rank)].load(std::memory_order_relaxed);
}

std::uint64_t recorded_events() noexcept {
  std::uint64_t total = 0;
  for (const auto& ts : g_threads) {
    total += ts.head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t dropped_events() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Pending-op registry
// ---------------------------------------------------------------------------

PendingOp::PendingOp(const char* op, std::int64_t tag, int peer) noexcept {
  if (!enabled()) return;
  for (auto& slot : g_pending) {
    int expected = 0;
    if (!slot.state.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
      continue;
    }
    const int rank = telemetry::bound_rank();
    slot.op.store(op, std::memory_order_relaxed);
    slot.tag.store(tag, std::memory_order_relaxed);
    slot.peer.store(peer, std::memory_order_relaxed);
    slot.rank.store(rank, std::memory_order_relaxed);
    slot.start_ns.store(now_ns(), std::memory_order_relaxed);
    slot.hb_at_entry.store(
        g_heartbeats[heartbeat_index(rank)].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    slot.dumped.store(false, std::memory_order_relaxed);
    slot.state.store(2, std::memory_order_release);
    slot_ = &slot;
    break;
  }
  if (slot_ == nullptr) {
    g_pending_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  record(EventKind::WaitBegin, op, static_cast<std::uint64_t>(tag),
         static_cast<std::uint64_t>(static_cast<std::int64_t>(peer)));
}

PendingOp::~PendingOp() noexcept {
  if (slot_ == nullptr) return;
  auto* slot = static_cast<PendingSlot*>(slot_);
  record(EventKind::WaitEnd, slot->op.load(std::memory_order_relaxed),
         static_cast<std::uint64_t>(slot->tag.load(std::memory_order_relaxed)),
         static_cast<std::uint64_t>(static_cast<std::int64_t>(
             slot->peer.load(std::memory_order_relaxed))));
  slot->state.store(0, std::memory_order_release);
}

std::vector<PendingOpInfo> pending_ops() {
  std::vector<PendingOpInfo> out;
  const std::uint64_t now = now_ns();
  for (auto& slot : g_pending) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    PendingOpInfo info;
    info.op = slot.op.load(std::memory_order_relaxed);
    info.tag = slot.tag.load(std::memory_order_relaxed);
    info.peer = slot.peer.load(std::memory_order_relaxed);
    info.rank = slot.rank.load(std::memory_order_relaxed);
    const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
    info.age_ns = now > start ? now - start : 0;
    // Drop rows whose slot was released mid-copy; the fields above may
    // belong to a newer claim, and a released op is not pending anyway.
    if (slot.state.load(std::memory_order_acquire) == 2) out.push_back(info);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process identity + postmortems
// ---------------------------------------------------------------------------

void set_process_rank(int rank) {
  if (rank < -1) {
    throw ltfb::InvalidArgument("flight recorder: process rank below -1");
  }
  g_process_rank.store(rank, std::memory_order_relaxed);
}

void set_postmortem_dir(const std::string& dir) {
  if (dir.empty() || dir.size() > kMaxDirLen) {
    throw ltfb::InvalidArgument(
        "flight recorder: postmortem dir empty or too long");
  }
  for (std::size_t i = 0; i < dir.size(); ++i) {
    g_postmortem_dir[i].store(dir[i], std::memory_order_relaxed);
  }
  g_postmortem_dir[dir.size()].store('\0', std::memory_order_release);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
}

std::string postmortem_path(int rank) {
  char path[kMaxDirLen + 64];
  build_path(path, rank >= 0 ? rank
                             : g_process_rank.load(std::memory_order_relaxed));
  return std::string(path);
}

bool write_postmortem(const char* kind, const char* reason, int rank,
                      int signal) noexcept {
  return write_postmortem_impl(kind, reason, rank, signal, nullptr);
}

void install_crash_handler() {
  if (g_crash_handler_installed.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = ltfb_flight_crash_handler;
  sigemptyset(&action.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS}) {
    ::sigaction(sig, &action, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

bool start_watchdog(double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) {
    throw ltfb::InvalidArgument(
        "flight recorder: watchdog window must be positive and finite");
  }
  bool expected = false;
  if (!g_watchdog_running.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
    return false;
  }
  set_enabled(true);
  {
    std::lock_guard<std::mutex> lock(g_watchdog_mutex);
    g_watchdog_stop = false;
  }
  g_watchdog_window_s.store(seconds, std::memory_order_relaxed);
  g_watchdog_thread = std::thread([seconds] { watchdog_main(seconds); });
  return true;
}

void stop_watchdog() noexcept {
  if (!g_watchdog_running.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(g_watchdog_mutex);
    g_watchdog_stop = true;
  }
  g_watchdog_cv.notify_all();
  if (g_watchdog_thread.joinable()) g_watchdog_thread.join();
  g_watchdog_window_s.store(0.0, std::memory_order_relaxed);
  g_watchdog_running.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Test hooks
// ---------------------------------------------------------------------------

void reset_for_tests() {
  for (auto& ts : g_threads) {
    ts.head.store(0, std::memory_order_relaxed);
    ts.depth.store(0, std::memory_order_relaxed);
  }
  for (auto& slot : g_pending) {
    slot.state.store(0, std::memory_order_relaxed);
    slot.dumped.store(false, std::memory_order_relaxed);
  }
  for (auto& hb : g_heartbeats) hb.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_pending_dropped.store(0, std::memory_order_relaxed);
  g_stalls_detected.store(0, std::memory_order_relaxed);
}

}  // namespace ltfb::telemetry::flight

// ---------------------------------------------------------------------------
// Thread names and retroactive spans (declared in telemetry.hpp)
// ---------------------------------------------------------------------------

namespace ltfb::telemetry {

void set_thread_name(std::string_view name) {
  flight::ThreadState* ts = flight::local_slot();
  if (ts == nullptr) return;
  std::size_t i = 0;
  for (; i + 1 < flight::kThreadNameLen && i < name.size(); ++i) {
    ts->name[i].store(name[i], std::memory_order_relaxed);
  }
  ts->name[i].store('\0', std::memory_order_relaxed);
}

void record_interval(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns) noexcept {
  if (!detail::recording()) return;
  flight::ThreadState* ts = flight::recording_slot();
  if (ts == nullptr) return;
  const bool traced = flight::admit(*ts);
  flight::append_event(*ts, flight::EventKind::SpanBegin, name, 0, 0, 0,
                       start_ns, traced);
  flight::append_event(*ts, flight::EventKind::SpanEnd, name, 0, 0, 0,
                       end_ns, traced);
}

}  // namespace ltfb::telemetry
