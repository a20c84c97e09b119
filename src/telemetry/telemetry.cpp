#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "telemetry/flight_recorder.hpp"
#include "util/env.hpp"

namespace ltfb::telemetry {

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

std::uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

bool valid_metric_name(std::string_view name) noexcept {
  // subsystem/verb: at least two lowercase [a-z0-9_]+ segments joined by
  // single '/'. No leading/trailing/doubled slashes.
  bool seen_slash = false;
  bool segment_open = false;
  for (const char c : name) {
    if (c == '/') {
      if (!segment_open) return false;
      seen_slash = true;
      segment_open = false;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      segment_open = true;
    } else {
      return false;
    }
  }
  return seen_slash && segment_open;
}

/// Minimal JSON string escaping (metric names are convention-restricted,
/// but exporters must never emit malformed JSON regardless).
std::string json_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  // JSON has no inf/nan; clamp to a null-safe sentinel.
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 12);
  return std::string(buf, result.ptr);
}

// ---------------------------------------------------------------------------
// Rank binding
// ---------------------------------------------------------------------------

void bind_rank(int rank) {
  LTFB_CHECK_MSG(rank >= -1 && rank < detail::kMaxRankScopes,
                 "telemetry::bind_rank(" << rank << ") outside [-1, "
                                         << detail::kMaxRankScopes << ")");
  detail::tl_bound_rank = rank;
}

namespace {

/// Approximate percentile from the log2 histogram: the upper bound of the
/// bucket where the cumulative count crosses q.
double histogram_percentile(
    const std::array<std::atomic<std::uint64_t>, detail::kTimerBuckets>&
        buckets,
    std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < detail::kTimerBuckets; ++i) {
    cumulative += buckets[i].load(std::memory_order_relaxed);
    if (cumulative >= target && cumulative > 0) {
      return static_cast<double>(1ull << std::min<std::size_t>(i, 62)) * 1e-9;
    }
  }
  return static_cast<double>(1ull << (detail::kTimerBuckets - 1)) * 1e-9;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry storage
// ---------------------------------------------------------------------------

struct Registry::SimSpan {
  std::string name;
  double start_s = 0.0;
  double duration_s = 0.0;
  int lane = 0;
};

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

namespace {

template <typename Slots>
bool name_taken(const Slots& slots, std::string_view name) {
  return std::any_of(slots.begin(), slots.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

constexpr const char* kNameRule =
    "\" violates the subsystem/verb convention ([a-z0-9_]+ segments joined "
    "by '/')";

/// The slot registered as `name` in `mine`, created on first use. Throws
/// for a name registered as another kind (in `other_a` / `other_b`).
template <typename Slots, typename A, typename B>
auto* find_or_add(Slots& mine, const A& other_a, const B& other_b,
                  std::string_view name) {
  for (auto& [slot_name, slot] : mine) {
    if (slot_name == name) return slot.get();
  }
  LTFB_CHECK_MSG(!name_taken(other_a, name) && !name_taken(other_b, name),
                 "telemetry metric \"" << name
                                       << "\" already registered as a "
                                          "different kind");
  using Slot = typename Slots::value_type::second_type::element_type;
  mine.emplace_back(std::string(name), std::make_unique<Slot>());
  return mine.back().second.get();
}

/// Snapshot of the process-wide cells (rank -1) or of rank `rank`'s cells,
/// sorted by name. Rank cells keep no histogram, so their percentiles are 0.
template <typename Counters, typename Gauges, typename Timers>
MetricsSnapshot build_snapshot(const Counters& counters, const Gauges& gauges,
                               const Timers& timers, int rank,
                               std::uint64_t rate_epoch_ns) {
  const double rate_window_s =
      std::max(1e-9, static_cast<double>(now_ns() - rate_epoch_ns) * 1e-9);
  const auto r = static_cast<std::size_t>(rank);
  MetricsSnapshot snap;
  for (const auto& [name, slot] : counters) {
    snap.counters.push_back(
        {name, (rank < 0 ? slot->value : slot->rank_value[r])
                   .load(std::memory_order_relaxed)});
  }
  for (const auto& [name, slot] : gauges) {
    const detail::GaugeRankCell& cell = rank < 0 ? *slot : slot->rank[r];
    snap.gauges.push_back({name, cell.value.load(std::memory_order_relaxed),
                           cell.max.load(std::memory_order_relaxed),
                           cell.sets.load(std::memory_order_relaxed)});
  }
  for (const auto& [name, slot] : timers) {
    const detail::TimerRankCell& cell = rank < 0 ? *slot : slot->rank[r];
    TimerStat stat;
    stat.name = name;
    stat.count = cell.count.load(std::memory_order_relaxed);
    stat.total_s = cell.sum_s.load(std::memory_order_relaxed);
    stat.min_s =
        stat.count ? cell.min_s.load(std::memory_order_relaxed) : 0.0;
    stat.max_s = cell.max_s.load(std::memory_order_relaxed);
    stat.mean_s =
        stat.count ? stat.total_s / static_cast<double>(stat.count) : 0.0;
    stat.rate_per_s = static_cast<double>(stat.count) / rate_window_s;
    if (rank < 0) {
      stat.p50_s = histogram_percentile(slot->buckets, stat.count, 0.50);
      stat.p95_s = histogram_percentile(slot->buckets, stat.count, 0.95);
      stat.p99_s = histogram_percentile(slot->buckets, stat.count, 0.99);
    }
    snap.timers.push_back(std::move(stat));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.timers.begin(), snap.timers.end(), by_name);
  return snap;
}

}  // namespace

Counter Registry::counter(std::string_view name) {
  LTFB_CHECK_MSG(valid_metric_name(name),
                 "telemetry metric name \"" << name << kNameRule);
  const util::MutexLock lock(metrics_mutex_);
  return Counter(find_or_add(counters_, gauges_, timers_, name));
}

Gauge Registry::gauge(std::string_view name) {
  LTFB_CHECK_MSG(valid_metric_name(name),
                 "telemetry metric name \"" << name << kNameRule);
  const util::MutexLock lock(metrics_mutex_);
  return Gauge(find_or_add(gauges_, counters_, timers_, name));
}

Timer Registry::timer(std::string_view name) {
  LTFB_CHECK_MSG(valid_metric_name(name),
                 "telemetry metric name \"" << name << kNameRule);
  const util::MutexLock lock(metrics_mutex_);
  return Timer(find_or_add(timers_, counters_, gauges_, name));
}

MetricsSnapshot Registry::snapshot() const {
  const util::MutexLock lock(metrics_mutex_);
  return build_snapshot(counters_, gauges_, timers_, -1,
                        rate_epoch_ns_.load(std::memory_order_relaxed));
}

MetricsSnapshot Registry::snapshot_rank(int rank) const {
  LTFB_CHECK_MSG(rank >= 0 && rank < detail::kMaxRankScopes,
                 "telemetry snapshot_rank(" << rank << ") outside [0, "
                                            << detail::kMaxRankScopes << ")");
  const util::MutexLock lock(metrics_mutex_);
  return build_snapshot(counters_, gauges_, timers_, rank,
                        rate_epoch_ns_.load(std::memory_order_relaxed));
}

void Registry::reset_metrics() noexcept {
  const auto zero_gauge = [](detail::GaugeRankCell& cell) {
    cell.value.store(0.0, std::memory_order_relaxed);
    cell.max.store(0.0, std::memory_order_relaxed);
    cell.sets.store(0, std::memory_order_relaxed);
  };
  const auto zero_timer = [](detail::TimerRankCell& cell) {
    cell.count.store(0, std::memory_order_relaxed);
    cell.sum_s.store(0.0, std::memory_order_relaxed);
    cell.min_s.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    cell.max_s.store(0.0, std::memory_order_relaxed);
  };
  const util::MutexLock lock(metrics_mutex_);
  for (auto& [name, slot] : counters_) {
    slot->value.store(0, std::memory_order_relaxed);
    for (auto& cell : slot->rank_value) {
      cell.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, slot] : gauges_) {
    zero_gauge(*slot);
    for (auto& cell : slot->rank) zero_gauge(cell);
  }
  for (auto& [name, slot] : timers_) {
    zero_timer(*slot);
    for (auto& bucket : slot->buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    for (auto& cell : slot->rank) zero_timer(cell);
  }
  rate_epoch_ns_.store(now_ns(), std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

void Registry::record_sim_span(std::string name, double start_s,
                               double duration_s, int lane) {
  LTFB_CHECK_MSG(valid_metric_name(name),
                 "telemetry sim span name \""
                     << name << "\" violates the subsystem/verb convention");
  LTFB_CHECK_MSG(start_s >= 0.0 && duration_s >= 0.0,
                 "sim span " << name << " has negative time: start "
                             << start_s << "s duration " << duration_s
                             << "s");
  if (!enabled()) return;
  const util::MutexLock lock(export_mutex_);
  if (sim_spans_.size() >= kMaxSimSpans) {
    detail::g_trace_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sim_spans_.push_back({std::move(name), start_s, duration_s, lane});
}

namespace {

/// Trace items whose `ph` is one of `phases`.
std::size_t count_items(std::string_view phases) {
  std::size_t total = 0;
  flight::detail::for_each_trace_item([&](const auto& item) {
    total += phases.find(item.ph) != std::string_view::npos;
  });
  return total;
}

}  // namespace

std::size_t Registry::span_count() const {
  const util::MutexLock lock(export_mutex_);
  return count_items("X");
}

std::size_t Registry::sim_span_count() const {
  const util::MutexLock lock(export_mutex_);
  return sim_spans_.size();
}

std::size_t Registry::flow_count() const {
  const util::MutexLock lock(export_mutex_);
  return count_items("sf");
}

void Registry::clear_trace() {
  const util::MutexLock lock(export_mutex_);
  flight::detail::clear_retained_trace();
  sim_spans_.clear();
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

void Registry::write_metrics_json(std::ostream& out) const {
  const MetricsSnapshot snap = snapshot();
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i ? "," : "") << "\n    \"" << json_escape(snap.counters[i].name)
        << "\": " << snap.counters[i].value;
  }
  out << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    out << (i ? "," : "") << "\n    \"" << json_escape(g.name)
        << "\": {\"value\": " << json_double(g.value)
        << ", \"max\": " << json_double(g.max) << ", \"sets\": " << g.sets
        << "}";
  }
  out << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"timers\": {";
  for (std::size_t i = 0; i < snap.timers.size(); ++i) {
    const auto& t = snap.timers[i];
    out << (i ? "," : "") << "\n    \"" << json_escape(t.name)
        << "\": {\"count\": " << t.count
        << ", \"total_s\": " << json_double(t.total_s)
        << ", \"min_s\": " << json_double(t.min_s)
        << ", \"max_s\": " << json_double(t.max_s)
        << ", \"mean_s\": " << json_double(t.mean_s)
        << ", \"p50_s\": " << json_double(t.p50_s)
        << ", \"p95_s\": " << json_double(t.p95_s)
        << ", \"p99_s\": " << json_double(t.p99_s)
        << ", \"rate_per_s\": " << json_double(t.rate_per_s) << "}";
  }
  out << (snap.timers.empty() ? "" : "\n  ") << "}\n}\n";
}

std::string Registry::metrics_json() const {
  std::ostringstream oss;
  write_metrics_json(oss);
  return oss.str();
}

namespace {

/// Atomic artifact write matching export_history_csv: the body goes to a
/// temp sibling and is renamed over the target only after a healthy
/// flush+close, so a crash (or a concurrent reader — CI validators poll
/// these files) never sees a torn export. Missing parent directories are
/// created so LTFB_TELEMETRY_OUT=dir/that/does/not/exist/trace.json works.
template <typename WriteBody>
bool atomic_export(const std::string& path, WriteBody&& write_body) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    write_body(out);
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    return false;
  }
  return true;
}

}  // namespace

bool Registry::write_metrics_json(const std::string& path) const {
  return atomic_export(path,
                       [this](std::ostream& out) { write_metrics_json(out); });
}

namespace {

/// pid of the track an event recorded under rank binding `rank` lands on.
int rank_pid(int rank) { return rank >= 0 ? kRankPidBase + rank : 1; }

}  // namespace

void Registry::write_trace_json(std::ostream& out) const {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    out.write(first ? "  " : ",\n  ", first ? 2 : 4);
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    first = false;
  };
  // Process metadata for the two fixed time-base tracks.
  emit(R"({"ph": "M", "name": "process_name", "pid": 1, "tid": 0, )"
       R"("args": {"name": "wall clock"}})");
  emit(R"({"ph": "M", "name": "process_name", "pid": 2, "tid": 0, )"
       R"("args": {"name": "simulator virtual time"}})");

  const util::MutexLock lock(export_mutex_);
  // Metadata is emitted last: Chrome and Perfetto read it wherever it
  // appears, and only the events tell which rank pids and named (pid,
  // tid) tracks exist — a named pool worker's spans can land on several
  // rank pids over its lifetime.
  std::array<bool, static_cast<std::size_t>(detail::kMaxRankScopes)>
      rank_seen{};
  std::map<std::pair<int, std::uint32_t>, std::string> named_tracks;
  // Events are formatted without streams: a trace can hold millions.
  std::string text;
  const auto append_int = [&text](std::uint64_t v, int base = 10) {
    char buf[24];
    text.append(buf, std::to_chars(buf, buf + sizeof(buf), v, base).ptr);
  };
  // Nanoseconds as exact microseconds (ns/1000 "." ns%1000).
  const auto append_us = [&](std::uint64_t ns) {
    append_int(ns / 1000);
    const char frac[4] = {'.', static_cast<char>('0' + ns / 100 % 10),
                          static_cast<char>('0' + ns / 10 % 10),
                          static_cast<char>('0' + ns % 10)};
    text.append(frac, sizeof(frac));
  };
  flight::detail::for_each_trace_item([&](const auto& item) {
    const int pid = rank_pid(item.rank);
    if (item.rank >= 0) rank_seen[static_cast<std::size_t>(item.rank)] = true;
    if (!item.thread.empty()) {
      named_tracks.try_emplace({pid, item.tid}, item.thread);
    }
    text.clear();
    if (item.ph == 'X') {
      text += "{\"name\": \"";
      text += json_escape(item.name);
      text += "\", \"cat\": \"wall\", \"ph\": \"X\", \"ts\": ";
      append_us(item.ts_ns);
      text += ", \"dur\": ";
      append_us(item.dur_ns);
    } else {
      // Flow ids can use all 64 bits; emit as hex strings so no JSON
      // consumer rounds them through a double.
      text += "{\"name\": \"comm/flow\", \"cat\": \"flow\", \"ph\": \"";
      text += item.ph;
      text += "\", \"id\": \"0x";
      append_int(item.flow, 16);
      text += "\", \"ts\": ";
      append_us(item.ts_ns);
    }
    text += ", \"pid\": ";
    append_int(static_cast<std::uint64_t>(pid));
    text += ", \"tid\": ";
    append_int(item.tid);
    text += item.ph == 'f' ? ", \"bp\": \"e\"}" : "}";
    emit(text);
  });
  for (const auto& span : sim_spans_) {
    std::ostringstream line;
    line << "{\"name\": \"" << json_escape(span.name)
         << "\", \"cat\": \"sim\", \"ph\": \"X\", \"ts\": "
         << json_double(span.start_s * 1e6)
         << ", \"dur\": " << json_double(span.duration_s * 1e6)
         << ", \"pid\": 2, \"tid\": " << span.lane << "}";
    emit(line.str());
  }
  for (int r = 0; r < detail::kMaxRankScopes; ++r) {
    if (!rank_seen[static_cast<std::size_t>(r)]) continue;
    emit(R"({"ph": "M", "name": "process_name", "pid": )" +
         std::to_string(rank_pid(r)) +
         R"(, "tid": 0, "args": {"name": "rank )" + std::to_string(r) +
         R"("}})");
  }
  for (const auto& [track, name] : named_tracks) {
    emit(R"({"ph": "M", "name": "thread_name", "pid": )" +
         std::to_string(track.first) + R"(, "tid": )" +
         std::to_string(track.second) + R"(, "args": {"name": ")" +
         json_escape(name) + R"("}})");
  }
  emit(R"({"ph": "M", "name": "dropped_events", "pid": 1, "tid": 0, )"
       R"("args": {"count": )" +
       std::to_string(dropped_spans()) + "}}");
  out << "\n]}\n";
}

std::string Registry::trace_json() const {
  std::ostringstream oss;
  write_trace_json(oss);
  return oss.str();
}

bool Registry::write_trace_json(const std::string& path) const {
  return atomic_export(path,
                       [this](std::ostream& out) { write_trace_json(out); });
}

void Registry::log_metrics(util::LogLevel level) const {
  const MetricsSnapshot snap = snapshot();
  auto& logger = util::Logger::instance();
  if (!logger.enabled(level)) return;
  for (const auto& c : snap.counters) {
    std::ostringstream oss;
    oss << c.name << " = " << c.value;
    logger.write(level, "telemetry", oss.str());
  }
  for (const auto& g : snap.gauges) {
    std::ostringstream oss;
    oss << g.name << " = " << g.value << " (max " << g.max << ")";
    logger.write(level, "telemetry", oss.str());
  }
  for (const auto& t : snap.timers) {
    std::ostringstream oss;
    oss << t.name << ": count " << t.count << ", total " << t.total_s
        << "s, mean " << t.mean_s << "s, p95 " << t.p95_s << "s";
    logger.write(level, "telemetry", oss.str());
  }
}

// ---------------------------------------------------------------------------
// Environment-driven setup
// ---------------------------------------------------------------------------

bool init_from_env() {
  const bool on = std::getenv("LTFB_TELEMETRY") != nullptr
                      ? util::env_flag("LTFB_TELEMETRY")
                      : std::getenv("LTFB_TELEMETRY_OUT") != nullptr ||
                            std::getenv("LTFB_TELEMETRY_METRICS") != nullptr;
  Registry::instance().set_enabled(on);
  return on;
}

std::string flush_from_env() {
  auto& registry = Registry::instance();
  std::string summary;
  if (const char* trace_out = std::getenv("LTFB_TELEMETRY_OUT")) {
    if (registry.write_trace_json(std::string(trace_out))) {
      summary += "trace -> " + std::string(trace_out);
    } else {
      LTFB_LOG_WARN("telemetry",
                    "failed to write trace to " << trace_out);
    }
  }
  if (const char* metrics_out = std::getenv("LTFB_TELEMETRY_METRICS")) {
    if (registry.write_metrics_json(std::string(metrics_out))) {
      summary += (summary.empty() ? "" : ", ");
      summary += "metrics -> " + std::string(metrics_out);
    } else {
      LTFB_LOG_WARN("telemetry",
                    "failed to write metrics to " << metrics_out);
    }
  }
  return summary;
}

}  // namespace ltfb::telemetry
