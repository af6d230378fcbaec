#include "obs/live.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/contracts.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"

namespace tc3i::obs {

namespace {

std::uint64_t steady_ns_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

LiveBus* g_live_bus = nullptr;

}  // namespace

LiveBus* live_bus() { return g_live_bus; }

void set_live_bus(LiveBus* bus) { g_live_bus = bus; }

LiveBus::LiveBus(WatchdogConfig watchdog)
    : anchor_ns_(steady_ns_now()), watchdog_(watchdog) {
  TC3I_EXPECTS(watchdog_.slow_point_k > 0.0 &&
               watchdog_.heartbeat_timeout_seconds > 0.0);
}

std::uint64_t LiveBus::now_ns() const { return steady_ns_now() - anchor_ns_; }

double LiveBus::now_seconds() const {
  return static_cast<double>(now_ns()) * 1e-9;
}

void LiveBus::add_points(std::uint64_t n) {
  points_total_.fetch_add(n, std::memory_order_relaxed);
}

void LiveBus::begin_point(std::uint32_t w, std::uint64_t point) {
  Cell& c = cells_[w % kMaxWorkers];
  const std::uint64_t now = now_ns();
  c.current_point.store(point, std::memory_order_relaxed);
  c.point_start_ns.store(now, std::memory_order_relaxed);
  c.heartbeat_ns.store(now, std::memory_order_relaxed);
  c.touched.store(1, std::memory_order_relaxed);
}

void LiveBus::end_point(std::uint32_t w) {
  Cell& c = cells_[w % kMaxWorkers];
  const std::uint64_t now = now_ns();
  const std::uint64_t start = c.point_start_ns.load(std::memory_order_relaxed);
  const std::uint64_t idx =
      sample_head_.fetch_add(1, std::memory_order_relaxed) % kSampleCap;
  samples_ns_[idx].store(now > start ? now - start : 0,
                         std::memory_order_relaxed);
  c.current_point.store(kNoPoint, std::memory_order_relaxed);
  c.points_done.fetch_add(1, std::memory_order_relaxed);
  c.heartbeat_ns.store(now, std::memory_order_relaxed);
}

void LiveBus::complete_point(std::uint32_t w, std::uint64_t point,
                             std::uint64_t duration_ns) {
  Cell& c = cells_[w % kMaxWorkers];
  const std::uint64_t idx =
      sample_head_.fetch_add(1, std::memory_order_relaxed) % kSampleCap;
  samples_ns_[idx].store(duration_ns, std::memory_order_relaxed);
  c.points_done.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t expected = point;
  c.current_point.compare_exchange_strong(expected, kNoPoint,
                                          std::memory_order_relaxed);
  c.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  c.touched.store(1, std::memory_order_relaxed);
}

void LiveBus::idle(std::uint32_t w) {
  Cell& c = cells_[w % kMaxWorkers];
  c.current_point.store(kNoPoint, std::memory_order_relaxed);
  c.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
}

void LiveBus::record_cache(bool hit) {
  (hit ? cache_hits_ : cache_misses_).fetch_add(1, std::memory_order_relaxed);
}

void LiveBus::set_bench(const std::string& bench) {
  const std::lock_guard<std::mutex> lock(mu_);
  bench_ = bench;
}

void LiveBus::set_phase(const std::string& phase) {
  const std::lock_guard<std::mutex> lock(mu_);
  phase_ = phase;
}

double LiveBus::median_sample_seconds() const {
  const std::uint64_t head = sample_head_.load(std::memory_order_relaxed);
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(head, kSampleCap));
  if (n == 0) return 0.0;
  std::vector<std::uint64_t> copy(n);
  for (std::size_t i = 0; i < n; ++i)
    copy[i] = samples_ns_[i].load(std::memory_order_relaxed);
  const std::size_t mid = n / 2;
  std::nth_element(copy.begin(),
                   copy.begin() + static_cast<std::ptrdiff_t>(mid),
                   copy.end());
  return static_cast<double>(copy[mid]) * 1e-9;
}

std::uint32_t LiveBus::workers_seen() const {
  std::uint32_t seen = 0;
  for (const Cell& c : cells_)
    if (c.touched.load(std::memory_order_relaxed) != 0) ++seen;
  return seen;
}

LiveBus::Progress LiveBus::progress() const {
  Progress p;
  p.total = points_total_.load(std::memory_order_relaxed);
  for (const Cell& c : cells_)
    p.done += c.points_done.load(std::memory_order_relaxed);
  // Zero completed points early in a sweep must yield zero rate and zero
  // ETA (rendered as "eta ?" by the ticker), never a division by zero.
  const double elapsed = now_seconds();
  if (p.done > 0 && elapsed > 0.0)
    p.points_per_sec = static_cast<double>(p.done) / elapsed;
  p.median_point_seconds = median_sample_seconds();
  const std::uint64_t remaining = p.total > p.done ? p.total - p.done : 0;
  // Prefer the robust per-point median spread over the workers actually
  // seen; before any point completes, extrapolate from cumulative rate.
  if (remaining > 0) {
    const std::uint32_t seen = std::max<std::uint32_t>(1, workers_seen());
    if (p.median_point_seconds > 0.0)
      p.eta_seconds = p.median_point_seconds *
                      static_cast<double>(remaining) /
                      static_cast<double>(seen);
    else if (p.points_per_sec > 0.0)
      p.eta_seconds = static_cast<double>(remaining) / p.points_per_sec;
  }
  return p;
}

LiveStatus LiveBus::snapshot(bool done) {
  LiveStatus s;
  const double now_s = now_seconds();
  s.at_seconds = now_s;
  s.done = done;
  s.median_point_seconds = median_sample_seconds();
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.host = sample_host_usage();

  // One fold over the cells produces the worker list, the points-done sum
  // AND the watchdog candidates, so the snapshot is internally consistent
  // (points.done always equals the workers' sum) even while workers keep
  // advancing. The cells are read with the same relaxed loads the workers
  // write with; a snapshot is a sample, not a barrier.
  const double slow_threshold =
      std::max(watchdog_.slow_point_k * s.median_point_seconds,
               watchdog_.slow_point_min_seconds);
  const std::uint64_t samples = sample_head_.load(std::memory_order_relaxed);
  const bool slow_armed = samples >= watchdog_.slow_point_min_samples;
  std::vector<LiveAnomaly> found;
  for (std::uint32_t w = 0; w < kMaxWorkers; ++w) {
    const Cell& c = cells_[w];
    if (c.touched.load(std::memory_order_relaxed) == 0) continue;
    LiveWorkerStatus ws;
    ws.worker = w;
    ws.current_point = c.current_point.load(std::memory_order_relaxed);
    ws.running = ws.current_point != kNoPoint;
    ws.points_done = c.points_done.load(std::memory_order_relaxed);
    const double hb =
        static_cast<double>(c.heartbeat_ns.load(std::memory_order_relaxed)) *
        1e-9;
    ws.heartbeat_age_seconds = std::max(0.0, now_s - hb);
    if (ws.running) {
      const double start =
          static_cast<double>(
              c.point_start_ns.load(std::memory_order_relaxed)) *
          1e-9;
      ws.point_age_seconds = std::max(0.0, now_s - start);
      if (slow_armed && ws.point_age_seconds > slow_threshold)
        found.push_back(LiveAnomaly{"slow_point", w, ws.current_point, now_s,
                                    ws.point_age_seconds, slow_threshold});
    }
    if (ws.running &&
        ws.heartbeat_age_seconds > watchdog_.heartbeat_timeout_seconds)
      found.push_back(LiveAnomaly{"stalled_worker", w, ws.current_point,
                                  now_s, ws.heartbeat_age_seconds,
                                  watchdog_.heartbeat_timeout_seconds});
    s.points_done += ws.points_done;
    s.workers.push_back(ws);
  }
  // Read the total AFTER the fold: every completed point's add_points call
  // preceded its completion, so this order keeps done <= total even while
  // workers race the snapshot.
  s.points_total = points_total_.load(std::memory_order_relaxed);
  // Same zero-completed guard as progress(): rate and ETA stay 0 (not
  // estimable) until the first point lands, never NaN/inf.
  if (s.points_done > 0 && now_s > 0.0)
    s.throughput_points_per_sec =
        static_cast<double>(s.points_done) / now_s;
  const std::uint64_t remaining =
      s.points_total > s.points_done ? s.points_total - s.points_done : 0;
  if (remaining > 0) {
    const std::uint32_t seen = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(s.workers.size()));
    if (s.median_point_seconds > 0.0)
      s.eta_seconds = s.median_point_seconds *
                      static_cast<double>(remaining) /
                      static_cast<double>(seen);
    else if (s.throughput_points_per_sec > 0.0)
      s.eta_seconds =
          static_cast<double>(remaining) / s.throughput_points_per_sec;
  }

  bool first_anomaly = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const bool had_anomalies = !anomalies_.empty();
    for (LiveAnomaly& a : found) {
      const AnomalyKey key{
          static_cast<std::uint8_t>(a.kind == "slow_point" ? 0 : 1), a.worker,
          a.point};
      if (std::find(raised_.begin(), raised_.end(), key) != raised_.end())
        continue;
      raised_.push_back(key);
      anomalies_.push_back(std::move(a));
    }
    first_anomaly = !had_anomalies && !anomalies_.empty();
    s.anomalies = anomalies_;
    s.bench = bench_;
    s.phase = phase_;
    s.version = ++version_;
  }
  // Black-box trigger: the first anomaly ever raised snapshots the flight
  // rings (no-op unless --flight-out configured a dump path). Outside
  // mu_ so the dump's file I/O never blocks other publisher-side calls.
  if (first_anomaly) flight::on_first_anomaly(s);
  return s;
}

std::vector<LiveAnomaly> LiveBus::anomalies() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return anomalies_;
}

void LiveBus::write_status_json(const LiveStatus& status, std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.field("kind", "live_status");
  w.field("schema_version", std::uint64_t{1});
  w.field("bench", status.bench);
  w.field("phase", status.phase);
  w.field("version", status.version);
  w.field("at_seconds", status.at_seconds);
  w.field("done", status.done);
  w.key("points");
  w.begin_object();
  w.field("total", status.points_total);
  w.field("done", status.points_done);
  w.field("throughput_per_sec", status.throughput_points_per_sec);
  w.field("eta_seconds", status.eta_seconds);
  w.field("median_point_seconds", status.median_point_seconds);
  w.end_object();
  w.key("cache");
  w.begin_object();
  w.field("hits", status.cache_hits);
  w.field("misses", status.cache_misses);
  w.end_object();
  w.key("host");
  w.begin_object();
  w.field("wall_seconds", status.host.wall_seconds);
  w.field("user_cpu_seconds", status.host.user_cpu_seconds);
  w.field("sys_cpu_seconds", status.host.sys_cpu_seconds);
  w.field("max_rss_kb", status.host.max_rss_kb);
  w.field("minor_faults", status.host.minor_faults);
  w.field("major_faults", status.host.major_faults);
  w.end_object();
  w.key("workers");
  w.begin_array();
  for (const LiveWorkerStatus& ws : status.workers) {
    w.begin_object();
    w.field("worker", static_cast<std::uint64_t>(ws.worker));
    w.field("state", ws.running ? "running" : "idle");
    if (ws.running) w.field("point", ws.current_point);
    w.field("points_done", ws.points_done);
    w.field("heartbeat_age_seconds", ws.heartbeat_age_seconds);
    w.field("point_age_seconds", ws.point_age_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("anomalies");
  write_anomalies_json(w, status.anomalies);
  w.end_object();
  out << '\n';
}

void write_anomalies_json(JsonWriter& w,
                          const std::vector<LiveAnomaly>& anomalies) {
  w.begin_array();
  for (const LiveAnomaly& a : anomalies) {
    w.begin_object();
    w.field("kind", a.kind);
    w.field("worker", static_cast<std::uint64_t>(a.worker));
    if (a.point != LiveBus::kNoPoint) w.field("point", a.point);
    w.field("at_seconds", a.at_seconds);
    w.field("observed_seconds", a.observed_seconds);
    w.field("threshold_seconds", a.threshold_seconds);
    w.end_object();
  }
  w.end_array();
}

bool LiveBus::write_status_file(const LiveStatus& status,
                                const std::string& path, std::string* error) {
  TC3I_EXPECTS(!path.empty());
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    write_status_json(status, out);
    if (!out) {
      if (error != nullptr) *error = "short write to " + tmp;
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr)
      *error = "rename " + tmp + " -> " + path + ": " + ec.message();
    return false;
  }
  return true;
}

// --- LivePublisher -----------------------------------------------------------

LivePublisher::LivePublisher(LiveBus& bus, std::string path, int period_ms)
    : bus_(bus), path_(std::move(path)), period_(period_ms) {
  TC3I_EXPECTS(!path_.empty() && period_ms >= 1);
  thread_ = std::thread([this]() { run(); });
}

LivePublisher::~LivePublisher() { finish(); }

void LivePublisher::run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, period_, [this]() { return stop_; });
    if (stop_) return;
    lock.unlock();
    const LiveStatus status = bus_.snapshot(/*done=*/false);
    std::string error;
    const bool ok = LiveBus::write_status_file(status, path_, &error);
    lock.lock();
    if (ok) {
      ++published_;
    } else {
      // Publishing is advisory; complain once and keep simulating.
      std::fprintf(stderr, "[obs] status write failed: %s\n", error.c_str());
      stop_ = true;
      return;
    }
  }
}

std::uint64_t LivePublisher::finish() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return published_;
    finished_ = true;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  const LiveStatus status = bus_.snapshot(/*done=*/true);
  std::string error;
  if (LiveBus::write_status_file(status, path_, &error)) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++published_;
  } else {
    std::fprintf(stderr, "[obs] final status write failed: %s\n",
                 error.c_str());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

}  // namespace tc3i::obs
