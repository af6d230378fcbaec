#include "obs/live.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/contracts.hpp"
#include "obs/json.hpp"
#include "obs/trace_sink.hpp"
#include "obs/write_file.hpp"

namespace tc3i::obs {

namespace {

LiveBus* g_live_bus = nullptr;

}  // namespace

LiveBus* live_bus() { return g_live_bus; }

void set_live_bus(LiveBus* bus) { g_live_bus = bus; }

LiveBus::LiveBus(WatchdogConfig watchdog)
    : anchor_(std::chrono::steady_clock::now()), watchdog_(watchdog) {
  TC3I_EXPECTS(watchdog_.slow_point_k > 0.0 &&
               watchdog_.heartbeat_timeout_seconds > 0.0);
}

double LiveBus::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       anchor_)
      .count();
}

std::uint32_t LiveBus::begin_sweep(std::uint64_t points, int jobs,
                                   double submit_s) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::uint32_t>(sweeps_.size());
  sweeps_.push_back(SweepInfo{points, jobs, submit_s});
  points_total_ += points;
  return id;
}

void LiveBus::begin_point(std::uint32_t w, std::uint32_t sweep,
                          std::uint64_t point, double start_s) {
  const std::lock_guard<std::mutex> lock(mu_);
  TC3I_EXPECTS(sweep < sweeps_.size());
  if (w >= workers_.size()) workers_.resize(std::size_t{w} + 1);
  WorkerSlot& slot = workers_[w];
  slot.running = true;
  slot.sweep = sweep;
  slot.point = point;
  slot.start_seconds = start_s;
  slot.heartbeat_seconds = start_s;
}

void LiveBus::end_point(std::uint32_t w, double end_s) {
  const std::lock_guard<std::mutex> lock(mu_);
  TC3I_EXPECTS(w < workers_.size() && workers_[w].running);
  WorkerSlot& slot = workers_[w];
  spans_.push_back(PointSpan{slot.sweep, slot.point, w,
                             sweeps_[slot.sweep].submit_seconds,
                             slot.start_seconds, end_s});
  slot.running = false;
  slot.heartbeat_seconds = end_s;
  ++slot.points_done;
}

void LiveBus::record_cache(bool hit) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++(hit ? cache_hits_ : cache_misses_);
}

void LiveBus::set_bench(const std::string& bench) {
  const std::lock_guard<std::mutex> lock(mu_);
  bench_ = bench;
}

void LiveBus::set_phase(const std::string& phase) {
  const std::lock_guard<std::mutex> lock(mu_);
  phase_ = phase;
}

LiveBus::Progress LiveBus::progress(double now_s) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return progress_locked(now_s);
}

LiveBus::Progress LiveBus::progress_locked(double now_s) const {
  Progress p;
  p.total = points_total_;
  p.done = spans_.size();
  if (!spans_.empty()) {
    std::vector<double> durations;
    durations.reserve(spans_.size());
    for (const PointSpan& s : spans_)
      durations.push_back(std::max(0.0, s.end_seconds - s.start_seconds));
    const std::size_t mid = durations.size() / 2;
    std::nth_element(durations.begin(),
                     durations.begin() + static_cast<std::ptrdiff_t>(mid),
                     durations.end());
    p.median_point_seconds = durations[mid];
  }
  // Zero completed points early in a sweep must yield zero rate and zero
  // ETA (rendered as "eta ?" by the ticker), never a division by zero.
  if (p.done > 0 && now_s > 0.0)
    p.points_per_sec = static_cast<double>(p.done) / now_s;
  const std::uint64_t remaining = p.total > p.done ? p.total - p.done : 0;
  // Prefer the robust per-point median spread over the workers actually
  // seen; before any point completes, extrapolate from cumulative rate.
  if (remaining > 0) {
    const auto seen = std::max<std::ptrdiff_t>(
        1, std::count_if(workers_.begin(), workers_.end(),
                         [](const WorkerSlot& s) { return s.touched(); }));
    if (p.median_point_seconds > 0.0)
      p.eta_seconds = p.median_point_seconds *
                      static_cast<double>(remaining) /
                      static_cast<double>(seen);
    else if (p.points_per_sec > 0.0)
      p.eta_seconds = static_cast<double>(remaining) / p.points_per_sec;
  }
  return p;
}

LiveStatus LiveBus::snapshot(double now_s, bool done) {
  LiveStatus s;
  s.at_seconds = now_s;
  s.done = done;
  s.host = sample_host_usage();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const Progress p = progress_locked(now_s);
    s.points_total = p.total;
    s.points_done = p.done;
    s.throughput_points_per_sec = p.points_per_sec;
    s.eta_seconds = p.eta_seconds;
    s.median_point_seconds = p.median_point_seconds;
    s.cache_hits = cache_hits_;
    s.cache_misses = cache_misses_;

    const double slow_threshold =
        std::max(watchdog_.slow_point_k * s.median_point_seconds,
                 watchdog_.slow_point_min_seconds);
    const bool slow_armed = spans_.size() >= watchdog_.slow_point_min_samples;
    std::vector<LiveAnomaly> found;
    for (std::uint32_t w = 0; w < workers_.size(); ++w) {
      const WorkerSlot& slot = workers_[w];
      if (!slot.touched()) continue;
      LiveWorkerStatus ws;
      ws.worker = w;
      ws.running = slot.running;
      ws.current_point = slot.running ? slot.point : kNoPoint;
      ws.points_done = slot.points_done;
      ws.heartbeat_age_seconds = std::max(0.0, now_s - slot.heartbeat_seconds);
      if (ws.running) {
        ws.point_age_seconds = std::max(0.0, now_s - slot.start_seconds);
        if (slow_armed && ws.point_age_seconds > slow_threshold)
          found.push_back(LiveAnomaly{"slow_point", w, ws.current_point,
                                      now_s, ws.point_age_seconds,
                                      slow_threshold});
        if (ws.heartbeat_age_seconds > watchdog_.heartbeat_timeout_seconds)
          found.push_back(LiveAnomaly{"stalled_worker", w, ws.current_point,
                                      now_s, ws.heartbeat_age_seconds,
                                      watchdog_.heartbeat_timeout_seconds});
      }
      s.workers.push_back(ws);
    }

    for (LiveAnomaly& a : found) {
      const AnomalyKey key{
          static_cast<std::uint8_t>(a.kind == "slow_point" ? 0 : 1), a.worker,
          a.point};
      if (std::find(raised_.begin(), raised_.end(), key) != raised_.end())
        continue;
      raised_.push_back(key);
      anomalies_.push_back(std::move(a));
    }
    s.anomalies = anomalies_;
    s.bench = bench_;
    s.phase = phase_;
    s.version = ++version_;
  }
  return s;
}

std::vector<LiveAnomaly> LiveBus::anomalies() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return anomalies_;
}

LiveBus::Summary LiveBus::summary() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Summary s;
  s.sweeps = sweeps_.size();
  for (const SweepInfo& info : sweeps_)
    s.max_jobs = std::max(s.max_jobs, info.jobs);
  s.points = spans_.size();
  for (const PointSpan& span : spans_) {
    s.queue_wait_seconds += span.start_seconds - span.submit_seconds;
    s.execute_seconds += span.end_seconds - span.start_seconds;
  }
  return s;
}

std::vector<PointSpan> LiveBus::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SweepInfo> LiveBus::sweeps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sweeps_;
}

void LiveBus::write_chrome_trace(std::ostream& out) const {
  // Spans are copied and sorted into (sweep, point) order so the trace is
  // independent of completion interleaving.
  std::vector<PointSpan> sorted = spans();
  std::sort(sorted.begin(), sorted.end(),
            [](const PointSpan& a, const PointSpan& b) {
              if (a.sweep != b.sweep) return a.sweep < b.sweep;
              return a.point < b.point;
            });
  TraceSink sink;
  const std::uint32_t track = sink.register_track("sweep scheduler");
  for (const PointSpan& s : sorted) {
    std::string tag = "s";
    tag += std::to_string(s.sweep);
    tag += ".p";
    tag += std::to_string(s.point);
    const double submit_us = s.submit_seconds * 1e6;
    const double start_us = s.start_seconds * 1e6;
    const double end_us = s.end_seconds * 1e6;
    if (start_us > submit_us)
      sink.complete(Category::Sched, "queue " + tag, submit_us,
                    start_us - submit_us, track, s.worker);
    sink.complete(Category::Sched, "run " + tag, start_us,
                  std::max(0.0, end_us - start_us), track, s.worker);
  }
  sink.write_chrome_json(out);
}

bool LiveBus::write_chrome_trace_file(const std::string& path,
                                      std::string* error) const {
  return write_file(
      path, [this](std::ostream& out) { write_chrome_trace(out); }, error);
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
  write_host_usage_fields(w, status.host);
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

void write_host_usage_fields(JsonWriter& w, const HostResUsage& usage) {
  w.field("wall_seconds", usage.wall_seconds);
  w.field("user_cpu_seconds", usage.user_cpu_seconds);
  w.field("sys_cpu_seconds", usage.sys_cpu_seconds);
  w.field("max_rss_kb", usage.max_rss_kb);
  w.field("minor_faults", usage.minor_faults);
  w.field("major_faults", usage.major_faults);
}

bool LiveBus::write_status_file(const LiveStatus& status,
                                const std::string& path, std::string* error) {
  TC3I_EXPECTS(!path.empty());
  // Rename only after a checked close, so a full disk can never publish a
  // truncated snapshot.
  const std::string tmp = path + ".tmp";
  if (!write_file(
          tmp, [&](std::ostream& out) { write_status_json(status, out); },
          error))
    return false;
  std::error_code ec;
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
  TC3I_EXPECTS(period_ms >= 1);
  thread_ = std::thread([this]() { run(); });
}

LivePublisher::~LivePublisher() { finish(); }

void LivePublisher::run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, period_, [this]() { return stop_; });
    if (stop_) return;
    lock.unlock();
    const bool ok =
        publish(bus_.snapshot(bus_.now_seconds()), "status write failed");
    lock.lock();
    if (ok) ++published_;
  }
}

bool LivePublisher::publish(const LiveStatus& status, const char* what) {
  if (path_.empty()) return false;
  std::string error;
  if (LiveBus::write_status_file(status, path_, &error)) return true;
  // Publishing is advisory; complain once, then keep folding unpublished.
  std::fprintf(stderr, "[obs] %s: %s\n", what, error.c_str());
  path_.clear();
  return false;
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
  const bool ok = publish(bus_.snapshot(bus_.now_seconds(), /*done=*/true),
                          "final status write failed");
  const std::lock_guard<std::mutex> lock(mu_);
  if (ok) ++published_;
  return published_;
}

}  // namespace tc3i::obs
