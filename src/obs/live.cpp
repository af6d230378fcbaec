#include "obs/live.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "obs/trace_sink.hpp"
#include "obs/write_file.hpp"

namespace tc3i::obs {

namespace {

LiveBus* g_live_bus = nullptr;

}  // namespace

LiveBus* live_bus() { return g_live_bus; }

void set_live_bus(LiveBus* bus) { g_live_bus = bus; }

LiveBus::LiveBus() : anchor_(std::chrono::steady_clock::now()) {}

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
  workers_[w] = WorkerSlot{true, true, sweep, point, start_s};
}

void LiveBus::end_point(std::uint32_t w, double end_s) {
  const std::lock_guard<std::mutex> lock(mu_);
  TC3I_EXPECTS(w < workers_.size() && workers_[w].running);
  WorkerSlot& slot = workers_[w];
  spans_.push_back(PointSpan{slot.sweep, slot.point, w,
                             sweeps_[slot.sweep].submit_seconds,
                             slot.start_seconds, end_s});
  slot.running = false;
}

LiveBus::Progress LiveBus::progress(double now_s) const {
  const std::lock_guard<std::mutex> lock(mu_);
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
                         [](const WorkerSlot& s) { return s.seen; }));
    if (p.median_point_seconds > 0.0)
      p.eta_seconds = p.median_point_seconds *
                      static_cast<double>(remaining) /
                      static_cast<double>(seen);
    else if (p.points_per_sec > 0.0)
      p.eta_seconds = static_cast<double>(remaining) / p.points_per_sec;
  }
  return p;
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

}  // namespace tc3i::obs
