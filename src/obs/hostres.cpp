#include "obs/hostres.hpp"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "obs/trace_sink.hpp"

namespace tc3i::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide wall anchor so successive samples share one origin.
std::uint64_t process_anchor_ns() {
  static const std::uint64_t anchor = steady_ns();
  return anchor;
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

SweepSchedStore* g_sched_store = nullptr;

}  // namespace

HostResUsage sample_host_usage() {
  HostResUsage u;
  // Read the anchor before the current time: on the very first call the
  // anchor initializes *now*, and unspecified evaluation order inside the
  // subtraction could otherwise capture it after steady_ns(), wrapping the
  // unsigned difference.
  const std::uint64_t anchor = process_anchor_ns();
  u.wall_seconds = static_cast<double>(steady_ns() - anchor) * 1e-9;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    u.user_cpu_seconds = tv_seconds(ru.ru_utime);
    u.sys_cpu_seconds = tv_seconds(ru.ru_stime);
    // ru_maxrss is kilobytes on Linux (bytes on some BSDs; this repo's
    // tier-1 platform is Linux — see ROADMAP).
    u.max_rss_kb = static_cast<std::uint64_t>(std::max(0L, ru.ru_maxrss));
    u.minor_faults = static_cast<std::uint64_t>(std::max(0L, ru.ru_minflt));
    u.major_faults = static_cast<std::uint64_t>(std::max(0L, ru.ru_majflt));
    u.voluntary_ctx_switches =
        static_cast<std::uint64_t>(std::max(0L, ru.ru_nvcsw));
    u.involuntary_ctx_switches =
        static_cast<std::uint64_t>(std::max(0L, ru.ru_nivcsw));
  }
  return u;
}

HostResUsage host_usage_delta(const HostResUsage& begin,
                              const HostResUsage& end) {
  HostResUsage d;
  d.wall_seconds = std::max(0.0, end.wall_seconds - begin.wall_seconds);
  d.user_cpu_seconds =
      std::max(0.0, end.user_cpu_seconds - begin.user_cpu_seconds);
  d.sys_cpu_seconds = std::max(0.0, end.sys_cpu_seconds - begin.sys_cpu_seconds);
  d.max_rss_kb = end.max_rss_kb;  // high-water mark, not a rate
  d.minor_faults = end.minor_faults - std::min(end.minor_faults,
                                               begin.minor_faults);
  d.major_faults = end.major_faults - std::min(end.major_faults,
                                               begin.major_faults);
  d.voluntary_ctx_switches =
      end.voluntary_ctx_switches -
      std::min(end.voluntary_ctx_switches, begin.voluntary_ctx_switches);
  d.involuntary_ctx_switches =
      end.involuntary_ctx_switches -
      std::min(end.involuntary_ctx_switches, begin.involuntary_ctx_switches);
  return d;
}

// --- SweepSchedStore ---------------------------------------------------------

SweepSchedStore::SweepSchedStore() : anchor_ns_(steady_ns()) {}

std::uint32_t SweepSchedStore::begin_sweep(std::uint64_t points, int jobs) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t id = next_sweep_++;
  sweeps_.push_back(SweepInfo{id, points, jobs});
  return id;
}

double SweepSchedStore::now_us() const {
  return static_cast<double>(steady_ns() - anchor_ns_) * 1e-3;
}

void SweepSchedStore::add_span(SweepJobSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SweepJobSpan> SweepSchedStore::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SweepInfo> SweepSchedStore::sweeps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sweeps_;
}

std::size_t SweepSchedStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

SweepSchedStore::Summary SweepSchedStore::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary s;
  s.sweeps = sweeps_.size();
  for (const SweepInfo& info : sweeps_) s.max_jobs = std::max(s.max_jobs, info.jobs);
  s.points = spans_.size();
  for (const SweepJobSpan& span : spans_) {
    s.queue_wait_seconds += (span.start_us - span.submit_us) * 1e-6;
    s.execute_seconds += (span.end_us - span.start_us) * 1e-6;
  }
  return s;
}

void SweepSchedStore::write_chrome_trace(std::ostream& out) const {
  // Spans are copied and sorted into (sweep, point) order so the trace is
  // independent of completion interleaving.
  std::vector<SweepJobSpan> sorted = spans();
  std::sort(sorted.begin(), sorted.end(),
            [](const SweepJobSpan& a, const SweepJobSpan& b) {
              if (a.sweep != b.sweep) return a.sweep < b.sweep;
              return a.point < b.point;
            });
  TraceSink sink;
  const std::uint32_t track = sink.register_track("sweep scheduler");
  for (const SweepJobSpan& s : sorted) {
    std::string tag = "s";
    tag += std::to_string(s.sweep);
    tag += ".p";
    tag += std::to_string(s.point);
    if (s.start_us > s.submit_us)
      sink.complete(Category::Sched, "queue " + tag, s.submit_us,
                    s.start_us - s.submit_us, track, s.worker);
    sink.complete(Category::Sched, "run " + tag, s.start_us,
                  std::max(0.0, s.end_us - s.start_us), track, s.worker);
  }
  sink.write_chrome_json(out);
}

bool SweepSchedStore::write_chrome_trace_file(const std::string& path,
                                              std::string* error) const {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

SweepSchedStore* sweep_sched_store() { return g_sched_store; }

void set_sweep_sched_store(SweepSchedStore* store) { g_sched_store = store; }

}  // namespace tc3i::obs
