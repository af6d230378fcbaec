#include "sim/sweep.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/session.hpp"

namespace tc3i::sim {

int resolve_jobs(int requested) {
  if (requested == 0)
    return static_cast<int>(sthreads::Thread::hardware_concurrency());
  return requested < 1 ? 1 : requested;
}

std::vector<double> run_sweep(const std::vector<std::function<double()>>& points,
                              int jobs) {
  return run_sweep(points.size(), jobs,
                   [&points](std::size_t i) { return points[i](); });
}

namespace detail {

void maybe_inject_slow_point(std::size_t point) {
  struct Injection {
    bool armed = false;
    std::size_t point = 0;
    long millis = 0;
  };
  static const Injection inject = []() {
    Injection in;
    const char* env = std::getenv("TC3I_INJECT_SLOW_POINT");
    if (env == nullptr) return in;
    char* rest = nullptr;
    const long long idx = std::strtoll(env, &rest, 10);
    if (rest == env || *rest != ':') return in;
    const long ms = std::strtol(rest + 1, nullptr, 10);
    if (idx < 0 || ms <= 0) return in;
    in.armed = true;
    in.point = static_cast<std::size_t>(idx);
    in.millis = ms;
    return in;
  }();
  if (!inject.armed || point != inject.point) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(inject.millis));
}

SweepProgress::SweepProgress(std::size_t count)
    : count_(count),
      bus_(obs::sweep_progress_requested() && ::isatty(STDERR_FILENO) != 0
               ? obs::live_bus()
               : nullptr) {
  if (bus_ != nullptr) start_s_ = bus_->now_seconds();
}

void SweepProgress::tick() {
  if (bus_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  // Throughput is cumulative across the whole session and the ETA comes
  // from the median completed-point duration spread over the workers
  // actually running. Zero completed points means no throughput and no
  // ETA yet; render "eta ?" rather than a meaningless 0.0s (or NaN).
  const obs::LiveBus::Progress p = bus_->progress(bus_->now_seconds());
  char eta[32] = "?";
  if (p.eta_seconds > 0.0 && std::isfinite(p.eta_seconds))
    std::snprintf(eta, sizeof(eta), "%.1fs", p.eta_seconds);
  std::fprintf(stderr, "\r[sweep] %zu/%zu  %.1f pts/s eta %s   ", done_,
               count_, p.points_per_sec, eta);
  std::fflush(stderr);
}

SweepProgress::~SweepProgress() {
  if (bus_ == nullptr || done_ == 0) return;
  // Replace the carriage-returned ticker with a final, newline-terminated
  // summary. A bare "\r"-blanked line left the cursor mid-line, so when a
  // sweep finished instantly (e.g. every point served from the testbed
  // cache) the last update was clobbered by whatever stdout printed next.
  std::fprintf(stderr, "\r%*s\r[sweep] %zu/%zu done in %.1fs\n", 60, "",
               done_, count_, bus_->now_seconds() - start_s_);
  std::fflush(stderr);
}

}  // namespace detail

}  // namespace tc3i::sim
