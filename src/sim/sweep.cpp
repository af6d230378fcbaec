#include "sim/sweep.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "obs/session.hpp"

namespace tc3i::sim {

int resolve_jobs(int requested) {
  if (requested == 0)
    return static_cast<int>(sthreads::Thread::hardware_concurrency());
  return requested < 1 ? 1 : requested;
}

namespace detail {

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
