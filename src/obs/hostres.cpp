#include "obs/hostres.hpp"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>

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
  return d;
}

}  // namespace tc3i::obs
