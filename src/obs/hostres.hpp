// Host-resource accounting.
//
// Simulated time tells you why a *run* was slow; locating a sweep
// throughput regression needs the host side: how much wall/user/sys time
// the process burned and how big it got. sample_host_usage() wraps
// getrusage(RUSAGE_SELF) plus a process-start wall anchor; RunSession
// subtracts two samples for the RunReport's host section. Where the sweep
// scheduler spent its time (queue wait vs execute, per worker) is
// recorded by the one per-point record in obs::LiveBus (obs/live.hpp).
#pragma once

#include <cstdint>

namespace tc3i::obs {

/// Cumulative host resource usage of this process. Subtract two samples to
/// attribute a phase; wall_seconds is measured from a process-local steady
/// anchor, the rest comes from getrusage(RUSAGE_SELF). max_rss_kb is a
/// high-water mark, not a rate — deltas keep the later sample's value.
struct HostResUsage {
  double wall_seconds = 0.0;
  double user_cpu_seconds = 0.0;
  double sys_cpu_seconds = 0.0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
};

[[nodiscard]] HostResUsage sample_host_usage();

/// end - begin, component-wise; max_rss_kb keeps end's high-water mark.
[[nodiscard]] HostResUsage host_usage_delta(const HostResUsage& begin,
                                            const HostResUsage& end);

}  // namespace tc3i::obs
