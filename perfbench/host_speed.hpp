// Host-speed normalization. On a shared host the same code runs 1.5x slower
// for minutes at a time while other tenants load the cores, so raw host
// times of two runs are not comparable. A short probe kernel, the
// benchmark's own code that no change to the program moves, runs next to
// the timed work. A host time measured now is scaled by how much slower the
// probe ran than on the reference host, so every metric reads as seconds on
// that reference.
#pragma once

namespace perfbench {

/// Seconds one probe takes on the reference host (a quiet 4-core Xeon).
inline constexpr double kReferenceProbeSeconds = 0.025;

/// How much more the simulator slows than the probe as the host slows:
/// host time scales with (probe time)^kSensitivity. The least-squares fit
/// of log sweep time on log mean probe time over the sweeps of two
/// five-minute mta_threat runs on the reference host gave 1.54 and 1.59
/// (correlation 0.97).
inline constexpr double kSensitivity = 1.6;

/// Seconds of one probe run now on the calling thread: a branchy
/// interpreter loop over a 1 MiB opcode stream and a 256 KiB register
/// file, the same mix of unpredictable branches and private-cache loads as
/// the simulator's issue loop.
[[nodiscard]] double probe_seconds();

/// The factor that scales a host time measured on the calling thread now
/// to the reference host. It runs the probe again when the thread's last
/// probe is more than 100 ms old, so a sweep of long points probes before
/// each point and one of short points about every 100 ms.
[[nodiscard]] double speed_factor();

}  // namespace perfbench
