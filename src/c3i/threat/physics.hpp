// Threat Analysis problem model (C3IPBS problem 1 in this reproduction).
//
// A time-stepped simulation of incoming ballistic threats and the intervals
// during which each defensive weapon can intercept each threat. The model
// follows the paper's description: threats fly ballistic arcs from launch
// to impact; for each (threat, weapon) pair the interception predicate is
// evaluated at fixed time steps; maximal runs of feasible steps form the
// output intervals. There can be zero, one, or more intervals per pair
// (e.g. an altitude window crossed on ascent and again on descent).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/units.hpp"

namespace tc3i::c3i::threat {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;
};

[[nodiscard]] double distance(const Vec3& a, const Vec3& b);

/// An incoming ballistic threat.
struct Threat {
  Vec3 launch_pos;   ///< z = 0
  Vec3 impact_pos;   ///< z = 0
  double launch_time = 0.0;
  double flight_time = 0.0;  ///< impact at launch_time + flight_time
  double apex_altitude = 0.0;
  double detect_time = 0.0;  ///< first sensor detection (>= launch_time)

  [[nodiscard]] double impact_time() const {
    return launch_time + flight_time;
  }
};

/// Position of a threat at absolute time t (parabolic arc over linear
/// ground track). Valid for launch_time <= t <= impact_time().
[[nodiscard]] Vec3 threat_position(const Threat& threat, double t);

/// A defensive interceptor battery.
struct Weapon {
  Vec3 pos;  ///< z = ground emplacement height
  double interceptor_speed = 0.0;  ///< distance units per second
  double max_range = 0.0;          ///< engagement envelope radius
  double min_intercept_alt = 0.0;  ///< cannot engage below (ground clutter)
  double max_intercept_alt = 0.0;  ///< cannot engage above (ceiling)
  double reaction_time = 0.0;      ///< launch-decision latency after detect
};

/// The interception predicate: can `weapon` intercept `threat` at absolute
/// time t? Requires (i) the threat inside the weapon's range envelope,
/// (ii) the threat inside the weapon's altitude window, and (iii) enough
/// time since detection for an interceptor to fly out to the threat.
[[nodiscard]] bool can_intercept(const Weapon& weapon, const Threat& threat,
                                 double t);

/// One interception opportunity: `weapon` can intercept `threat`
/// throughout [t_begin, t_end] (inclusive, in simulation steps).
struct Interval {
  std::int32_t threat = 0;
  std::int32_t weapon = 0;
  double t_begin = 0.0;
  double t_end = 0.0;

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Canonical ordering used by the correctness checkers.
[[nodiscard]] bool interval_less(const Interval& a, const Interval& b);

/// What scan_threat() leaves behind for one threat, in buffers reused from
/// one threat to the next.
struct ThreatScan {
  /// Predicate evaluations per weapon (the unit of work): one per step
  /// from detection to impact, the same for every weapon of the threat.
  std::uint64_t steps = 0;
  std::vector<double> times;     ///< the in-flight steps' times
  std::vector<Vec3> positions;   ///< threat_position() at each of them
  std::vector<Interval> intervals;   ///< every weapon's, in weapon order
  std::vector<std::uint32_t> found;  ///< intervals per weapon
};

/// Runs the two inner loops of Program 1 for one threat: starting at its
/// detection time, steps the flight `dt` apart and finds, for each weapon,
/// every maximal feasible interval. Each step's time and threat position
/// are computed once and scanned by every weapon. This is *the* sequential
/// kernel: all program variants and the profiler call it, so their outputs
/// are bit-identical, and it decides feasibility exactly as can_intercept.
void scan_threat(const Threat& threat, std::int32_t threat_id,
                 std::span<const Weapon> weapons, double dt, ThreatScan& out);

}  // namespace tc3i::c3i::threat
