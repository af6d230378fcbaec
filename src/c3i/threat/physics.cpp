#include "c3i/threat/physics.hpp"

#include <cmath>

#include "core/contracts.hpp"

namespace tc3i::c3i::threat {

double distance(const Vec3& a, const Vec3& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

Vec3 threat_position(const Threat& threat, double t) {
  TC3I_EXPECTS(threat.flight_time > 0.0);
  const double u = (t - threat.launch_time) / threat.flight_time;
  Vec3 p;
  p.x = threat.launch_pos.x + u * (threat.impact_pos.x - threat.launch_pos.x);
  p.y = threat.launch_pos.y + u * (threat.impact_pos.y - threat.launch_pos.y);
  // Parabolic arc: 0 at endpoints, apex_altitude at u = 1/2.
  p.z = 4.0 * threat.apex_altitude * u * (1.0 - u);
  return p;
}

namespace {

/// Conditions (i)-(iii) of the interception predicate for a threat in
/// flight at t, at position p: can_intercept and scan_threat both decide
/// through this one function.
bool engageable(const Weapon& weapon, const Threat& threat, double t,
                const Vec3& p) {
  // (ii) altitude window.
  if (p.z < weapon.min_intercept_alt || p.z > weapon.max_intercept_alt)
    return false;

  // (i) range envelope.
  const double d = distance(weapon.pos, p);
  if (d > weapon.max_range) return false;

  // (iii) interceptor fly-out feasibility: an interceptor launched at
  // detect_time + reaction_time must be able to reach the threat by t.
  const double launch_at = threat.detect_time + weapon.reaction_time;
  if (t < launch_at) return false;
  const double fly_out = d / weapon.interceptor_speed;
  return launch_at + fly_out <= t;
}

}  // namespace

bool can_intercept(const Weapon& weapon, const Threat& threat, double t) {
  if (t < threat.launch_time || t > threat.impact_time()) return false;
  return engageable(weapon, threat, t, threat_position(threat, t));
}

bool interval_less(const Interval& a, const Interval& b) {
  if (a.threat != b.threat) return a.threat < b.threat;
  if (a.weapon != b.weapon) return a.weapon < b.weapon;
  if (a.t_begin != b.t_begin) return a.t_begin < b.t_begin;
  return a.t_end < b.t_end;
}

void scan_threat(const Threat& threat, std::int32_t threat_id,
                 std::span<const Weapon> weapons, double dt, ThreatScan& out) {
  TC3I_EXPECTS(dt > 0.0);
  out.steps = 0;
  out.times.clear();
  out.positions.clear();
  out.intervals.clear();
  out.found.clear();

  // Program 1's time loop, from detection to impact. Every weapon scans
  // the same steps, so each step's time and position are computed here
  // once. A step before launch (t only grows, so they lead) is infeasible
  // for every weapon: it counts but is not scanned.
  const double t_end = threat.impact_time();
  for (double t = threat.detect_time; t <= t_end; t += dt) {
    ++out.steps;
    if (t < threat.launch_time) continue;
    out.times.push_back(t);
    out.positions.push_back(threat_position(threat, t));
  }

  // For each weapon, find every maximal feasible run [t1 .. t2].
  const std::size_t steps = out.times.size();
  for (std::size_t w = 0; w < weapons.size(); ++w) {
    const Weapon& weapon = weapons[w];
    const auto weapon_id = static_cast<std::int32_t>(w);
    const std::size_t before = out.intervals.size();
    bool in_interval = false;
    double t1 = 0.0;
    double last_feasible = 0.0;
    for (std::size_t k = 0; k < steps; ++k) {
      const double t = out.times[k];
      const bool ok = engageable(weapon, threat, t, out.positions[k]);
      if (ok && !in_interval) {
        in_interval = true;
        t1 = t;
      }
      if (ok) last_feasible = t;
      if (!ok && in_interval) {
        in_interval = false;
        out.intervals.push_back(
            Interval{threat_id, weapon_id, t1, last_feasible});
      }
    }
    if (in_interval)
      out.intervals.push_back(Interval{threat_id, weapon_id, t1, last_feasible});
    out.found.push_back(
        static_cast<std::uint32_t>(out.intervals.size() - before));
  }
}

}  // namespace tc3i::c3i::threat
