#include "c3i/threat/physics.hpp"

#include <gtest/gtest.h>

#include "c3i/threat/scenario_gen.hpp"
#include "c3i/threat/sequential.hpp"
#include "core/rng.hpp"

namespace tc3i::c3i::threat {
namespace {

/// scan_threat on one (threat, weapon) pair.
ThreatScan scan_pair(const Threat& threat, const Weapon& weapon, double dt) {
  ThreatScan scan;
  scan_threat(threat, 0, std::span<const Weapon>(&weapon, 1), dt, scan);
  return scan;
}

Threat simple_threat() {
  Threat t;
  t.launch_pos = {0.0, 0.0, 0.0};
  t.impact_pos = {100'000.0, 0.0, 0.0};
  t.launch_time = 10.0;
  t.flight_time = 200.0;
  t.apex_altitude = 40'000.0;
  t.detect_time = 20.0;
  return t;
}

Weapon capable_weapon() {
  Weapon w;
  w.pos = {50'000.0, 0.0, 0.0};
  w.interceptor_speed = 3000.0;
  w.max_range = 80'000.0;
  w.min_intercept_alt = 5'000.0;
  w.max_intercept_alt = 45'000.0;
  w.reaction_time = 5.0;
  return w;
}

TEST(ThreatPosition, EndpointsAndApex) {
  const Threat t = simple_threat();
  const Vec3 start = threat_position(t, t.launch_time);
  EXPECT_DOUBLE_EQ(start.x, 0.0);
  EXPECT_DOUBLE_EQ(start.z, 0.0);
  const Vec3 end = threat_position(t, t.impact_time());
  EXPECT_DOUBLE_EQ(end.x, 100'000.0);
  EXPECT_DOUBLE_EQ(end.z, 0.0);
  const Vec3 apex = threat_position(t, t.launch_time + t.flight_time / 2.0);
  EXPECT_DOUBLE_EQ(apex.z, 40'000.0);
  EXPECT_DOUBLE_EQ(apex.x, 50'000.0);
}

TEST(ThreatPosition, AltitudeIsSymmetricAboutApex) {
  const Threat t = simple_threat();
  for (double frac : {0.1, 0.25, 0.4}) {
    const double za =
        threat_position(t, t.launch_time + frac * t.flight_time).z;
    const double zb =
        threat_position(t, t.launch_time + (1.0 - frac) * t.flight_time).z;
    EXPECT_NEAR(za, zb, 1e-6);
  }
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0, 0}, {3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(CanIntercept, RejectsOutsideFlightWindow) {
  const Threat t = simple_threat();
  const Weapon w = capable_weapon();
  EXPECT_FALSE(can_intercept(w, t, t.launch_time - 1.0));
  EXPECT_FALSE(can_intercept(w, t, t.impact_time() + 1.0));
}

TEST(CanIntercept, RejectsBelowAltitudeFloor) {
  const Threat t = simple_threat();
  const Weapon w = capable_weapon();
  // Just after launch the threat is below min_intercept_alt.
  EXPECT_FALSE(can_intercept(w, t, t.launch_time + 1.0));
}

TEST(CanIntercept, RejectsAboveCeiling) {
  Threat t = simple_threat();
  t.apex_altitude = 200'000.0;  // apex far above the weapon's ceiling
  const Weapon w = capable_weapon();
  EXPECT_FALSE(can_intercept(w, t, t.launch_time + t.flight_time / 2.0));
}

TEST(CanIntercept, RejectsOutOfRange) {
  const Threat t = simple_threat();
  Weapon w = capable_weapon();
  w.pos.y = 500'000.0;  // far to the side
  for (double frac : {0.2, 0.5, 0.8})
    EXPECT_FALSE(can_intercept(w, t, t.launch_time + frac * t.flight_time));
}

TEST(CanIntercept, RejectsBeforeFlyOutFeasible) {
  const Threat t = simple_threat();
  Weapon w = capable_weapon();
  w.interceptor_speed = 100.0;  // glacial: fly-out takes hundreds of seconds
  // Mid-flight the threat is ~up to 64km from the weapon: fly-out ~640s,
  // far beyond the remaining flight time.
  EXPECT_FALSE(can_intercept(w, t, t.launch_time + 0.5 * t.flight_time));
}

TEST(CanIntercept, AcceptsMidFlightForCapableWeapon) {
  const Threat t = simple_threat();
  const Weapon w = capable_weapon();
  EXPECT_TRUE(can_intercept(w, t, t.launch_time + 0.5 * t.flight_time));
}

TEST(ScanPair, IntervalsAreWithinScanWindow) {
  const Threat t = simple_threat();
  const Weapon w = capable_weapon();
  const ThreatScan scan = scan_pair(t, w, 0.5);
  ASSERT_FALSE(scan.intervals.empty());
  for (const auto& iv : scan.intervals) {
    EXPECT_GE(iv.t_begin, t.detect_time);
    EXPECT_LE(iv.t_end, t.impact_time());
    EXPECT_LE(iv.t_begin, iv.t_end);
  }
}

TEST(ScanPair, CountsOneStepPerSample) {
  const Threat t = simple_threat();
  const Weapon w = capable_weapon();
  const ThreatScan scan = scan_pair(t, w, 0.5);
  const auto expected =
      static_cast<std::uint64_t>((t.impact_time() - t.detect_time) / 0.5) + 1;
  EXPECT_NEAR(static_cast<double>(scan.steps), static_cast<double>(expected),
              1.0);
}

TEST(ScanPair, NoIntervalsForHopelessWeapon) {
  const Threat t = simple_threat();
  Weapon w = capable_weapon();
  w.max_range = 10.0;
  const ThreatScan scan = scan_pair(t, w, 0.5);
  EXPECT_TRUE(scan.intervals.empty());
  EXPECT_EQ(scan.found, std::vector<std::uint32_t>{0});
  EXPECT_GT(scan.steps, 0u);
}

TEST(ScanPair, AltitudeWindowSplitsIntoTwoIntervals) {
  // A weapon whose ceiling is below the apex: interceptable on ascent and
  // again on descent — the "zero, one, or more intervals" property.
  Threat t = simple_threat();
  t.apex_altitude = 60'000.0;
  Weapon w = capable_weapon();
  w.max_intercept_alt = 30'000.0;
  w.min_intercept_alt = 10'000.0;
  w.max_range = 300'000.0;
  w.interceptor_speed = 10'000.0;
  const ThreatScan scan = scan_pair(t, w, 0.25);
  EXPECT_EQ(scan.intervals.size(), 2u);
  EXPECT_LT(scan.intervals[0].t_end, scan.intervals[1].t_begin);
}

TEST(ScanPair, MaximalityAtEveryBoundary) {
  const Threat t = simple_threat();
  const Weapon w = capable_weapon();
  const double dt = 0.5;
  const ThreatScan scan = scan_pair(t, w, dt);
  for (const auto& iv : scan.intervals) {
    EXPECT_TRUE(can_intercept(w, t, iv.t_begin));
    EXPECT_TRUE(can_intercept(w, t, iv.t_end));
    if (iv.t_begin - dt >= t.detect_time) {
      EXPECT_FALSE(can_intercept(w, t, iv.t_begin - dt));
    }
    if (iv.t_end + dt <= t.impact_time()) {
      EXPECT_FALSE(can_intercept(w, t, iv.t_end + dt));
    }
  }
}

/// The per-pair form of Program 1's inner loop, as written: one
/// can_intercept call per step. scan_threat must match it exactly.
struct ReferenceScan {
  std::uint64_t steps = 0;
  std::vector<Interval> intervals;
};

ReferenceScan reference_scan(const Threat& threat, std::int32_t threat_id,
                             const Weapon& weapon, std::int32_t weapon_id,
                             double dt) {
  ReferenceScan result;
  bool in_interval = false;
  double t1 = 0.0;
  double last_feasible = 0.0;
  for (double t = threat.detect_time; t <= threat.impact_time(); t += dt) {
    ++result.steps;
    const bool ok = can_intercept(weapon, threat, t);
    if (ok && !in_interval) {
      in_interval = true;
      t1 = t;
    }
    if (ok) last_feasible = t;
    if (!ok && in_interval) {
      in_interval = false;
      result.intervals.push_back({threat_id, weapon_id, t1, last_feasible});
    }
  }
  if (in_interval)
    result.intervals.push_back({threat_id, weapon_id, t1, last_feasible});
  return result;
}

/// A random scenario whose weapons reach most threats, so that intervals
/// start and end mid-flight; some threats are detected exactly at impact,
/// before launch or after impact.
Scenario random_scenario(Rng& rng) {
  Scenario s;
  s.dt = rng.chance(0.2) ? 0.5 : rng.uniform(0.05, 2.5);
  const auto num_threats = rng.uniform_int(1, 6);
  for (std::int64_t i = 0; i < num_threats; ++i) {
    Threat t;
    t.launch_pos = {rng.uniform(0.0, 200'000.0), rng.uniform(0.0, 200'000.0),
                    0.0};
    t.impact_pos = {rng.uniform(0.0, 200'000.0), rng.uniform(0.0, 200'000.0),
                    0.0};
    t.launch_time = rng.uniform(0.0, 100.0);
    t.flight_time = rng.uniform(20.0, 300.0);
    t.apex_altitude = rng.uniform(5'000.0, 80'000.0);
    const double u = rng.uniform01();
    if (u < 0.1)
      t.detect_time = t.impact_time();
    else if (u < 0.2)
      t.detect_time = t.launch_time - rng.uniform(0.0, 10.0);
    else if (u < 0.25)
      t.detect_time = t.impact_time() + rng.uniform(0.0, 5.0);
    else
      t.detect_time = t.launch_time + rng.uniform(0.0, 0.5) * t.flight_time;
    s.threats.push_back(t);
  }
  const auto num_weapons = rng.uniform_int(1, 8);
  for (std::int64_t i = 0; i < num_weapons; ++i) {
    Weapon w;
    w.pos = {rng.uniform(0.0, 200'000.0), rng.uniform(0.0, 200'000.0),
             rng.uniform(0.0, 500.0)};
    w.interceptor_speed = rng.uniform(500.0, 8'000.0);
    w.max_range = rng.uniform(20'000.0, 250'000.0);
    w.min_intercept_alt = rng.uniform(0.0, 20'000.0);
    w.max_intercept_alt = w.min_intercept_alt + rng.uniform(1'000.0, 60'000.0);
    w.reaction_time = rng.uniform(0.0, 30.0);
    s.weapons.push_back(w);
  }
  if (rng.chance(0.3)) {
    // Threat 0 is detected before launch, under weapon 0, whose floor lies
    // below the ground and which reacts at once: the negative altitudes the
    // arc extends to before launch then pass every condition but the
    // flight window.
    Threat& t = s.threats[0];
    t.detect_time = t.launch_time - rng.uniform(1.0, 10.0);
    Weapon& w = s.weapons[0];
    w.pos = t.launch_pos;
    w.min_intercept_alt = -1e6;
    w.reaction_time = 0.0;
  }
  return s;
}

TEST(ScanThreat, MatchesPerStepReferenceOnRandomScenarios) {
  Rng rng(20261020);
  ThreatScan scan;  // reused across threats, as the callers reuse theirs
  std::uint64_t total_steps = 0;
  std::size_t total_intervals = 0;
  std::size_t detected_at_impact = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Scenario s = random_scenario(rng);
    std::vector<Interval> all_reference;
    for (std::size_t ti = 0; ti < s.threats.size(); ++ti) {
      const Threat& threat = s.threats[ti];
      const auto tid = static_cast<std::int32_t>(ti);
      if (threat.detect_time == threat.impact_time()) ++detected_at_impact;
      scan_threat(threat, tid, s.weapons, s.dt, scan);
      ASSERT_EQ(scan.found.size(), s.weapons.size());
      std::vector<Interval> reference;
      for (std::size_t wi = 0; wi < s.weapons.size(); ++wi) {
        const ReferenceScan ref = reference_scan(
            threat, tid, s.weapons[wi], static_cast<std::int32_t>(wi), s.dt);
        ASSERT_EQ(scan.steps, ref.steps) << "trial " << trial;
        ASSERT_EQ(scan.found[wi], ref.intervals.size()) << "trial " << trial;
        reference.insert(reference.end(), ref.intervals.begin(),
                         ref.intervals.end());
        total_steps += ref.steps;
      }
      // Exact equality, t_begin and t_end included.
      ASSERT_EQ(scan.intervals, reference) << "trial " << trial;
      total_intervals += reference.size();
      all_reference.insert(all_reference.end(), reference.begin(),
                           reference.end());
    }
    // The callers run the same kernel over the whole scenario.
    const AnalysisResult seq = run_sequential(s);
    ASSERT_EQ(seq.intervals, all_reference) << "trial " << trial;
    const PairProfile prof = profile(s);
    std::uint64_t prof_steps = 0;
    for (std::size_t ti = 0; ti < s.threats.size(); ++ti)
      for (std::size_t wi = 0; wi < s.weapons.size(); ++wi)
        prof_steps += prof.steps_at(ti, wi);
    EXPECT_EQ(prof_steps, seq.steps);
    EXPECT_EQ(prof.total_intervals(), seq.intervals.size());
  }
  // The random cases exercised the kernel, not only empty scans.
  EXPECT_GT(total_steps, 100'000u);
  EXPECT_GT(total_intervals, 200u);
  EXPECT_GT(detected_at_impact, 10u);
}

TEST(IntervalLess, CanonicalOrdering) {
  const Interval a{0, 0, 1.0, 2.0};
  const Interval b{0, 1, 0.0, 1.0};
  const Interval c{1, 0, 0.0, 1.0};
  EXPECT_TRUE(interval_less(a, b));
  EXPECT_TRUE(interval_less(b, c));
  EXPECT_FALSE(interval_less(c, a));
  EXPECT_FALSE(interval_less(a, a));
}

class ScenarioPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioPropertyTest, GeneratedScenariosAreWellFormed) {
  ScenarioParams params;
  params.num_threats = 50;
  params.num_weapons = 8;
  const Scenario s = generate_scenario(GetParam(), params);
  EXPECT_EQ(s.threats.size(), 50u);
  EXPECT_EQ(s.weapons.size(), 8u);
  for (const auto& t : s.threats) {
    EXPECT_GT(t.flight_time, 0.0);
    EXPECT_GE(t.detect_time, t.launch_time);
    EXPECT_LT(t.detect_time, t.impact_time());
    EXPECT_GT(t.apex_altitude, 0.0);
  }
  for (const auto& w : s.weapons) {
    EXPECT_GT(w.interceptor_speed, 0.0);
    EXPECT_GT(w.max_range, 0.0);
    EXPECT_LT(w.min_intercept_alt, w.max_intercept_alt);
  }
}

TEST_P(ScenarioPropertyTest, GenerationIsDeterministic) {
  const Scenario a = generate_scenario(GetParam());
  const Scenario b = generate_scenario(GetParam());
  ASSERT_EQ(a.threats.size(), b.threats.size());
  for (std::size_t i = 0; i < a.threats.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.threats[i].launch_pos.x, b.threats[i].launch_pos.x);
    EXPECT_DOUBLE_EQ(a.threats[i].flight_time, b.threats[i].flight_time);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioPropertyTest,
                         ::testing::Values(1, 42, 1998, 0xC3));

}  // namespace
}  // namespace tc3i::c3i::threat
