// The shared experiment layer: builds the calibrated testbed (workload
// profiles + platform configs) once, and exposes one function per
// experimental configuration in the paper. Every bench binary and the
// calibration tests go through these functions, so all reported numbers
// come from a single code path.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "c3i/cost_model.hpp"
#include "c3i/terrain/scenario_gen.hpp"
#include "c3i/terrain/sequential.hpp"
#include "c3i/terrain/trace_builder.hpp"
#include "c3i/threat/scenario_gen.hpp"
#include "c3i/threat/sequential.hpp"
#include "c3i/threat/trace_builder.hpp"
#include "mta/machine.hpp"
#include "mta/stream_program.hpp"
#include "platforms/calibration.hpp"
#include "platforms/platform.hpp"
#include "smp/machine.hpp"

namespace tc3i::platforms {

struct Testbed {
  // Cost model (full-scale magnitudes).
  c3i::ThreatCosts threat_costs;
  c3i::TerrainCosts terrain_costs;

  // Full-scale workload profiles (five scenarios each).
  std::vector<c3i::threat::PairProfile> threat_profiles;
  std::vector<c3i::terrain::TerrainProfile> terrain_profiles;

  // Scaled workloads for the cycle-level MTA simulation. Magnitudes are
  // reduced with the ALU/memory mix preserved, so per-instruction timing
  // regimes match and extrapolation by instruction ratio is exact
  // (DESIGN.md §1 step 4).
  c3i::ThreatCosts threat_costs_scaled;
  c3i::TerrainCosts terrain_costs_scaled;
  c3i::threat::PairProfile threat_profile_scaled;
  c3i::terrain::TerrainProfile terrain_profile_scaled;
  double threat_mta_factor = 1.0;   ///< full instr / scaled instr
  double terrain_mta_factor = 1.0;

  // Calibrated platform configs.
  smp::SmpConfig alpha;
  smp::SmpConfig ppro;
  smp::SmpConfig exemplar;

  // Calibration inputs, exposed for reporting.
  WorkloadTotals totals;
};

/// Builds the full testbed (runs the instrumented kernels, calibrates all
/// platforms). Takes a few seconds; bench binaries build it once (through
/// the profile cache in platforms/testbed_cache.hpp).
[[nodiscard]] Testbed build_testbed();

// --- testbed construction stages --------------------------------------------
// build_testbed() = assemble_testbed(profile_testbed_kernels(
//     testbed_scenarios())). The stages are exposed separately so the
// testbed cache (testbed_cache.hpp) can fingerprint the deterministic
// scenario inputs and persist only the expensive kernel-profiling stage.

/// The deterministic scenario inputs the testbed profiles are computed from.
struct TestbedScenarios {
  std::vector<c3i::threat::Scenario> threat;
  std::vector<c3i::terrain::GeometryScenario> terrain;
  c3i::threat::Scenario threat_scaled;
  c3i::terrain::GeometryScenario terrain_scaled;
};

/// Kernel-profiling outputs: everything in a Testbed that is expensive to
/// compute. The rest of build_testbed() derives from these in milliseconds.
struct TestbedProfiles {
  std::vector<c3i::threat::PairProfile> threat;
  std::vector<c3i::terrain::TerrainProfile> terrain;
  c3i::threat::PairProfile threat_scaled;
  c3i::terrain::TerrainProfile terrain_scaled;
};

[[nodiscard]] TestbedScenarios testbed_scenarios();
[[nodiscard]] TestbedProfiles profile_testbed_kernels(
    const TestbedScenarios& scenarios);
[[nodiscard]] Testbed assemble_testbed(TestbedProfiles profiles);

// --- workload accounting ----------------------------------------------------
[[nodiscard]] double threat_total_instructions(
    const c3i::threat::PairProfile& profile, const c3i::ThreatCosts& costs);
[[nodiscard]] double terrain_total_instructions(
    const c3i::terrain::TerrainProfile& profile, const c3i::TerrainCosts& costs);

// --- conventional-platform experiments (seconds, 5-scenario totals) --------
[[nodiscard]] double threat_seq_seconds(const Testbed& tb,
                                        const smp::SmpConfig& cfg);
[[nodiscard]] double threat_chunked_seconds(const Testbed& tb,
                                            const smp::SmpConfig& cfg,
                                            int chunks, int processors);
[[nodiscard]] double terrain_seq_seconds(const Testbed& tb,
                                         const smp::SmpConfig& cfg);
[[nodiscard]] double terrain_coarse_seconds(const Testbed& tb,
                                            const smp::SmpConfig& cfg,
                                            int workers, int processors,
                                            int blocks_per_side = 10);
/// Ablation: static round-robin threat assignment instead of the dynamic
/// queue of Program 4.
[[nodiscard]] double terrain_coarse_static_seconds(const Testbed& tb,
                                                   const smp::SmpConfig& cfg,
                                                   int workers, int processors,
                                                   int blocks_per_side = 10);

// --- Tera MTA experiments (seconds, extrapolated 5-scenario totals) --------
[[nodiscard]] double mta_threat_seq_seconds(const Testbed& tb);
[[nodiscard]] double mta_threat_chunked_seconds(const Testbed& tb, int chunks,
                                                int processors);
[[nodiscard]] double mta_threat_finegrained_seconds(const Testbed& tb,
                                                    int processors);
[[nodiscard]] double mta_terrain_seq_seconds(const Testbed& tb);
[[nodiscard]] double mta_terrain_fine_seconds(const Testbed& tb,
                                              int processors);
/// Parameterized form for schedule ablations.
[[nodiscard]] double mta_terrain_fine_seconds(
    const Testbed& tb, int processors,
    const c3i::terrain::MtaFineParams& params);

// --- MTA sweep points -------------------------------------------------------
// The mta_*_seconds functions above run one machine per call. The point
// constructors below expose the same experiments as values so the table
// benches can hand a whole grid to run_mta_points (--jobs); the seconds
// functions are implemented over the same points, so every reported number
// flows through one code path. A point is a machine configuration, the
// workload builder that populates it, and `scenario`, which labels the
// run's RunRecords (obs::ScopedScenarioLabel). `seconds_factor` is the
// testbed's instruction-scaling extrapolation (threat_mta_factor /
// terrain_mta_factor), applied to MtaRunResult::seconds. A point's build
// closure captures `tb` by reference; the testbed must outlive the point.
struct MtaPoint {
  mta::MtaConfig config;
  std::string scenario;
  std::function<void(mta::Machine&, mta::ProgramPool&)> build;
  double seconds_factor = 1.0;
};

[[nodiscard]] MtaPoint mta_threat_seq_point(const Testbed& tb);
[[nodiscard]] MtaPoint mta_threat_chunked_point(const Testbed& tb, int chunks,
                                                int processors);
[[nodiscard]] MtaPoint mta_threat_finegrained_point(const Testbed& tb,
                                                    int processors);
[[nodiscard]] MtaPoint mta_terrain_seq_point(const Testbed& tb);
[[nodiscard]] MtaPoint mta_terrain_fine_point(const Testbed& tb,
                                              int processors);
[[nodiscard]] MtaPoint mta_terrain_fine_point(
    const Testbed& tb, int processors,
    const c3i::terrain::MtaFineParams& params);

/// Runs each point on its own machine through sim::run_sweep at `jobs`
/// and returns the extrapolated seconds per point in submission order
/// (byte-identical output at any `jobs`; see sim/sweep.hpp).
[[nodiscard]] std::vector<double> run_mta_points(
    const std::vector<MtaPoint>& points, int jobs);

}  // namespace tc3i::platforms
