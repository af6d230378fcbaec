#include "platforms/experiment.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "c3i/scenario.hpp"
#include "c3i/terrain/scenario_gen.hpp"
#include "c3i/threat/scenario_gen.hpp"
#include "core/contracts.hpp"
#include "obs/run_record.hpp"
#include "platforms/paper.hpp"
#include "sim/sweep.hpp"
#include "sthreads/parallel_for.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::platforms {

namespace threat = c3i::threat;
namespace terrain = c3i::terrain;

double threat_total_instructions(const threat::PairProfile& profile,
                                 const c3i::ThreatCosts& costs) {
  return static_cast<double>(profile.total_steps()) *
             static_cast<double>(costs.ops_per_step()) +
         static_cast<double>(profile.total_intervals()) *
             static_cast<double>(costs.alu_per_interval +
                                 costs.mem_per_interval);
}

double terrain_total_instructions(const terrain::TerrainProfile& profile,
                                  const c3i::TerrainCosts& costs) {
  const double init_cells = static_cast<double>(profile.x_size) *
                            static_cast<double>(profile.y_size);
  return static_cast<double>(profile.total_kernel_cells()) *
             static_cast<double>(costs.ops_per_kernel_cell()) +
         (static_cast<double>(profile.total_simple_cells()) + init_cells) *
             static_cast<double>(costs.ops_per_simple_cell());
}

namespace {

/// Scales a cost structure's magnitudes down by an integer divisor while
/// preserving the ALU/memory mix (exactness checked).
c3i::ThreatCosts scale_threat_costs(const c3i::ThreatCosts& c, int divisor) {
  c3i::ThreatCosts s = c;
  TC3I_EXPECTS(c.alu_per_step % divisor == 0 && c.mem_per_step % divisor == 0);
  s.alu_per_step = c.alu_per_step / divisor;
  s.mem_per_step = c.mem_per_step / divisor;
  return s;
}

c3i::TerrainCosts scale_terrain_costs(const c3i::TerrainCosts& c, int divisor) {
  c3i::TerrainCosts s = c;
  TC3I_EXPECTS(c.alu_per_kernel_cell % divisor == 0 &&
               c.mem_per_kernel_cell % divisor == 0 &&
               c.alu_per_simple_cell % divisor == 0 &&
               c.mem_per_simple_cell % divisor == 0);
  s.alu_per_kernel_cell = c.alu_per_kernel_cell / divisor;
  s.mem_per_kernel_cell = c.mem_per_kernel_cell / divisor;
  s.alu_per_simple_cell = c.alu_per_simple_cell / divisor;
  s.mem_per_simple_cell = c.mem_per_simple_cell / divisor;
  return s;
}

}  // namespace

TestbedScenarios testbed_scenarios() {
  TestbedScenarios s;
  s.threat = threat::benchmark_scenarios();
  s.terrain = terrain::benchmark_geometries();
  // Scaled MTA workloads: one scenario each, reduced size (the per-unit
  // costs are reduced with the same mix in assemble_testbed).
  {
    threat::ScenarioParams params;
    params.num_threats = 256;
    params.num_weapons = 8;
    params.dt = 5.0;  // fewer steps per pair; per-step costs model the rest
    const auto seeds = c3i::standard_scenarios("threat-analysis");
    s.threat_scaled = threat::generate_scenario(seeds[0].seed, params);
  }
  {
    terrain::ScenarioParams params;
    params.x_size = 320;
    params.y_size = 320;
    params.num_threats = 60;
    const auto seeds = c3i::standard_scenarios("terrain-masking");
    s.terrain_scaled = terrain::generate_geometry(seeds[0].seed, params);
  }
  return s;
}

TestbedProfiles profile_testbed_kernels(const TestbedScenarios& scenarios) {
  // The threat profiles are independent replications of one kernel, so
  // they run on every host core, each full-size scenario split into row
  // blocks that are claimed first. Each item writes only its own elements,
  // sized here, so the profiles equal the serial ones at any worker count.
  // Profiling stays off the live bus: a cold and a warm run schedule the
  // same points. The terrain profiles only count ring sizes (well under a
  // millisecond for all of them), so the calling thread builds them: built
  // by the workers, these long-lived vectors sat in the workers' heaps and
  // the resident set crept up over repeated cold builds.
  constexpr std::size_t kThreatBlocks = 8;
  TestbedProfiles p;
  for (const auto& scenario : scenarios.threat)
    p.threat.push_back(threat::sized_profile(scenario));

  std::vector<std::function<void()>> items;
  for (std::size_t s = 0; s < scenarios.threat.size(); ++s) {
    const std::size_t n = p.threat[s].num_threats;
    for (std::size_t b = 0; b < kThreatBlocks; ++b)
      items.emplace_back([&scenarios, &p, s, begin = b * n / kThreatBlocks,
                          end = (b + 1) * n / kThreatBlocks] {
        threat::profile_rows(scenarios.threat[s], begin, end, p.threat[s]);
      });
  }
  items.emplace_back([&scenarios, &p] {
    p.threat_scaled = threat::profile(scenarios.threat_scaled);
  });
  for (const auto& geometry : scenarios.terrain)
    p.terrain.push_back(terrain::profile(geometry));
  p.terrain_scaled = terrain::profile(scenarios.terrain_scaled);

  const int workers = static_cast<int>(std::min<std::size_t>(
      sthreads::Thread::hardware_concurrency(), items.size()));
  sthreads::parallel_for_dynamic(items.size(), workers,
                                 [&items](std::size_t i, int) { items[i](); });
  return p;
}

Testbed assemble_testbed(TestbedProfiles profiles) {
  Testbed tb;
  tb.threat_costs = c3i::default_threat_costs();
  tb.terrain_costs = c3i::default_terrain_costs();
  tb.threat_profiles = std::move(profiles.threat);
  tb.terrain_profiles = std::move(profiles.terrain);
  tb.threat_profile_scaled = std::move(profiles.threat_scaled);
  tb.terrain_profile_scaled = std::move(profiles.terrain_scaled);

  // Reduced per-unit costs with the same mix (200:55 -> 40:11;
  // 80:26:10:6 -> 40:13:5:3).
  tb.threat_costs_scaled = scale_threat_costs(tb.threat_costs, 5);
  tb.terrain_costs_scaled = scale_terrain_costs(tb.terrain_costs, 2);

  double threat_full_instr = 0.0;
  for (const auto& p : tb.threat_profiles)
    threat_full_instr += threat_total_instructions(p, tb.threat_costs);
  tb.threat_mta_factor =
      threat_full_instr /
      threat_total_instructions(tb.threat_profile_scaled, tb.threat_costs_scaled);

  double terrain_full_instr = 0.0;
  for (const auto& p : tb.terrain_profiles)
    terrain_full_instr += terrain_total_instructions(p, tb.terrain_costs);
  tb.terrain_mta_factor =
      terrain_full_instr / terrain_total_instructions(tb.terrain_profile_scaled,
                                                      tb.terrain_costs_scaled);

  // Calibration totals (ops and bus bytes over all five scenarios), taken
  // from the same trace builders the simulations replay.
  for (const auto& p : tb.threat_profiles) {
    const sim::ThreadTrace t = threat::build_sequential_trace(p, tb.threat_costs);
    tb.totals.threat_ops += static_cast<double>(t.total_ops());
    tb.totals.threat_bytes += static_cast<double>(t.total_bytes());
  }
  for (const auto& p : tb.terrain_profiles) {
    const sim::ThreadTrace init = terrain::build_init_trace(p, tb.terrain_costs);
    const sim::ThreadTrace seq =
        terrain::build_sequential_trace(p, tb.terrain_costs);
    tb.totals.terrain_ops +=
        static_cast<double>(init.total_ops() + seq.total_ops());
    tb.totals.terrain_bytes +=
        static_cast<double>(init.total_bytes() + seq.total_bytes());
  }

  // Per-platform rate calibration from the paper's sequential anchors.
  const CalibratedRates alpha_rates = solve_rates(
      {paper::kThreatSeqAlpha, paper::kTerrainSeqAlpha}, tb.totals);
  const CalibratedRates ppro_rates =
      solve_rates({paper::kThreatSeqPPro, paper::kTerrainSeqPPro}, tb.totals);
  const CalibratedRates exemplar_rates = solve_rates(
      {paper::kThreatSeqExemplar, paper::kTerrainSeqExemplar}, tb.totals);
  tb.alpha = make_smp_config(alpha_spec(), alpha_rates.compute_rate_ips,
                             alpha_rates.mem_bw_single);
  tb.ppro = make_smp_config(ppro_spec(), ppro_rates.compute_rate_ips,
                            ppro_rates.mem_bw_single);
  tb.exemplar = make_smp_config(exemplar_spec(),
                                exemplar_rates.compute_rate_ips,
                                exemplar_rates.mem_bw_single);
  return tb;
}

Testbed build_testbed() {
  return assemble_testbed(profile_testbed_kernels(testbed_scenarios()));
}

// --- conventional-platform experiments --------------------------------------

double threat_seq_seconds(const Testbed& tb, const smp::SmpConfig& cfg) {
  const obs::ScopedScenarioLabel scenario_label("threat_seq");
  const smp::Machine machine(cfg);
  double total = 0.0;
  for (const auto& p : tb.threat_profiles)
    total += machine
                 .run_sequential(threat::build_sequential_trace(p, tb.threat_costs))
                 .elapsed;
  return total;
}

double threat_chunked_seconds(const Testbed& tb, const smp::SmpConfig& cfg,
                              int chunks, int processors) {
  const obs::ScopedScenarioLabel scenario_label("threat_chunked");
  smp::SmpConfig c = cfg;
  c.num_processors = processors;
  const smp::Machine machine(c);
  double total = 0.0;
  for (const auto& p : tb.threat_profiles)
    total += machine.run(threat::build_chunked_workload(p, chunks, tb.threat_costs))
                 .elapsed;
  return total;
}

double terrain_seq_seconds(const Testbed& tb, const smp::SmpConfig& cfg) {
  const obs::ScopedScenarioLabel scenario_label("terrain_seq");
  const smp::Machine machine(cfg);
  double total = 0.0;
  for (const auto& p : tb.terrain_profiles) {
    total += machine.run_sequential(terrain::build_init_trace(p, tb.terrain_costs))
                 .elapsed;
    total += machine
                 .run_sequential(terrain::build_sequential_trace(p, tb.terrain_costs))
                 .elapsed;
  }
  return total;
}

double terrain_coarse_seconds(const Testbed& tb, const smp::SmpConfig& cfg,
                              int workers, int processors,
                              int blocks_per_side) {
  const obs::ScopedScenarioLabel scenario_label("terrain_coarse");
  smp::SmpConfig c = cfg;
  c.num_processors = processors;
  const smp::Machine machine(c);
  double total = 0.0;
  for (const auto& p : tb.terrain_profiles) {
    // Initialization runs on the master before the workers spawn.
    total += machine.run_sequential(terrain::build_init_trace(p, tb.terrain_costs))
                 .elapsed;
    total += machine
                 .run_pool(terrain::build_coarse_pool(p, workers, blocks_per_side,
                                                      tb.terrain_costs))
                 .elapsed;
  }
  return total;
}

double terrain_coarse_static_seconds(const Testbed& tb,
                                     const smp::SmpConfig& cfg, int workers,
                                     int processors, int blocks_per_side) {
  const obs::ScopedScenarioLabel scenario_label("terrain_coarse_static");
  smp::SmpConfig c = cfg;
  c.num_processors = processors;
  const smp::Machine machine(c);
  double total = 0.0;
  for (const auto& p : tb.terrain_profiles) {
    total += machine.run_sequential(terrain::build_init_trace(p, tb.terrain_costs))
                 .elapsed;
    total += machine
                 .run(terrain::build_coarse_static(p, workers, blocks_per_side,
                                                   tb.terrain_costs))
                 .elapsed;
  }
  return total;
}

// --- Tera MTA experiments ----------------------------------------------------

namespace {

/// Runs one point on its own machine (the seconds functions below are
/// often called from inside an outer sim::run_sweep, so they must not
/// start a nested sweep).
double run_point(const MtaPoint& p) {
  const obs::ScopedScenarioLabel scenario_label(p.scenario);
  mta::Machine machine(p.config);
  mta::ProgramPool pool;
  p.build(machine, pool);
  return machine.run().seconds * p.seconds_factor;
}

}  // namespace

MtaPoint mta_threat_seq_point(const Testbed& tb) {
  MtaPoint p;
  p.config = make_mta_config(1);
  p.scenario = "threat_seq";
  p.build = [&tb](mta::Machine& machine, mta::ProgramPool& pool) {
    threat::build_mta_sequential(pool, machine, tb.threat_profile_scaled,
                                 tb.threat_costs_scaled);
  };
  p.seconds_factor = tb.threat_mta_factor;
  return p;
}

MtaPoint mta_threat_chunked_point(const Testbed& tb, int chunks,
                                  int processors) {
  MtaPoint p;
  p.config = make_mta_config(processors);
  p.scenario = "threat_chunked";
  p.build = [&tb, chunks](mta::Machine& machine, mta::ProgramPool& pool) {
    threat::build_mta_chunked(pool, machine, tb.threat_profile_scaled,
                              static_cast<std::size_t>(chunks),
                              tb.threat_costs_scaled);
  };
  p.seconds_factor = tb.threat_mta_factor;
  return p;
}

MtaPoint mta_threat_finegrained_point(const Testbed& tb, int processors) {
  MtaPoint p;
  p.config = make_mta_config(processors);
  p.scenario = "threat_fine";
  p.build = [&tb](mta::Machine& machine, mta::ProgramPool& pool) {
    threat::build_mta_finegrained(pool, machine, tb.threat_profile_scaled,
                                  tb.threat_costs_scaled);
  };
  p.seconds_factor = tb.threat_mta_factor;
  return p;
}

MtaPoint mta_terrain_seq_point(const Testbed& tb) {
  MtaPoint p;
  p.config = make_mta_config(1);
  p.scenario = "terrain_seq";
  p.build = [&tb](mta::Machine& machine, mta::ProgramPool& pool) {
    terrain::build_mta_sequential(pool, machine, tb.terrain_profile_scaled,
                                  tb.terrain_costs_scaled);
  };
  p.seconds_factor = tb.terrain_mta_factor;
  return p;
}

MtaPoint mta_terrain_fine_point(const Testbed& tb, int processors) {
  return mta_terrain_fine_point(tb, processors, terrain::MtaFineParams{});
}

MtaPoint mta_terrain_fine_point(const Testbed& tb, int processors,
                                const terrain::MtaFineParams& params) {
  MtaPoint p;
  p.config = make_mta_config(processors);
  p.scenario = "terrain_fine";
  p.build = [&tb, params](mta::Machine& machine, mta::ProgramPool& pool) {
    terrain::build_mta_finegrained(pool, machine, tb.terrain_profile_scaled,
                                   tb.terrain_costs_scaled, params);
  };
  p.seconds_factor = tb.terrain_mta_factor;
  return p;
}

std::vector<double> run_mta_points(const std::vector<MtaPoint>& points,
                                   int jobs) {
  return sim::run_sweep(points.size(), jobs,
                        [&](std::size_t i) { return run_point(points[i]); });
}

double mta_threat_seq_seconds(const Testbed& tb) {
  return run_point(mta_threat_seq_point(tb));
}

double mta_threat_chunked_seconds(const Testbed& tb, int chunks,
                                  int processors) {
  return run_point(mta_threat_chunked_point(tb, chunks, processors));
}

double mta_threat_finegrained_seconds(const Testbed& tb, int processors) {
  return run_point(mta_threat_finegrained_point(tb, processors));
}

double mta_terrain_seq_seconds(const Testbed& tb) {
  return run_point(mta_terrain_seq_point(tb));
}

double mta_terrain_fine_seconds(const Testbed& tb, int processors) {
  return mta_terrain_fine_seconds(tb, processors,
                                  c3i::terrain::MtaFineParams{});
}

double mta_terrain_fine_seconds(const Testbed& tb, int processors,
                                const terrain::MtaFineParams& params) {
  return run_point(mta_terrain_fine_point(tb, processors, params));
}

}  // namespace tc3i::platforms
