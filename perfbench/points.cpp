#include "points.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "obs/counters.hpp"
#include "platforms/paper.hpp"
#include "platforms/platform.hpp"
#include "smp/machine.hpp"

namespace perfbench {

namespace {

namespace obs = tc3i::obs;
namespace mta = tc3i::mta;
namespace smp = tc3i::smp;
namespace platforms = tc3i::platforms;
namespace paper = tc3i::platforms::paper;
namespace threat = tc3i::c3i::threat;
namespace terrain = tc3i::c3i::terrain;

using SmpPlatform = smp::SmpConfig Testbed::*;

// --- untraced: the public experiment functions -------------------------------

/// The counters the machines publish at the end of each run.
struct Tally {
  std::uint64_t instructions = 0;
  std::uint64_t slots = 0;  ///< issue slots over all processors
  std::uint64_t smp_ops = 0;
};

Tally read_tally() {
  // The calling thread's registry: the process-wide one, or inside a
  // parallel sweep the point's own (sim/sweep.hpp). No registry is created
  // here, because some layers cache a counter from whichever registry is
  // active the first time they run.
  obs::CounterRegistry& reg = obs::default_registry();
  Tally t;
  t.instructions = reg.counter("mta.issue.total").value();
  for (const char* s : {"used", "no_stream", "spacing", "spawn", "memory",
                        "sync"})
    t.slots += reg.counter(std::string("mta.slot.") + s).value();
  t.smp_ops = reg.counter("smp.ops_executed").value();
  return t;
}

/// Runs `seconds_fn` and reads what the machines simulated from the
/// counters they published meanwhile.
template <typename Fn>
PointResult counted(int mta_processors, Fn&& seconds_fn) {
  const Tally before = read_tally();
  PointResult r;
  r.seconds = seconds_fn();
  const Tally after = read_tally();
  r.instructions = after.instructions - before.instructions;
  if (mta_processors > 0)
    r.cycles = (after.slots - before.slots) /
               static_cast<std::uint64_t>(mta_processors);
  r.smp_ops = after.smp_ops - before.smp_ops;
  return r;
}

// --- traced: the layer calls underneath the experiment functions ------------

/// platforms' scalar MTA point: construct, build the stream programs, run,
/// and extrapolate by the testbed's instruction-scaling factor.
template <typename Build>
PointResult traced_mta(int processors, double factor, Tracer& tr,
                       SpanId parent, Build&& build) {
  std::optional<mta::Machine> machine;
  std::optional<mta::ProgramPool> pool;
  {
    const Span s(tr, "mta.construct", parent);
    machine.emplace(platforms::make_mta_config(processors));
  }
  pool.emplace();
  {
    const Span s(tr, "c3i.program_build", parent);
    build(*pool, *machine);
  }
  mta::MtaRunResult run;
  {
    const Span s(tr, "mta.run", parent);
    run = machine->run();
  }
  {
    const Span s(tr, "mta.teardown", parent);
    pool.reset();
    machine.reset();
  }
  PointResult r;
  r.seconds = run.seconds * factor;
  r.cycles = run.cycles;
  r.instructions = run.instructions_issued;
  r.slots = run.slots;
  return r;
}

template <typename BuildTrace, typename Run>
void traced_smp_run(PointResult& r, Tracer& tr, SpanId parent,
                    BuildTrace&& build_trace, Run&& run) {
  const auto trace = [&] {
    const Span s(tr, "c3i.trace_build", parent);
    return build_trace();
  }();
  const Span s(tr, "smp.run", parent);
  const smp::RunResult result = run(trace);
  r.seconds += result.elapsed;
  r.smp_ops += result.ops_executed;
}

// The four functions below make the same calls, in the same order, as
// platforms::threat_seq_seconds, threat_chunked_seconds,
// terrain_seq_seconds and terrain_coarse_seconds.

PointResult traced_threat_seq(const Testbed& tb, SmpPlatform platform,
                              Tracer& tr, SpanId parent) {
  const smp::Machine machine(tb.*platform);
  PointResult r;
  for (const auto& p : tb.threat_profiles)
    traced_smp_run(
        r, tr, parent,
        [&] { return threat::build_sequential_trace(p, tb.threat_costs); },
        [&](const auto& t) { return machine.run_sequential(t); });
  return r;
}

PointResult traced_threat_chunked(const Testbed& tb, SmpPlatform platform,
                                  int processors, Tracer& tr, SpanId parent) {
  smp::SmpConfig c = tb.*platform;
  c.num_processors = processors;
  const smp::Machine machine(c);
  PointResult r;
  for (const auto& p : tb.threat_profiles)
    traced_smp_run(
        r, tr, parent,
        [&] {
          return threat::build_chunked_workload(
              p, static_cast<std::size_t>(processors), tb.threat_costs);
        },
        [&](const auto& w) { return machine.run(w); });
  return r;
}

PointResult traced_terrain_seq(const Testbed& tb, SmpPlatform platform,
                               Tracer& tr, SpanId parent) {
  const smp::Machine machine(tb.*platform);
  PointResult r;
  for (const auto& p : tb.terrain_profiles) {
    traced_smp_run(
        r, tr, parent,
        [&] { return terrain::build_init_trace(p, tb.terrain_costs); },
        [&](const auto& t) { return machine.run_sequential(t); });
    traced_smp_run(
        r, tr, parent,
        [&] { return terrain::build_sequential_trace(p, tb.terrain_costs); },
        [&](const auto& t) { return machine.run_sequential(t); });
  }
  return r;
}

PointResult traced_terrain_coarse(const Testbed& tb, SmpPlatform platform,
                                  int processors, Tracer& tr, SpanId parent) {
  smp::SmpConfig c = tb.*platform;
  c.num_processors = processors;
  const smp::Machine machine(c);
  PointResult r;
  for (const auto& p : tb.terrain_profiles) {
    traced_smp_run(
        r, tr, parent,
        [&] { return terrain::build_init_trace(p, tb.terrain_costs); },
        [&](const auto& t) { return machine.run_sequential(t); });
    traced_smp_run(
        r, tr, parent,
        [&] {
          return terrain::build_coarse_pool(p, processors, 10,
                                            tb.terrain_costs);
        },
        [&](const auto& w) { return machine.run_pool(w); });
  }
  return r;
}

// --- point constructors ------------------------------------------------------

Point mta_threat_chunked(int chunks, int processors, double paper_seconds) {
  Point p;
  p.name = "threat_chunked_c" + std::to_string(chunks) + "_p" +
           std::to_string(processors);
  p.paper_seconds = paper_seconds;
  p.run = [=](const Testbed& tb) {
    return counted(processors, [&] {
      return platforms::mta_threat_chunked_seconds(tb, chunks, processors);
    });
  };
  p.run_traced = [=](const Testbed& tb, Tracer& tr, SpanId parent) {
    return traced_mta(processors, tb.threat_mta_factor, tr, parent,
                      [&](mta::ProgramPool& pool, mta::Machine& m) {
                        threat::build_mta_chunked(
                            pool, m, tb.threat_profile_scaled,
                            static_cast<std::size_t>(chunks),
                            tb.threat_costs_scaled);
                      });
  };
  return p;
}

Point mta_threat_seq() {
  Point p;
  p.name = "threat_seq_mta";
  p.paper_seconds = paper::kThreatSeqTera;
  p.run = [](const Testbed& tb) {
    return counted(1, [&] { return platforms::mta_threat_seq_seconds(tb); });
  };
  p.run_traced = [](const Testbed& tb, Tracer& tr, SpanId parent) {
    return traced_mta(1, tb.threat_mta_factor, tr, parent,
                      [&](mta::ProgramPool& pool, mta::Machine& m) {
                        threat::build_mta_sequential(pool, m,
                                                     tb.threat_profile_scaled,
                                                     tb.threat_costs_scaled);
                      });
  };
  return p;
}

Point mta_threat_fine(int processors) {
  Point p;
  p.name = "threat_fine_p" + std::to_string(processors);
  p.run = [=](const Testbed& tb) {
    return counted(processors, [&] {
      return platforms::mta_threat_finegrained_seconds(tb, processors);
    });
  };
  p.run_traced = [=](const Testbed& tb, Tracer& tr, SpanId parent) {
    return traced_mta(processors, tb.threat_mta_factor, tr, parent,
                      [&](mta::ProgramPool& pool, mta::Machine& m) {
                        threat::build_mta_finegrained(
                            pool, m, tb.threat_profile_scaled,
                            tb.threat_costs_scaled);
                      });
  };
  return p;
}

Point mta_terrain_seq() {
  Point p;
  p.name = "terrain_seq_mta";
  p.paper_seconds = paper::kTerrainSeqTera;
  p.run = [](const Testbed& tb) {
    return counted(1, [&] { return platforms::mta_terrain_seq_seconds(tb); });
  };
  p.run_traced = [](const Testbed& tb, Tracer& tr, SpanId parent) {
    return traced_mta(1, tb.terrain_mta_factor, tr, parent,
                      [&](mta::ProgramPool& pool, mta::Machine& m) {
                        terrain::build_mta_sequential(
                            pool, m, tb.terrain_profile_scaled,
                            tb.terrain_costs_scaled);
                      });
  };
  return p;
}

/// Fine-grained Terrain Masking; `pipelines` 0 keeps the default schedule
/// (Table 11), any other value is a pipeline-count ablation point.
Point mta_terrain_fine(std::size_t pipelines, int processors,
                       double paper_seconds) {
  terrain::MtaFineParams params;
  Point p;
  p.name = "terrain_fine";
  if (pipelines != 0) {
    params.pipelines = pipelines;
    p.name += "_pl" + std::to_string(pipelines);
  }
  p.name += "_p" + std::to_string(processors);
  p.paper_seconds = paper_seconds;
  p.run = [=](const Testbed& tb) {
    return counted(processors, [&] {
      return platforms::mta_terrain_fine_seconds(tb, processors, params);
    });
  };
  p.run_traced = [=](const Testbed& tb, Tracer& tr, SpanId parent) {
    return traced_mta(processors, tb.terrain_mta_factor, tr, parent,
                      [&](mta::ProgramPool& pool, mta::Machine& m) {
                        terrain::build_mta_finegrained(
                            pool, m, tb.terrain_profile_scaled,
                            tb.terrain_costs_scaled, params);
                      });
  };
  return p;
}

Point smp_seq(bool is_threat, const char* platform_name, SmpPlatform platform,
              double paper_seconds) {
  Point p;
  p.name = std::string(is_threat ? "threat" : "terrain") + "_seq_" +
           platform_name;
  p.paper_seconds = paper_seconds;
  p.run = [=](const Testbed& tb) {
    return counted(0, [&] {
      return is_threat ? platforms::threat_seq_seconds(tb, tb.*platform)
                       : platforms::terrain_seq_seconds(tb, tb.*platform);
    });
  };
  p.run_traced = [=](const Testbed& tb, Tracer& tr, SpanId parent) {
    return is_threat ? traced_threat_seq(tb, platform, tr, parent)
                     : traced_terrain_seq(tb, platform, tr, parent);
  };
  return p;
}

/// Program 2 (threat, `processors` chunks) or Program 4 (terrain,
/// `processors` workers) on `processors` processors, as Tables 3-4 and
/// 9-10 and project_smp_scaling run them.
Point smp_parallel(bool is_threat, const char* platform_name,
                   SmpPlatform platform, int processors,
                   double paper_seconds) {
  Point p;
  p.name = std::string(is_threat ? "threat_chunked_" : "terrain_coarse_") +
           platform_name + "_p" + std::to_string(processors);
  p.paper_seconds = paper_seconds;
  p.run = [=](const Testbed& tb) {
    return counted(0, [&] {
      return is_threat ? platforms::threat_chunked_seconds(
                             tb, tb.*platform, processors, processors)
                       : platforms::terrain_coarse_seconds(
                             tb, tb.*platform, processors, processors);
    });
  };
  p.run_traced = [=](const Testbed& tb, Tracer& tr, SpanId parent) {
    return is_threat
               ? traced_threat_chunked(tb, platform, processors, tr, parent)
               : traced_terrain_coarse(tb, platform, processors, tr, parent);
  };
  return p;
}

Workload mta_threat_workload() {
  Workload w;
  w.name = "mta_threat";
  // Table 5, its sequential comparison point, Table 6 (whose 256-chunk
  // row is Table 5's 2-processor point), and the fine-grained variant.
  w.points.push_back(
      mta_threat_chunked(256, 1, paper::kThreatTera1Proc));
  w.points.push_back(mta_threat_seq());
  for (const auto& row : paper::threat_tera_chunk_rows())
    w.points.push_back(mta_threat_chunked(row.chunks, 2, row.seconds));
  w.points.push_back(mta_threat_fine(1));
  w.points.push_back(mta_threat_fine(2));
  return w;
}

Workload mta_terrain_workload() {
  Workload w;
  w.name = "mta_terrain";
  w.jobs = std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                      1, 4);
  // Table 11 and its sequential comparison point, then the pipeline-count
  // ablation (the default schedule's 4 pipelines are Table 11 itself).
  w.points.push_back(mta_terrain_fine(0, 1, paper::kTerrainTera1Proc));
  w.points.push_back(mta_terrain_fine(0, 2, paper::kTerrainTera2Proc));
  w.points.push_back(mta_terrain_seq());
  for (const std::size_t pipelines : {1, 2, 6, 10})
    for (const int processors : {1, 2})
      w.points.push_back(mta_terrain_fine(pipelines, processors, 0.0));
  return w;
}

Workload cold_start_workload() {
  Workload w;
  w.name = "cold_start";
  w.cold = true;
  // Tables 2 and 8 (the conventional platforms' sequential rows).
  w.points.push_back(smp_seq(true, "alpha", &Testbed::alpha,
                             paper::kThreatSeqAlpha));
  w.points.push_back(smp_seq(true, "ppro", &Testbed::ppro,
                             paper::kThreatSeqPPro));
  w.points.push_back(smp_seq(true, "exemplar", &Testbed::exemplar,
                             paper::kThreatSeqExemplar));
  w.points.push_back(smp_seq(false, "alpha", &Testbed::alpha,
                             paper::kTerrainSeqAlpha));
  w.points.push_back(smp_seq(false, "ppro", &Testbed::ppro,
                             paper::kTerrainSeqPPro));
  w.points.push_back(smp_seq(false, "exemplar", &Testbed::exemplar,
                             paper::kTerrainSeqExemplar));
  // Tables 3, 4, 9 and 10.
  for (const auto& row : paper::threat_ppro_rows())
    w.points.push_back(smp_parallel(true, "ppro", &Testbed::ppro,
                                    row.processors, row.seconds));
  for (const auto& row : paper::threat_exemplar_rows())
    w.points.push_back(smp_parallel(true, "exemplar", &Testbed::exemplar,
                                    row.processors, row.seconds));
  for (const auto& row : paper::terrain_ppro_rows())
    w.points.push_back(smp_parallel(false, "ppro", &Testbed::ppro,
                                    row.processors, row.seconds));
  for (const auto& row : paper::terrain_exemplar_rows())
    w.points.push_back(smp_parallel(false, "exemplar", &Testbed::exemplar,
                                    row.processors, row.seconds));
  // project_smp_scaling's points beyond the Exemplar's 16 processors.
  for (const int processors : {32, 64}) {
    w.points.push_back(smp_parallel(true, "exemplar", &Testbed::exemplar,
                                    processors, 0.0));
    w.points.push_back(smp_parallel(false, "exemplar", &Testbed::exemplar,
                                    processors, 0.0));
  }
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"mta_threat", "mta_terrain", "cold_start"};
}

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "mta_threat") return mta_threat_workload();
  if (name == "mta_terrain") return mta_terrain_workload();
  if (name == "cold_start") return cold_start_workload();
  return std::nullopt;
}

}  // namespace perfbench
