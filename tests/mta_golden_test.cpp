// Golden cycle-exactness suite: the fast simulation core (timing-wheel
// wake scheduler, compute-run fast-forwarding, window batching, fixed-point
// network service) must reproduce the pre-optimization reference loop
// (MtaConfig::slow_reference, the binary-heap one-cycle-at-a-time
// simulation) bit-for-bit on every counter the paper's results depend on.
//
// Four layers of defense:
//   1. a synthetic matrix over lookahead x memory_banks x processors with a
//      mixed compute/memory/sync/spawn workload, plus a sync-heavy
//      full/empty ring and spawn-virtualization scenarios;
//   2. hard-coded pins of the spawn-heavy scenarios captured from the seed
//      build (so BOTH paths are also checked against history, not just
//      against each other);
//   3. the real table 5/6/11 experiment configurations (scaled threat
//      chunked/sequential and terrain fine/sequential programs from the
//      testbed), the workloads every headline number runs through;
//   4. --jobs cross-checks of the sweep runner (platforms::run_mta_points):
//      the workloads above, swept on several host threads, must produce
//      seconds, RunRecords, and counter snapshots bit-identical to a
//      point-at-a-time serial loop.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "c3i/terrain/trace_builder.hpp"
#include "c3i/threat/trace_builder.hpp"
#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "mta/stream_program.hpp"
#include "obs/counters.hpp"
#include "obs/run_record.hpp"
#include "platforms/experiment.hpp"
#include "platforms/paper.hpp"
#include "platforms/platform.hpp"
#include "platforms/testbed_cache.hpp"

namespace {

using namespace tc3i;
using mta::Machine;
using mta::MtaConfig;
using mta::MtaRunResult;
using mta::ProgramPool;
using mta::VectorProgram;

/// Builds the same scenario into a fast and a slow-reference machine and
/// requires identical results on every deterministic field.
MtaRunResult expect_golden(
    const MtaConfig& cfg,
    const std::function<void(Machine&, ProgramPool&)>& build,
    const std::string& label) {
  MtaConfig fast_cfg = cfg;
  fast_cfg.slow_reference = false;
  Machine fast(fast_cfg);
  ProgramPool fast_pool;
  build(fast, fast_pool);
  const MtaRunResult f = fast.run();

  MtaConfig slow_cfg = cfg;
  slow_cfg.slow_reference = true;
  Machine slow(slow_cfg);
  ProgramPool slow_pool;
  build(slow, slow_pool);
  const MtaRunResult s = slow.run();

  EXPECT_EQ(f.cycles, s.cycles) << label;
  EXPECT_EQ(f.instructions_issued, s.instructions_issued) << label;
  EXPECT_EQ(f.memory_ops, s.memory_ops) << label;
  EXPECT_EQ(f.spawns, s.spawns) << label;
  EXPECT_EQ(f.streams_completed, s.streams_completed) << label;
  EXPECT_EQ(f.peak_live_streams, s.peak_live_streams) << label;
  // Derived entirely from the integer counts above, so exact equality.
  EXPECT_DOUBLE_EQ(f.seconds, s.seconds) << label;
  EXPECT_DOUBLE_EQ(f.processor_utilization, s.processor_utilization) << label;
  EXPECT_DOUBLE_EQ(f.network_utilization, s.network_utilization) << label;
  // The issue-slot account must be bit-identical per processor (the fast
  // path credits stall slots analytically; any crediting drift shows here)
  // and exhaustive: every slot of every cycle attributed exactly once.
  EXPECT_EQ(f.slots, s.slots) << label;
  EXPECT_EQ(f.processor_slots, s.processor_slots) << label;
  EXPECT_EQ(f.slots.total(),
            f.cycles * static_cast<std::uint64_t>(cfg.num_processors))
      << label;
  for (const auto& per_proc : f.processor_slots)
    EXPECT_EQ(per_proc.total(), f.cycles) << label;
  return f;
}

// --- 1. synthetic matrix ----------------------------------------------------

/// A mixed workload touching every instruction class: a spawn tree of
/// workers with interleaved compute runs and strided memory traffic (bank
/// conflicts when banks are enabled), a producer/consumer sync pair, and a
/// long compute+memory tail that ends with exactly one stream live (the
/// fast path's solo fast-forward window).
void build_mixed(Machine& m, ProgramPool& pool) {
  VectorProgram* parent = pool.make_vector();
  parent->compute(6);
  std::vector<VectorProgram*> workers;
  for (int i = 0; i < 24; ++i) {
    VectorProgram* w = pool.make_vector();
    w->compute(12 + i % 7);
    w->load(static_cast<mta::Address>(64 * i), 3);
    w->compute(5);
    w->store(static_cast<mta::Address>(64 * i + 8), 1, 2);
    workers.push_back(w);
  }
  mta::emit_tree_fork_join(pool, *parent, workers, /*cell_base=*/40000,
                           /*fanout=*/4, /*software=*/false);

  // Producer/consumer handoff through full/empty cells.
  VectorProgram* producer = pool.make_vector();
  producer->compute(30);
  producer->sync_store(50000, 7);
  producer->sync_store(50001, 9);
  VectorProgram* consumer = pool.make_vector();
  consumer->sync_load(50000);
  consumer->compute(4);
  consumer->sync_load(50001);
  consumer->store(50010, 1);

  // Long solo tail: once everything above quits, this stream runs alone.
  VectorProgram* tail = pool.make_vector();
  tail->compute(400);
  tail->load(60000, 5);
  tail->compute(300);
  tail->store(60001, 2);

  m.add_stream(parent);
  m.add_stream(producer);
  m.add_stream(consumer);
  m.add_stream(tail);
}

TEST(MtaGolden, SyntheticMatrix) {
  for (int lookahead : {0, 4}) {
    for (int banks : {0, 64}) {
      for (int procs : {1, 2}) {
        MtaConfig cfg;
        cfg.num_processors = procs;
        cfg.streams_per_processor = 32;
        cfg.lookahead = lookahead;
        cfg.memory_banks = banks;
        const std::string label = "lookahead=" + std::to_string(lookahead) +
                                  " banks=" + std::to_string(banks) +
                                  " procs=" + std::to_string(procs);
        expect_golden(cfg, build_mixed, label);
      }
    }
  }
}

TEST(MtaGolden, SyntheticMatrixUnhashedBanks) {
  // Strided traffic with address hashing disabled: the bank-conflict
  // pathology ablation path.
  MtaConfig cfg;
  cfg.num_processors = 2;
  cfg.streams_per_processor = 32;
  cfg.memory_banks = 64;
  cfg.hash_addresses = false;
  expect_golden(cfg, build_mixed, "banks=64 unhashed");
}

/// Sync-heavy ring: each stream blocks on its left neighbour's cell and
/// signals its right neighbour — nothing but full/empty handoffs, the
/// blocked-in-memory path the timing wheel never sees.
void build_sync_ring(Machine& m, ProgramPool& pool) {
  constexpr int kStreams = 16;
  constexpr int kRounds = 8;
  constexpr mta::Address kBase = 70000;
  for (int i = 0; i < kStreams; ++i) {
    VectorProgram* p = pool.make_vector();
    for (int r = 0; r < kRounds; ++r) {
      p->sync_load(kBase + static_cast<mta::Address>(i));
      p->compute(2);
      p->sync_store(kBase + static_cast<mta::Address>((i + 1) % kStreams), 1);
    }
    m.add_stream(p);
  }
  // Prime the ring: stream 0's cell starts FULL.
  m.memory().store_full(kBase, 1);
}

TEST(MtaGolden, SyncHeavyRing) {
  for (int procs : {1, 2}) {
    MtaConfig cfg;
    cfg.num_processors = procs;
    cfg.streams_per_processor = 32;
    expect_golden(cfg, build_sync_ring,
                  "sync ring procs=" + std::to_string(procs));
  }
}

// --- 2. spawn-heavy pins against the seed build -----------------------------

/// Tree fork/join of 64 workers on 2 processors with 16 slots each, so
/// spawns virtualize and the pending queue drains through finish_stream.
void build_spawn_tree(Machine& m, ProgramPool& pool) {
  VectorProgram* parent = pool.make_vector();
  std::vector<VectorProgram*> workers;
  for (int i = 0; i < 64; ++i) {
    VectorProgram* w = pool.make_vector();
    w->compute(40);
    w->load(static_cast<mta::Address>(1000 + i));
    w->compute(10);
    w->store(static_cast<mta::Address>(2000 + i), 1);
    workers.push_back(w);
  }
  parent->compute(8);
  mta::emit_tree_fork_join(pool, *parent, workers, /*cell_base=*/8000,
                           /*fanout=*/4, /*software=*/false);
  m.add_stream(parent);
}

/// Flat software-spawn burst: 100 workers on 1 processor with 8 slots —
/// nearly every spawn virtualizes.
void build_spawn_flat(Machine& m, ProgramPool& pool) {
  VectorProgram* parent = pool.make_vector();
  for (int i = 0; i < 100; ++i) {
    VectorProgram* w = pool.make_vector();
    w->compute(5);
    w->store(static_cast<mta::Address>(3000 + i), 1);
    parent->spawn(w, /*software=*/true);
  }
  parent->compute(4);
  m.add_stream(parent);
}

TEST(MtaGolden, SpawnTreePinnedToSeed) {
  MtaConfig cfg;
  cfg.num_processors = 2;
  cfg.streams_per_processor = 16;
  const MtaRunResult r = expect_golden(cfg, build_spawn_tree, "spawn tree");
  // Captured from the pre-timing-wheel seed build; any drift here is a
  // behaviour change in BOTH paths, which fast-vs-slow alone cannot see.
  EXPECT_EQ(r.cycles, 5755u);
  EXPECT_EQ(r.instructions_issued, 3673u);
  EXPECT_EQ(r.memory_ops, 296u);
  EXPECT_EQ(r.spawns, 84u);
  EXPECT_EQ(r.streams_completed, 85u);
  EXPECT_EQ(r.peak_live_streams, 32u);
}

TEST(MtaGolden, SpawnFlatPinnedToSeed) {
  MtaConfig cfg;
  cfg.num_processors = 1;
  cfg.streams_per_processor = 8;
  const MtaRunResult r = expect_golden(cfg, build_spawn_flat, "spawn flat");
  EXPECT_EQ(r.cycles, 3379u);
  EXPECT_EQ(r.instructions_issued, 805u);
  EXPECT_EQ(r.memory_ops, 100u);
  EXPECT_EQ(r.spawns, 100u);
  EXPECT_EQ(r.streams_completed, 101u);
  EXPECT_EQ(r.peak_live_streams, 8u);
}

// --- 3. the real table 5/6/11 workloads -------------------------------------

const platforms::Testbed& golden_testbed() {
  static const platforms::Testbed tb = platforms::load_or_build_testbed();
  return tb;
}

TEST(MtaGolden, Table5ThreatChunked) {
  const auto& tb = golden_testbed();
  for (int procs : {1, 2}) {
    expect_golden(
        platforms::make_mta_config(procs),
        [&](Machine& m, ProgramPool& pool) {
          c3i::threat::build_mta_chunked(pool, m, tb.threat_profile_scaled,
                                         256, tb.threat_costs_scaled);
        },
        "table5 chunked-256 procs=" + std::to_string(procs));
  }
}

TEST(MtaGolden, Table5ThreatSequential) {
  const auto& tb = golden_testbed();
  expect_golden(
      platforms::make_mta_config(1),
      [&](Machine& m, ProgramPool& pool) {
        c3i::threat::build_mta_sequential(pool, m, tb.threat_profile_scaled,
                                          tb.threat_costs_scaled);
      },
      "table5 sequential");
}

TEST(MtaGolden, Table6ThreatChunkSweep) {
  const auto& tb = golden_testbed();
  for (const auto& row : platforms::paper::threat_tera_chunk_rows()) {
    expect_golden(
        platforms::make_mta_config(2),
        [&](Machine& m, ProgramPool& pool) {
          c3i::threat::build_mta_chunked(
              pool, m, tb.threat_profile_scaled,
              static_cast<std::size_t>(row.chunks), tb.threat_costs_scaled);
        },
        "table6 chunks=" + std::to_string(row.chunks));
  }
}

TEST(MtaGolden, Table11TerrainFine) {
  const auto& tb = golden_testbed();
  for (int procs : {1, 2}) {
    expect_golden(
        platforms::make_mta_config(procs),
        [&](Machine& m, ProgramPool& pool) {
          c3i::terrain::build_mta_finegrained(pool, m,
                                              tb.terrain_profile_scaled,
                                              tb.terrain_costs_scaled,
                                              c3i::terrain::MtaFineParams{});
        },
        "table11 fine procs=" + std::to_string(procs));
  }
}

TEST(MtaGolden, Table11TerrainSequential) {
  const auto& tb = golden_testbed();
  expect_golden(
      platforms::make_mta_config(1),
      [&](Machine& m, ProgramPool& pool) {
        c3i::terrain::build_mta_sequential(pool, m, tb.terrain_profile_scaled,
                                           tb.terrain_costs_scaled);
      },
      "table11 sequential");
}

// --- 4. --jobs sweep cross-checks -------------------------------------------

/// Counter snapshots must match metric-for-metric, except wall-clock
/// timings (host-time histograms are the one legitimately nondeterministic
/// family).
void expect_registries_match(const obs::CounterRegistry& swept,
                             const obs::CounterRegistry& serial,
                             const std::string& label) {
  const auto keep = [](const obs::MetricSnapshot& m) {
    return m.name.find("wall_seconds") == std::string::npos;
  };
  std::vector<obs::MetricSnapshot> a;
  std::vector<obs::MetricSnapshot> b;
  for (const auto& m : swept.snapshot())
    if (keep(m)) a.push_back(m);
  for (const auto& m : serial.snapshot())
    if (keep(m)) b.push_back(m);
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << label;
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind))
        << label << " " << a[i].name;
    EXPECT_EQ(a[i].count, b[i].count) << label << " " << a[i].name;
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value) << label << " " << a[i].name;
    EXPECT_DOUBLE_EQ(a[i].p50, b[i].p50) << label << " " << a[i].name;
    EXPECT_DOUBLE_EQ(a[i].p90, b[i].p90) << label << " " << a[i].name;
    EXPECT_DOUBLE_EQ(a[i].p99, b[i].p99) << label << " " << a[i].name;
    EXPECT_DOUBLE_EQ(a[i].max, b[i].max) << label << " " << a[i].name;
  }
}

/// Runs `points` once point-at-a-time on the calling thread and once
/// through platforms::run_mta_points at 3 jobs (per-point stores merged in
/// submission order), each pass under its own counter registry and record
/// store, and requires identical seconds, RunRecords (in submission order),
/// and counter snapshots.
void expect_jobs_match(const std::vector<platforms::MtaPoint>& points,
                       const std::string& label) {
  obs::CounterRegistry serial_reg;
  obs::RunRecordStore serial_recs;
  std::vector<double> serial;
  {
    const obs::ScopedRegistry reg(serial_reg);
    const obs::ScopedRunRecords rec(serial_recs);
    for (const platforms::MtaPoint& p : points) {
      const obs::ScopedScenarioLabel scen(p.scenario);
      Machine m(p.config);
      ProgramPool pool;
      p.build(m, pool);
      serial.push_back(m.run().seconds * p.seconds_factor);
    }
  }

  obs::CounterRegistry swept_reg;
  obs::RunRecordStore swept_recs;
  std::vector<double> swept;
  {
    const obs::ScopedRegistry reg(swept_reg);
    const obs::ScopedRunRecords rec(swept_recs);
    swept = platforms::run_mta_points(points, /*jobs=*/3);
  }

  ASSERT_EQ(swept.size(), serial.size()) << label;
  for (std::size_t i = 0; i < swept.size(); ++i)
    EXPECT_DOUBLE_EQ(swept[i], serial[i]) << label << " point " << i;
  // RunRecords carry no wall-clock state, so memberwise equality is exact.
  EXPECT_TRUE(swept_recs.records() == serial_recs.records()) << label;
  expect_registries_match(swept_reg, serial_reg, label);
}

TEST(MtaGolden, JobsMatchSerialSyntheticMatrix) {
  std::vector<platforms::MtaPoint> points;
  for (int lookahead : {0, 4}) {
    for (int procs : {1, 2}) {
      MtaConfig cfg;
      cfg.num_processors = procs;
      cfg.streams_per_processor = 32;
      cfg.lookahead = lookahead;
      cfg.memory_banks = 64;
      points.push_back({cfg, "mixed", build_mixed});
    }
  }
  expect_jobs_match(points, "synthetic matrix");
}

TEST(MtaGolden, JobsMatchSerialSyncRingAndSpawnTrees) {
  std::vector<platforms::MtaPoint> points;
  for (int procs : {1, 2}) {
    MtaConfig cfg;
    cfg.num_processors = procs;
    cfg.streams_per_processor = 32;
    points.push_back({cfg, "sync_ring", build_sync_ring});
  }
  {
    MtaConfig cfg;
    cfg.num_processors = 2;
    cfg.streams_per_processor = 16;
    points.push_back({cfg, "spawn_tree", build_spawn_tree});
  }
  {
    MtaConfig cfg;
    cfg.num_processors = 1;
    cfg.streams_per_processor = 8;
    points.push_back({cfg, "spawn_flat", build_spawn_flat});
  }
  expect_jobs_match(points, "sync ring + spawn trees");
}

TEST(MtaGolden, JobsMatchSerialTableWorkloads) {
  // The points tables 5, 6 and 11 hand to run_mta_points.
  const auto& tb = golden_testbed();
  expect_jobs_match({platforms::mta_threat_chunked_point(tb, 256, 1),
                     platforms::mta_threat_chunked_point(tb, 256, 2),
                     platforms::mta_threat_chunked_point(tb, 64, 2),
                     platforms::mta_threat_seq_point(tb),
                     platforms::mta_terrain_fine_point(tb, 1),
                     platforms::mta_terrain_fine_point(tb, 2),
                     platforms::mta_terrain_seq_point(tb)},
                    "table 5/6/11 workloads");
}

}  // namespace
