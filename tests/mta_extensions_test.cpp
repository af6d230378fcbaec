// Tests for the MTA extensions: explicit-dependence lookahead, spawn
// trees, combining-tree fork/join, and network utilization reporting.
#include <gtest/gtest.h>

#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "obs/timeline.hpp"

namespace tc3i::mta {
namespace {

MtaConfig cfg(int procs = 1, int lookahead = 0) {
  MtaConfig c;
  c.num_processors = procs;
  c.clock_hz = 100e6;
  c.network_ops_per_cycle = 8.0;
  c.memory_words = 1u << 16;
  c.lookahead = lookahead;
  return c;
}

std::uint64_t run_mem_kernel(const MtaConfig& config, int streams, int reps) {
  Machine m(config);
  ProgramPool pool;
  for (int s = 0; s < streams; ++s) {
    VectorProgram* p = pool.make_vector();
    for (int r = 0; r < reps; ++r) {
      p->compute(2);
      p->load(1);
    }
    m.add_stream(p);
  }
  return m.run().cycles;
}

TEST(Lookahead, ZeroMatchesLegacyBlockingBehaviour) {
  // Pure loads, one stream: each op occupies the stream for the latency.
  MtaConfig c = cfg();
  Machine m(c);
  ProgramPool pool;
  VectorProgram* p = pool.make_vector();
  p->load(1, 50);
  m.add_stream(p);
  EXPECT_GE(m.run().cycles, 50u * 70u);
}

TEST(Lookahead, HidesLatencyForSingleStream) {
  const auto blocking = run_mem_kernel(cfg(1, 0), 1, 200);
  const auto overlapped = run_mem_kernel(cfg(1, 4), 1, 200);
  EXPECT_LT(overlapped, blocking);
  // With 3 instructions per load at 21-cycle spacing (63 cycles) and
  // 70-cycle latency, lookahead 4 nearly eliminates memory stalls:
  // ~3 x 21 cycles per iteration.
  EXPECT_LE(overlapped, 200u * 3u * 21u + 500u);
}

TEST(Lookahead, MonotonicallyHelps) {
  std::uint64_t prev = ~0ull;
  for (const int la : {0, 1, 2, 8}) {
    const auto t = run_mem_kernel(cfg(1, la), 1, 100);
    EXPECT_LE(t, prev);
    prev = t;
  }
}

TEST(Lookahead, CapsOutstandingOps) {
  // With lookahead 1 and back-to-back loads (no compute), the stream can
  // never have more than 2 in flight: the time is ~half the blocking time,
  // not the fully pipelined time.
  MtaConfig blocking = cfg(1, 0);
  MtaConfig la1 = cfg(1, 1);
  auto run_loads = [&](const MtaConfig& c) {
    Machine m(c);
    ProgramPool pool;
    VectorProgram* p = pool.make_vector();
    p->load(1, 100);
    m.add_stream(p);
    return m.run().cycles;
  };
  const auto t0 = run_loads(blocking);
  const auto t1 = run_loads(la1);
  EXPECT_LT(t1, t0);
  EXPECT_GT(t1, t0 / 3);  // still latency-bound, not issue-bound
}

TEST(Lookahead, DoesNotChangeResultsOnlyTiming) {
  MtaConfig c = cfg(1, 8);
  Machine m(c);
  ProgramPool pool;
  VectorProgram* p = pool.make_vector();
  p->store(7, 42);
  p->load(7, 3);
  m.add_stream(p);
  const auto r = m.run();
  EXPECT_EQ(m.memory().load(7), 42);
  EXPECT_EQ(r.memory_ops, 4u);
}

TEST(SpawnTree, AllWorkersRun) {
  Machine m(cfg(2));
  ProgramPool pool;
  VectorProgram* master = pool.make_vector();
  constexpr std::size_t kWorkers = 100;
  std::vector<StreamProgram*> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    VectorProgram* p = pool.make_vector();
    p->compute(3);
    signal_done(*p, 128, w);
    workers.push_back(p);
  }
  emit_spawn_tree(pool, *master, workers, 4);
  await_all(*master, 128, kWorkers);
  m.add_stream(master);
  const auto r = m.run();
  // workers + intermediate spawner nodes + master all complete.
  EXPECT_GT(r.streams_completed, kWorkers);
}

TEST(SpawnTree, FasterThanSerialForLargeFanouts) {
  auto run_mode = [&](bool tree) {
    Machine m(cfg(2));
    ProgramPool pool;
    VectorProgram* master = pool.make_vector();
    constexpr std::size_t kWorkers = 200;
    std::vector<StreamProgram*> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      VectorProgram* p = pool.make_vector();
      p->compute(1);
      signal_done(*p, 512, w);
      workers.push_back(p);
    }
    if (tree)
      emit_spawn_tree(pool, *master, workers, 4);
    else
      for (auto* w : workers) master->spawn(w, false);
    await_all(*master, 512, kWorkers);
    m.add_stream(master);
    return m.run().cycles;
  };
  EXPECT_LT(run_mode(true), run_mode(false));
}

TEST(TreeForkJoin, CompletesAndReturnsCellWatermark) {
  Machine m(cfg(2));
  ProgramPool pool;
  VectorProgram* master = pool.make_vector();
  constexpr std::size_t kWorkers = 64;
  std::vector<VectorProgram*> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    VectorProgram* p = pool.make_vector();
    p->compute(5);
    workers.push_back(p);
  }
  const Address next = emit_tree_fork_join(pool, *master, workers, 1000, 4);
  // 64 leaves + 16 + 4 internal node cells.
  EXPECT_EQ(next, 1000u + 64u + 16u + 4u);
  master->compute(1);
  m.add_stream(master);
  const auto r = m.run();
  EXPECT_EQ(r.streams_completed, 1u + kWorkers + 16u + 4u);
}

TEST(TreeForkJoin, JoinReallyWaitsForSlowestLeaf) {
  Machine m(cfg(2));
  ProgramPool pool;
  VectorProgram* master = pool.make_vector();
  std::vector<VectorProgram*> workers;
  for (std::size_t w = 0; w < 16; ++w) {
    VectorProgram* p = pool.make_vector();
    p->compute(w == 7 ? 2000 : 10);  // one straggler
    workers.push_back(p);
  }
  emit_tree_fork_join(pool, *master, workers, 4, 4);
  m.add_stream(master);
  EXPECT_GE(m.run().cycles, 2000u * 21u);
}

TEST(TreeForkJoin, MuchCheaperThanSerialJoin) {
  auto run_mode = [&](bool tree) {
    Machine m(cfg(2));
    ProgramPool pool;
    VectorProgram* master = pool.make_vector();
    constexpr std::size_t kWorkers = 256;
    std::vector<VectorProgram*> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      VectorProgram* p = pool.make_vector();
      p->compute(1);
      workers.push_back(p);
    }
    if (tree) {
      emit_tree_fork_join(pool, *master, workers, 64, 4);
    } else {
      for (std::size_t w = 0; w < kWorkers; ++w) {
        signal_done(*workers[w], 64 + w, 0);
        master->spawn(workers[w], false);
      }
      await_all(*master, 64, kWorkers);
    }
    m.add_stream(master);
    return m.run().cycles;
  };
  EXPECT_LT(run_mode(true) * 4, run_mode(false));
}

TEST(NetworkUtilization, ReportedAndBounded) {
  MtaConfig c = cfg(1);
  c.network_ops_per_cycle = 0.5;
  Machine m(c);
  ProgramPool pool;
  for (int s = 0; s < 64; ++s) {
    VectorProgram* p = pool.make_vector();
    p->load(1, 100);
    m.add_stream(p);
  }
  const auto r = m.run();
  EXPECT_GT(r.network_utilization, 0.8);  // memory-only kernel saturates it
  EXPECT_LE(r.network_utilization, 1.0 + 1e-9);
}

TEST(Timeline, RecordsBucketsSummingToTotalIssues) {
  obs::TimelineStore store(100);
  MtaRunResult r;
  {
    obs::ScopedTimeline scope(store);
    Machine m(cfg(1));
    ProgramPool pool;
    for (int s = 0; s < 8; ++s) {
      VectorProgram* p = pool.make_vector();
      p->compute(200);
      m.add_stream(p);
    }
    r = m.run();
  }
  const std::vector<obs::MachineTimeline> timelines = store.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  const std::vector<obs::TimelinePoint>& util =
      timelines.front().find("issue_utilization").points;
  ASSERT_FALSE(util.empty());
  double issued = 0.0;
  for (const obs::TimelinePoint& pt : util) {
    EXPECT_GE(pt.value, 0.0);
    EXPECT_LE(pt.value, 1.0 + 1e-9);
    issued += pt.value * 100.0;  // bucket cycles * procs(=1)
  }
  EXPECT_NEAR(issued, static_cast<double>(r.instructions_issued), 100.0);
}

TEST(MemoryBanks, UnhashedStrideSerializesOnOneBank) {
  auto run_stride64 = [&](int banks, bool hashed) {
    MtaConfig c = cfg(1);
    c.network_ops_per_cycle = 16.0;
    c.memory_banks = banks;
    c.bank_busy_cycles = 8;
    c.hash_addresses = hashed;
    Machine m(c);
    ProgramPool pool;
    for (int s = 0; s < 32; ++s) {
      VectorProgram* p = pool.make_vector();
      for (int i = 0; i < 50; ++i) {
        p->compute(2);
        p->load(static_cast<Address>(i * 1024 + s * 64));  // bank 0 always
      }
      m.add_stream(p);
    }
    return m.run().cycles;
  };
  const auto ideal = run_stride64(0, false);
  const auto hashed = run_stride64(64, true);
  const auto unhashed = run_stride64(64, false);
  // Hashing keeps the strided sweep near ideal; unhashed serializes:
  // 1600 ops x 8 bank-busy cycles >= 12800 cycles.
  EXPECT_LT(hashed, ideal * 3 / 2);
  EXPECT_GE(unhashed, 12'000u);
  EXPECT_GT(unhashed, hashed * 2);
}

TEST(MemoryBanks, DistinctBanksDoNotConflict) {
  MtaConfig c = cfg(1);
  c.network_ops_per_cycle = 16.0;
  c.memory_banks = 64;
  c.hash_addresses = false;
  Machine m(c);
  ProgramPool pool;
  for (int s = 0; s < 32; ++s) {
    VectorProgram* p = pool.make_vector();
    p->load(static_cast<Address>(s), 50);  // stream s owns bank s
    m.add_stream(p);
  }
  // Each bank serves its own stream: bank time 50*8=400 < the per-stream
  // latency-bound time, so banks are invisible here.
  MtaConfig ideal_cfg = c;
  ideal_cfg.memory_banks = 0;
  Machine ideal(ideal_cfg);
  ProgramPool pool2;
  for (int s = 0; s < 32; ++s) {
    VectorProgram* p = pool2.make_vector();
    p->load(static_cast<Address>(s), 50);
    ideal.add_stream(p);
  }
  const auto with_banks = m.run().cycles;
  const auto without = ideal.run().cycles;
  EXPECT_NEAR(static_cast<double>(with_banks), static_cast<double>(without),
              static_cast<double>(without) * 0.15);
}

TEST(MemoryBanks, SyncHandoffsCarryTheirAddressBank) {
  // A sync hand-off completes through the banked memory path without
  // aborting and with correct values.
  MtaConfig c = cfg(1);
  c.memory_banks = 8;
  Machine m(c);
  ProgramPool pool;
  VectorProgram* consumer = pool.make_vector();
  consumer->sync_load(5);
  VectorProgram* producer = pool.make_vector();
  producer->compute(100);
  producer->sync_store(5, 31);
  m.add_stream(consumer);
  m.add_stream(producer);
  m.run();
  EXPECT_EQ(m.memory().load(5), 31);
}

TEST(MtaConfigValidate, RejectsBadBankSettings) {
  MtaConfig c = cfg();
  c.memory_banks = -1;
  EXPECT_NE(c.validate(), "");
  c.memory_banks = 8;
  c.bank_busy_cycles = 0;
  EXPECT_NE(c.validate(), "");
}

TEST(MtaConfigValidate, RejectsNegativeLookahead) {
  MtaConfig c = cfg();
  c.lookahead = -1;
  EXPECT_NE(c.validate(), "");
}

}  // namespace
}  // namespace tc3i::mta
