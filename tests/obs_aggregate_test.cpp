// Correctness of the sweep aggregation layer: quantile-sketch rank
// guarantees (exact under capacity, bounded after compression), group
// rollup statistics against direct recomputation, MAD outlier flagging,
// and the determinism contract — the aggregate's serialized groups are
// byte-identical whether the runs came from a serial sweep, a jobs-4
// sweep, or a round trip through RunReport JSON.
#include "obs/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "mta/stream_program.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/run_record.hpp"
#include "sim/sweep.hpp"

namespace tc3i::obs {
namespace {

// --- QuantileSketch ----------------------------------------------------------

/// True rank of v in `values`: summed weight of entries <= v (weight 1).
double true_rank(const std::vector<double>& values, double v) {
  double r = 0.0;
  for (const double x : values)
    if (x <= v) r += 1.0;
  return r;
}

TEST(QuantileSketch, ExactUnderCapacity) {
  QuantileSketch s(64);
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) {
    // Deterministic scramble so insertion order is not sorted order.
    const double v = static_cast<double>((i * 37) % 60);
    values.push_back(v);
    s.insert(v);
  }
  EXPECT_EQ(s.rank_error_bound(), 0.0);
  EXPECT_EQ(s.stored_points(), values.size());
  std::sort(values.begin(), values.end());
  // The weighted lower-quantile rule on an exact sketch reproduces the
  // order statistics: quantile(q) = values[ceil(q*n) - 1] for q in (0,1].
  for (const double q : {0.1, 0.25, 0.5, 0.9, 1.0}) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())) - 1.0);
    EXPECT_EQ(s.quantile(q), values[idx]) << "q=" << q;
  }
  for (const double v : {0.0, 17.0, 59.0})
    EXPECT_EQ(s.rank(v), true_rank(values, v));
}

TEST(QuantileSketch, EmptyAndSingleElement) {
  QuantileSketch empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.rank(1.0), 0.0);

  QuantileSketch one;
  one.insert(42.0);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(one.quantile(q), 42.0);
  EXPECT_EQ(one.rank_error_bound(), 0.0);
}

TEST(QuantileSketch, CompressedRanksStayWithinDocumentedBound) {
  // 10000 points through a capacity-512 sketch: ~38 compressions, whose
  // accumulated worst-case bound stays well under the stream size (the
  // per-compress error is total_weight/256 at compress time), so the
  // rank_error_bound() guarantee is meaningful, not vacuous.
  const std::size_t kN = 10000;
  QuantileSketch s(512);
  std::vector<double> values;
  values.reserve(kN);
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < kN; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG
    const double v = static_cast<double>(x >> 40);
    values.push_back(v);
    s.insert(v);
  }
  EXPECT_LE(s.stored_points(), 512u);
  EXPECT_GT(s.rank_error_bound(), 0.0);
  // The bound must be meaningful (well under n) and honored at every
  // probed value, including the extremes.
  EXPECT_LT(s.rank_error_bound(), static_cast<double>(kN) / 2.0);
  std::sort(values.begin(), values.end());
  for (const double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    const double v =
        values[static_cast<std::size_t>(q * static_cast<double>(kN - 1))];
    EXPECT_NEAR(s.rank(v), true_rank(values, v), s.rank_error_bound())
        << "q=" << q;
  }
  // Quantile queries land within the bound in rank space too.
  for (const double q : {0.1, 0.5, 0.9}) {
    const double v = s.quantile(q);
    EXPECT_NEAR(true_rank(values, v), q * static_cast<double>(kN),
                s.rank_error_bound() + 1.0)
        << "q=" << q;
  }
}

// --- SweepAggregator ---------------------------------------------------------

RunRecord mta_record(const std::string& scenario, int processors,
                     std::uint64_t cycles, double util) {
  RunRecord r;
  r.model = "mta";
  r.name = "Tera MTA";
  r.scenario = scenario;
  r.processors = processors;
  r.threads = 100;
  r.cycles = cycles;
  r.utilization = util;
  // An internally consistent issue-slot account: used matches utilization,
  // the remainder splits over two stall categories.
  const auto total = cycles * static_cast<std::uint64_t>(processors);
  r.slots.used = static_cast<std::uint64_t>(util * static_cast<double>(total));
  const std::uint64_t rest = total - r.slots.used;
  r.slots.memory = rest / 2;
  r.slots.spacing = rest - rest / 2;
  return r;
}

RunRecord smp_record(double seconds) {
  RunRecord r;
  r.model = "smp";
  r.name = "4-way SMP";
  r.scenario = "threat_seq";
  r.processors = 4;
  r.threads = 4;
  r.elapsed_seconds = seconds;
  r.utilization = 0.5;
  return r;
}

TEST(SweepAggregator, GroupStatsMatchDirectRecomputation) {
  SweepAggregator agg;
  const std::vector<double> walls = {100, 300, 200, 500, 400};
  for (const double w : walls)
    agg.add(mta_record("threat_seq", 1, static_cast<std::uint64_t>(w), 0.5));
  agg.add(smp_record(1.25));

  ASSERT_EQ(agg.groups().size(), 2u);
  ASSERT_EQ(agg.runs(), 6u);
  const SweepGroup& mta = agg.groups()[0];
  EXPECT_EQ(mta.key.model, "mta");
  EXPECT_EQ(mta.key.scenario, "threat_seq");
  EXPECT_EQ(mta.wall_unit, "cycles");
  EXPECT_EQ(mta.wall.count, walls.size());
  EXPECT_EQ(mta.wall.min, 100.0);
  EXPECT_EQ(mta.wall.max, 500.0);
  EXPECT_EQ(mta.wall.sum, 1500.0);
  EXPECT_EQ(mta.wall.mean(), 300.0);
  EXPECT_EQ(mta.wall.sketch.quantile(0.5), 300.0);
  // Slot shares per record sum to 1, so each share's mean sums to 1 too.
  double share_means = 0.0;
  for (std::size_t i = 0; i < 6; ++i) share_means += mta.slot_share[i].mean();
  EXPECT_NEAR(share_means, 1.0, 1e-12);

  const SweepGroup& smp = agg.groups()[1];
  EXPECT_EQ(smp.wall_unit, "seconds");
  EXPECT_EQ(smp.wall.sum, 1.25);
}

TEST(SweepAggregator, OutlierFlagging) {
  SweepAggregator agg;
  // Nine tightly clustered runs and one 3x-slower straggler.
  for (int i = 0; i < 9; ++i)
    agg.add(mta_record("threat_seq", 1,
                       static_cast<std::uint64_t>(1000 + (i % 3)), 0.5));
  agg.add(mta_record("threat_seq", 1, 3000, 0.5));
  ASSERT_EQ(agg.groups().size(), 1u);
  const std::vector<std::uint64_t> outliers =
      agg.outlier_runs(agg.groups()[0]);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0], 9u);  // submission index of the straggler
}

TEST(SweepAggregator, NoOutliersBelowThreeRuns) {
  SweepAggregator agg;
  agg.add(mta_record("threat_seq", 1, 100, 0.5));
  agg.add(mta_record("threat_seq", 1, 90000, 0.5));
  EXPECT_TRUE(agg.outlier_runs(agg.groups()[0]).empty());
}

std::string groups_json(const SweepAggregator& agg) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  agg.write_groups_json(w);
  w.end_object();
  return os.str();
}

// --- End-to-end with real machine runs ---------------------------------------

mta::MtaConfig small_config() {
  mta::MtaConfig cfg;
  cfg.num_processors = 1;
  cfg.streams_per_processor = 128;
  cfg.memory_words = 1 << 16;
  return cfg;
}

/// One cheap MTA run whose cycle count varies with `index`.
std::uint64_t run_small_machine(std::size_t index) {
  mta::Machine machine(small_config());
  mta::ProgramPool pool;
  mta::VectorProgram* p = pool.make_vector();
  for (std::size_t r = 0; r < 20 + index % 5; ++r) {
    p->compute(4);
    p->load(static_cast<mta::Address>((index * 64 + r) & 0xffff));
  }
  machine.add_stream(p);
  return machine.run().cycles;
}

TEST(SweepAggregator, ByteIdenticalAtAnyJobs) {
  const auto sweep_groups = [](int jobs) {
    RunRecordStore store;
    ScopedRunRecords scope(store);
    sim::run_sweep(24, jobs,
                   [](std::size_t i) { return run_small_machine(i); });
    return groups_json(aggregate_records(store.records()));
  };
  const std::string at_jobs_1 = sweep_groups(1);
  EXPECT_EQ(at_jobs_1, sweep_groups(4));
  EXPECT_EQ(at_jobs_1, sweep_groups(3));
}

TEST(SweepAggregator, HundredRunSweepMatchesRecomputationFromRunReport) {
  // The acceptance path: aggregate a 100-run sweep directly, then push the
  // same records through RunReport JSON serialization (what --report-out
  // emits) and recompute from the parsed machine_runs — the tools-side
  // recomputation must agree byte-for-byte with the session-side
  // aggregate.
  RunRecordStore store;
  ScopedRunRecords scope(store);
  sim::run_sweep(100, 4, [](std::size_t i) { return run_small_machine(i); });
  ASSERT_EQ(store.records().size(), 100u);
  const std::string direct = groups_json(aggregate_records(store.records()));

  RunReport report("aggregate_test");
  report.set_machine_runs(store.records());
  std::ostringstream os;
  const CounterRegistry empty_registry;
  report.write_json(os, empty_registry);
  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const std::vector<RunRecord> parsed = machine_runs_from_json(*doc);
  ASSERT_EQ(parsed.size(), 100u);
  EXPECT_EQ(groups_json(aggregate_records(parsed)), direct);
}

}  // namespace
}  // namespace tc3i::obs
