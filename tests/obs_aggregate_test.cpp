// Correctness of the sweep aggregation layer: exact quantiles, group
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

// --- MetricAggregate quantiles -----------------------------------------------

TEST(QuantileSketch, ExactUnderCapacity) {
  MetricAggregate m;
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) {
    // Deterministic scramble so insertion order is not sorted order.
    const double v = static_cast<double>((i * 37) % 60);
    values.push_back(v);
    m.add(v);
  }
  std::sort(values.begin(), values.end());
  // The lower-quantile rule reproduces the order statistics:
  // quantile(q) = values[ceil(q*n) - 1] for q in (0,1].
  for (const double q : {0.1, 0.25, 0.5, 0.9, 1.0}) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())) - 1.0);
    EXPECT_EQ(m.quantile(q), values[idx]) << "q=" << q;
  }
}

TEST(QuantileSketch, EmptyAndSingleElement) {
  MetricAggregate empty;
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  MetricAggregate one;
  one.add(42.0);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(one.quantile(q), 42.0);
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
  EXPECT_EQ(mta.wall.quantile(0.5), 300.0);
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
