// Correctness of the sweep aggregation layer: exact quantiles, group
// rollup statistics against direct recomputation, and the determinism
// contract — the aggregate's groups are equal, value for value, whether
// the runs came from a serial sweep, a jobs-4 sweep, or a round trip
// through RunReport JSON.
#include "obs/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
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
  EXPECT_EQ(mta.wall.count, walls.size());
  EXPECT_EQ(mta.wall.min, 100.0);
  EXPECT_EQ(mta.wall.max, 500.0);
  EXPECT_EQ(mta.wall.sum, 1500.0);
  EXPECT_EQ(mta.wall.mean(), 300.0);
  EXPECT_EQ(mta.wall.quantile(0.5), 300.0);

  // SMP walls are seconds, not cycles.
  const SweepGroup& smp = agg.groups()[1];
  EXPECT_EQ(smp.wall.sum, 1.25);
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
  // Exact equality of every group, every value and every double.
  const auto sweep_groups = [](int jobs) {
    RunRecordStore store;
    ScopedRunRecords scope(store);
    sim::run_sweep(24, jobs,
                   [](std::size_t i) { return run_small_machine(i); });
    return aggregate_records(store.records()).groups();
  };
  const std::vector<SweepGroup> at_jobs_1 = sweep_groups(1);
  ASSERT_FALSE(at_jobs_1.empty());
  EXPECT_EQ(at_jobs_1, sweep_groups(4));
  EXPECT_EQ(at_jobs_1, sweep_groups(3));
}

TEST(SweepAggregator, HundredRunSweepMatchesRecomputationFromRunReport) {
  // The `obs_report sweep` path: aggregate a 100-run sweep directly, then
  // push the same records through RunReport JSON serialization (what
  // --report-out emits) and aggregate the parsed machine_runs — the two
  // must agree value for value.
  RunRecordStore store;
  ScopedRunRecords scope(store);
  sim::run_sweep(100, 4, [](std::size_t i) { return run_small_machine(i); });
  ASSERT_EQ(store.records().size(), 100u);
  const std::vector<SweepGroup> direct =
      aggregate_records(store.records()).groups();

  RunReport report("aggregate_test");
  report.set_machine_runs(store.records());
  std::ostringstream os;
  const CounterRegistry empty_registry;
  report.write_json(os, empty_registry);
  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const std::optional<std::vector<RunRecord>> parsed =
      machine_runs_from_json(*doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 100u);
  EXPECT_EQ(aggregate_records(*parsed).groups(), direct);
}

}  // namespace
}  // namespace tc3i::obs
