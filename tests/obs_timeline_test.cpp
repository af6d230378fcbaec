// Sampled timelines: deterministic at any --jobs (byte-identical CSV),
// identical between the fast and slow-reference MTA paths, strictly
// monotone in cycle within each run+series, and physically sensible for
// both machine models.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mta/machine.hpp"
#include "mta/stream_program.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"
#include "platforms/platform.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"
#include "smp/config.hpp"
#include "smp/machine.hpp"
#include "smp/workload.hpp"

namespace {

using namespace tc3i;

void run_mta_point(std::size_t index, bool slow) {
  mta::MtaConfig cfg = platforms::make_mta_config(1);
  cfg.slow_reference = slow;
  mta::Machine machine(cfg);
  mta::ProgramPool pool;
  for (std::size_t s = 0; s < 4 + index; ++s) {
    mta::VectorProgram* p = pool.make_vector();
    p->compute(300 + 40 * index);
    p->load(static_cast<mta::Address>(64 * s), 4);
    p->compute(200);
    machine.add_stream(p);
  }
  (void)machine.run();
}

std::string sweep_csv(int jobs) {
  obs::TimelineStore store(512);
  obs::ScopedTimeline scope(store);
  (void)sim::run_sweep(4, jobs, [&](std::size_t i) {
    run_mta_point(i, /*slow=*/false);
    return 0;
  });
  std::ostringstream os;
  store.write_csv(os);
  return os.str();
}

TEST(Timeline, SweepCsvByteIdenticalAtAnyJobs) {
  const std::string serial = sweep_csv(1);
  const std::string parallel = sweep_csv(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Timeline, FastAndSlowMtaPathsSampleIdentically) {
  std::string csv[2];
  for (const bool slow : {false, true}) {
    obs::TimelineStore store(256);
    obs::ScopedTimeline scope(store);
    run_mta_point(2, slow);
    std::ostringstream os;
    store.write_csv(os);
    csv[slow ? 1 : 0] = os.str();
  }
  EXPECT_FALSE(csv[0].empty());
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(Timeline, MtaSeriesAreMonotoneAndBounded) {
  obs::TimelineStore store(512);
  {
    obs::ScopedTimeline scope(store);
    run_mta_point(3, /*slow=*/false);
  }
  const auto timelines = store.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  const obs::MachineTimeline& tl = timelines.front();
  EXPECT_EQ(tl.model, "mta");
  EXPECT_EQ(tl.sample_period_cycles, 512u);
  ASSERT_EQ(tl.series.size(), 3u);
  for (const obs::TimelineSeries& series : tl.series) {
    ASSERT_FALSE(series.points.empty()) << series.name;
    std::uint64_t prev = 0;
    for (const obs::TimelinePoint& pt : series.points) {
      EXPECT_GT(pt.cycle, prev) << series.name;
      prev = pt.cycle;
      EXPECT_GE(pt.value, 0.0) << series.name;
    }
    if (series.name == "issue_utilization") {
      for (const obs::TimelinePoint& pt : series.points)
        EXPECT_LE(pt.value, 1.0);
    }
  }
}

// The MTA trace's counter tracks are written from the sampled series: one
// 'C' event per point, at the point's cycle, with the point's value.
TEST(Timeline, TraceCountersAreTheSampledSeries) {
  obs::TraceSink sink;
  obs::TraceSink* const prev_sink = obs::global_sink();
  obs::set_global_sink(&sink);
  obs::TimelineStore store(512);
  {
    obs::ScopedTimeline scope(store);
    run_mta_point(3, /*slow=*/false);
  }
  obs::set_global_sink(prev_sink);
  const auto timelines = store.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  const double clock_hz = platforms::make_mta_config(1).clock_hz;
  for (const obs::TimelineSeries& series : timelines.front().series) {
    std::vector<const obs::TraceEvent*> counters;
    for (const obs::TraceEvent& ev : sink.events())
      if (ev.ph == 'C' && ev.name == series.name) counters.push_back(&ev);
    ASSERT_EQ(counters.size(), series.points.size()) << series.name;
    for (std::size_t i = 0; i < counters.size(); ++i) {
      const obs::TimelinePoint& pt = series.points[i];
      EXPECT_EQ(counters[i]->ts_us,
                static_cast<double>(pt.cycle) / clock_hz * 1e6)
          << series.name << " point " << i;
      EXPECT_EQ(counters[i]->value, pt.value)
          << series.name << " point " << i;
    }
  }
}

TEST(Timeline, MtaUtilizationIntegratesToIssuedInstructions) {
  obs::TimelineStore store(512);
  mta::MtaRunResult result;
  {
    obs::ScopedTimeline scope(store);
    mta::Machine machine(platforms::make_mta_config(1));
    mta::ProgramPool pool;
    for (int s = 0; s < 8; ++s) {
      mta::VectorProgram* p = pool.make_vector();
      p->compute(700);
      machine.add_stream(p);
    }
    result = machine.run();
  }
  const auto timelines = store.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  double issued = 0.0;
  std::uint64_t prev = 0;
  for (const obs::TimelineSeries& series : timelines.front().series) {
    if (series.name != "issue_utilization") continue;
    for (const obs::TimelinePoint& pt : series.points) {
      issued += pt.value * static_cast<double>(pt.cycle - prev);
      prev = pt.cycle;
    }
  }
  EXPECT_NEAR(issued, static_cast<double>(result.instructions_issued), 1e-6);
}

TEST(Timeline, SmpRunExportsResampledSeries) {
  smp::SmpConfig cfg;
  cfg.name = "smp_test";
  cfg.num_processors = 2;
  cfg.clock_hz = 1e6;
  cfg.compute_rate_ips = 1e6;
  cfg.mem_bw_single = 1e6;
  cfg.mem_bw_total = 2e6;

  sim::WorkloadTrace workload;
  workload.num_locks = 0;
  for (int t = 0; t < 4; ++t) {
    sim::ThreadTrace trace;
    trace.compute(200000, 100000);
    trace.compute(100000, 0);
    workload.threads.push_back(std::move(trace));
  }

  obs::TimelineStore store(4096);
  {
    obs::ScopedTimeline scope(store);
    smp::Machine machine(cfg);
    (void)machine.run(workload);
  }
  const auto timelines = store.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  const obs::MachineTimeline& tl = timelines.front();
  EXPECT_EQ(tl.model, "smp");
  EXPECT_EQ(tl.name, "smp_test");
  ASSERT_EQ(tl.series.size(), 3u);
  bool saw_bus = false;
  for (const obs::TimelineSeries& series : tl.series) {
    ASSERT_FALSE(series.points.empty()) << series.name;
    std::uint64_t prev = 0;
    for (const obs::TimelinePoint& pt : series.points) {
      EXPECT_GT(pt.cycle, prev) << series.name;
      prev = pt.cycle;
      EXPECT_GE(pt.value, 0.0) << series.name;
    }
    if (series.name == "bus_occupancy") {
      saw_bus = true;
      for (const obs::TimelinePoint& pt : series.points)
        EXPECT_LE(pt.value, 1.0 + 1e-9);
    }
  }
  EXPECT_TRUE(saw_bus);
}

TEST(Timeline, CsvHasHeaderAndStableShape) {
  obs::TimelineStore store(1024);
  {
    obs::ScopedTimeline scope(store);
    run_mta_point(0, /*slow=*/false);
  }
  std::ostringstream os;
  store.write_csv(os);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "run,model,name,series,cycle,value");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5) << line;
  }
  EXPECT_GT(rows, 0u);
}

TEST(Timeline, ValidatorAcceptsRealExports) {
  obs::TimelineStore store(512);
  {
    obs::ScopedTimeline scope(store);
    run_mta_point(0, /*slow=*/false);
    smp::SmpConfig cfg;
    cfg.name = "smp_test";
    cfg.num_processors = 2;
    cfg.clock_hz = 1e6;
    cfg.compute_rate_ips = 1e6;
    cfg.mem_bw_single = 1e6;
    cfg.mem_bw_total = 2e6;
    sim::WorkloadTrace workload;
    for (int t = 0; t < 3; ++t) {
      sim::ThreadTrace trace;
      trace.compute(100000, 50000);
      workload.threads.push_back(std::move(trace));
    }
    smp::Machine machine(cfg);
    (void)machine.run(workload);
  }
  std::ostringstream os;
  store.write_csv(os);
  EXPECT_EQ(obs::validate_timeline_csv(os.str()), "");
}

TEST(Timeline, ValidatorRejectsMalformedCsv) {
  const std::string header = "run,model,name,series,cycle,value\n";

  // Wrong or missing header.
  EXPECT_NE(obs::validate_timeline_csv(""), "");
  EXPECT_NE(obs::validate_timeline_csv("cycle,value\n0,1\n"), "");

  // Header alone is a valid (empty) timeline.
  EXPECT_EQ(obs::validate_timeline_csv(header), "");

  // Column count.
  EXPECT_NE(obs::validate_timeline_csv(header + "0,mta,m,s,512\n"), "");
  EXPECT_NE(obs::validate_timeline_csv(header + "0,mta,m,s,512,1,extra\n"),
            "");

  // Non-numeric run/cycle/value fields.
  EXPECT_NE(obs::validate_timeline_csv(header + "x,mta,m,s,512,1\n"), "");
  EXPECT_NE(obs::validate_timeline_csv(header + "0,mta,m,s,abc,1\n"), "");
  EXPECT_NE(obs::validate_timeline_csv(header + "0,mta,m,s,512,huh\n"), "");

  // Negative occupancy.
  EXPECT_NE(obs::validate_timeline_csv(header + "0,mta,m,s,512,-0.25\n"), "");

  // Non-monotone sample grid within one run+series...
  EXPECT_NE(obs::validate_timeline_csv(
                header + "0,mta,m,s,1024,1\n0,mta,m,s,512,1\n"),
            "");
  EXPECT_NE(obs::validate_timeline_csv(
                header + "0,mta,m,s,512,1\n0,mta,m,s,512,1\n"),
            "");
  // ...while the same cycle in another run or series is fine.
  EXPECT_EQ(obs::validate_timeline_csv(
                header + "0,mta,m,s,512,1\n0,mta,m,t,512,1\n1,mta,m,s,512,1\n"),
            "");
}

}  // namespace
