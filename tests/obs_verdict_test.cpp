// Bottleneck verdicts and report round-tripping: classify() must name each
// of the six limiting resources from hand-built accounts, explain() must
// surface the shares, aggregate() must fold multiple runs, and a RunReport
// serialized with machine_runs must parse back into the same records.
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bottleneck.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/run_record.hpp"

namespace {

using namespace tc3i::obs;

RunRecord mta_record(std::uint64_t used, std::uint64_t no_stream,
                     std::uint64_t spacing, std::uint64_t spawn,
                     std::uint64_t memory, std::uint64_t sync,
                     double network) {
  RunRecord r;
  r.model = "mta";
  r.name = "unit";
  r.processors = 1;
  r.slots = {used, no_stream, spacing, spawn, memory, sync};
  r.cycles = r.slots.total();
  r.utilization =
      static_cast<double>(used) / static_cast<double>(r.slots.total());
  r.network_utilization = network;
  return r;
}

RunRecord smp_record(double util, double bus, double lock_share) {
  RunRecord r;
  r.model = "smp";
  r.name = "unit";
  r.processors = 4;
  r.elapsed_seconds = 1.0;
  r.utilization = util;
  r.bus_utilization = bus;
  r.lock_wait_share = lock_share;
  return r;
}

TEST(Verdict, NamesAllSixCategories) {
  EXPECT_EQ(classify(mta_record(900, 0, 80, 0, 20, 0, 0.5)),
            Verdict::kIssueLimited);
  EXPECT_EQ(classify(mta_record(100, 100, 700, 50, 50, 0, 0.1)),
            Verdict::kParallelismLimited);
  EXPECT_EQ(classify(mta_record(300, 0, 200, 0, 100, 400, 0.2)),
            Verdict::kSyncLimited);
  EXPECT_EQ(classify(mta_record(300, 0, 100, 0, 600, 0, 0.95)),
            Verdict::kMemoryBankLimited);
  EXPECT_EQ(classify(smp_record(0.5, 0.95, 0.0)), Verdict::kBusLimited);
  EXPECT_EQ(classify(smp_record(0.4, 0.2, 0.5)), Verdict::kLockLimited);
  EXPECT_EQ(classify(smp_record(0.9, 0.2, 0.0)), Verdict::kIssueLimited);
  EXPECT_EQ(classify(smp_record(0.3, 0.2, 0.0)),
            Verdict::kParallelismLimited);
}

TEST(Verdict, MemoryWaitsWithColdNetworkAreParallelismNotBanks) {
  // Plenty of memory waits but the network has headroom: adding streams
  // would still help, so the verdict stays parallelism-limited.
  EXPECT_EQ(classify(mta_record(300, 0, 100, 0, 600, 0, 0.3)),
            Verdict::kParallelismLimited);
}

TEST(Verdict, NamesAreHyphenated) {
  EXPECT_STREQ(verdict_name(Verdict::kIssueLimited), "issue-limited");
  EXPECT_STREQ(verdict_name(Verdict::kParallelismLimited),
               "parallelism-limited");
  EXPECT_STREQ(verdict_name(Verdict::kSyncLimited), "sync-limited");
  EXPECT_STREQ(verdict_name(Verdict::kMemoryBankLimited),
               "memory-bank-limited");
  EXPECT_STREQ(verdict_name(Verdict::kBusLimited), "bus-limited");
  EXPECT_STREQ(verdict_name(Verdict::kLockLimited), "lock-limited");
}

TEST(Verdict, ExplainNamesTheShares) {
  const std::string text = explain(mta_record(500, 0, 300, 0, 150, 50, 0.4));
  EXPECT_NE(text.find("used 50.0%"), std::string::npos) << text;
  EXPECT_NE(text.find("network"), std::string::npos) << text;
  const std::string smp_text = explain(smp_record(0.5, 0.7, 0.1));
  EXPECT_NE(smp_text.find("bus"), std::string::npos) << smp_text;
}

TEST(Verdict, AggregateFoldsRunsOfOneModel) {
  std::vector<RunRecord> runs;
  runs.push_back(mta_record(900, 0, 100, 0, 0, 0, 0.5));
  runs.push_back(mta_record(100, 0, 900, 0, 0, 0, 0.1));
  runs.push_back(smp_record(0.5, 0.2, 0.0));
  RunRecord agg;
  ASSERT_EQ(aggregate(runs, "mta", &agg), 2u);
  EXPECT_EQ(agg.slots.used, 1000u);
  EXPECT_EQ(agg.cycles, 2000u);
  EXPECT_DOUBLE_EQ(agg.utilization, 0.5);
  RunRecord smp_agg;
  ASSERT_EQ(aggregate(runs, "smp", &smp_agg), 1u);
  EXPECT_DOUBLE_EQ(smp_agg.utilization, 0.5);
}

TEST(Verdict, MachineRunsRoundTripThroughReportJson) {
  RunRecord mta = mta_record(700, 10, 200, 20, 50, 20, 0.42);
  mta.name = "Tera MTA";
  mta.threads = 96;
  mta.memory_ops = 12345;
  RegionRollup region;
  region.name = "visibility";
  region.streams = 40;
  region.instructions = 4000;
  region.stream_cycles = 90000;
  mta.regions.push_back(region);
  RunRecord smp = smp_record(0.61, 0.33, 0.07);
  smp.name = "SPP-2000";
  smp.threads = 16;

  RunReport report("unit_bench");
  report.set_machine_runs({mta, smp});
  CounterRegistry reg;
  std::ostringstream os;
  report.write_json(os, reg);

  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const std::optional<std::vector<RunRecord>> parsed =
      machine_runs_from_json(*doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 2u);

  const RunRecord& m = (*parsed)[0];
  EXPECT_EQ(m.model, "mta");
  EXPECT_EQ(m.name, "Tera MTA");
  EXPECT_EQ(m.threads, 96u);
  EXPECT_EQ(m.memory_ops, 12345u);
  EXPECT_EQ(m.slots, mta.slots);
  EXPECT_EQ(m.cycles, mta.cycles);
  ASSERT_EQ(m.regions.size(), 1u);
  EXPECT_EQ(m.regions[0].name, "visibility");
  EXPECT_EQ(m.regions[0].streams, 40u);
  EXPECT_EQ(m.regions[0].instructions, 4000u);
  EXPECT_EQ(m.regions[0].stream_cycles, 90000u);
  EXPECT_EQ(classify(m), classify(mta));

  const RunRecord& s = (*parsed)[1];
  EXPECT_EQ(s.model, "smp");
  EXPECT_EQ(s.name, "SPP-2000");
  EXPECT_EQ(s.threads, 16u);
  EXPECT_DOUBLE_EQ(s.utilization, 0.61);
  EXPECT_DOUBLE_EQ(s.bus_utilization, 0.33);
  EXPECT_DOUBLE_EQ(s.lock_wait_share, 0.07);
  EXPECT_EQ(classify(s), classify(smp));
}

TEST(Verdict, JsonParserHandlesReportGrammar) {
  const std::string text =
      R"({"a":[1,2.5,-3e2],"b":{"c":"x\"y","d":true,"e":null},"f":[]})";
  std::string error;
  const auto doc = json_parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->find_array("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  const JsonValue* b = doc->find_object("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_or("c", ""), "x\"y");
  EXPECT_TRUE(b->find("d")->boolean);
  EXPECT_TRUE(b->find("e")->is_null());
  EXPECT_EQ(doc->number_or("missing", 7.0), 7.0);

  EXPECT_FALSE(json_parse("{", &error).has_value());
  EXPECT_FALSE(json_parse("[1,]", &error).has_value());
  EXPECT_FALSE(json_parse("01", &error).has_value());
}

}  // namespace
