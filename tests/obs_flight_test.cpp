// Tests for the black-box flight recorder (obs/flight): wait-free ring
// capture and wrap accounting, label interning, programmatic dumps, the
// watchdog trigger out of LiveBus::snapshot(), the SIGUSR1 on-demand
// dump, and the fatal-signal crash path (exercised in a forked child so
// the re-raised SIGABRT kills the child, not the test). The emit-storm
// test doubles as the ASan smoke target — see TC3I_SANITIZE=address in
// the top-level CMakeLists and scripts/check.sh.
//
// The recorder is process-global and append-only (rings are never
// cleared), so every counter assertion works on deltas, not absolutes.
#include "obs/flight.hpp"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/live.hpp"

namespace obs = tc3i::obs;
namespace flight = tc3i::obs::flight;

namespace {

std::filesystem::path temp_dump_path(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::string("tc3i_flight_") + name + "_" +
          std::to_string(::getpid()) + ".json");
}

obs::JsonValue parse_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = obs::json_parse(buf.str(), &error);
  EXPECT_TRUE(doc.has_value()) << path << ": " << error;
  return doc.value_or(obs::JsonValue{});
}

/// The ring entry owned by this process's current set of rings whose
/// events list contains at least one event of `kind`.
bool dump_has_event_kind(const obs::JsonValue& doc, const std::string& kind) {
  const obs::JsonValue* rings = doc.find_array("rings");
  if (rings == nullptr) return false;
  for (const obs::JsonValue& ring : rings->array) {
    const obs::JsonValue* events = ring.find_array("events");
    if (events == nullptr) continue;
    for (const obs::JsonValue& e : events->array)
      if (e.string_or("kind", "") == kind) return true;
  }
  return false;
}

TEST(FlightEmitTest, TotalsTallyPerKind) {
  const flight::Totals before = flight::totals();
  flight::emit(flight::EventKind::kPointBegin, 1, 0);
  flight::emit(flight::EventKind::kPointEnd, 1, 1000);
  flight::emit(flight::EventKind::kCacheHit);
  flight::emit(flight::EventKind::kCacheMiss);
  const flight::Totals after = flight::totals();
  EXPECT_GE(after.events - before.events, 4u);
  EXPECT_EQ(after.points_begun - before.points_begun, 1u);
  EXPECT_EQ(after.points_done - before.points_done, 1u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1u);
  EXPECT_EQ(after.cache_misses - before.cache_misses, 1u);
}

TEST(FlightEmitTest, DisabledRecorderIsANoOp) {
  const flight::Totals before = flight::totals();
  flight::set_enabled(false);
  EXPECT_FALSE(flight::enabled());
  for (int i = 0; i < 100; ++i) flight::emit(flight::EventKind::kMark);
  flight::set_enabled(true);
  EXPECT_TRUE(flight::enabled());
  const flight::Totals after = flight::totals();
  EXPECT_EQ(after.events, before.events);
}

TEST(FlightEmitTest, RingWrapAccountsDroppedEvents) {
  const flight::Totals before = flight::totals();
  const std::size_t n = flight::kRingCapacity + 100;
  for (std::size_t i = 0; i < n; ++i)
    flight::emit(flight::EventKind::kMark, i);
  const flight::Totals after = flight::totals();
  EXPECT_GE(after.events - before.events, n);
  // The calling thread's ring wrapped at least the 100 overflow events
  // (more when earlier tests already part-filled it).
  EXPECT_GE(after.dropped - before.dropped, 100u);
  EXPECT_LE(after.dropped, after.events);
}

TEST(FlightEmitTest, InternIsStableAndBounded) {
  const std::uint32_t id = flight::intern("flight-test-label");
  EXPECT_EQ(flight::intern("flight-test-label"), id);
  EXPECT_LT(id, flight::kMaxLabels);
  // Flood the table: every label past the cap lands in the last slot
  // instead of growing or failing.
  std::uint32_t last = 0;
  for (int i = 0; i < 2 * static_cast<int>(flight::kMaxLabels); ++i)
    last = flight::intern("flood-" + std::to_string(i));
  EXPECT_EQ(last, flight::kMaxLabels - 1);
  EXPECT_EQ(flight::intern("flight-test-label"), id);  // survivors keep ids
}

TEST(FlightEmitTest, ConcurrentEmitStormIsSafe) {
  // The ASan/TSan-smoke stress: eight threads hammer emit() while a
  // reader thread serializes dumps of the same rings.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  const flight::Totals before = flight::totals();
  std::atomic<bool> stop{false};
  std::thread reader([&stop]() {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream sink;
      flight::write_dump_json(sink, "stress", nullptr);
      std::string error;
      EXPECT_TRUE(obs::json_parse(sink.str(), &error).has_value()) << error;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([t]() {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        flight::emit(flight::EventKind::kMark, i,
                     static_cast<std::uint64_t>(t));
    });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  const flight::Totals after = flight::totals();
  EXPECT_GE(after.events - before.events, kThreads * kPerThread);
}

TEST(FlightDumpTest, ProgrammaticDumpWritesSchema) {
  const std::filesystem::path path = temp_dump_path("manual");
  flight::set_bench("flight_unit");
  flight::phase("dump-test-phase");
  flight::emit(flight::EventKind::kSweepBegin, 4, 2);
  std::string error;
  ASSERT_TRUE(flight::dump(path.string(), "unit", &error)) << error;
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));

  const obs::JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.string_or("kind", ""), "flight_dump");
  EXPECT_EQ(doc.number_or("schema_version", 0.0), 1.0);
  EXPECT_EQ(doc.string_or("reason", ""), "unit");
  EXPECT_EQ(doc.string_or("bench", ""), "flight_unit");
  EXPECT_EQ(doc.number_or("ring_capacity", 0.0),
            static_cast<double>(flight::kRingCapacity));
  const obs::JsonValue* trigger = doc.find_object("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->string_or("reason", ""), "unit");
  const obs::JsonValue* counters = doc.find_object("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->number_or("events", -1.0), 1.0);
  // The intern-flood test above fills the bounded label table, so the
  // phase label may have landed in the overflow slot — assert the table
  // serialized, not its exact contents.
  const obs::JsonValue* labels = doc.find_array("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_FALSE(labels->array.empty());
  const obs::JsonValue* rings = doc.find_array("rings");
  ASSERT_NE(rings, nullptr);
  ASSERT_FALSE(rings->array.empty());
  const obs::JsonValue* events = rings->array[0].find_array("events");
  ASSERT_NE(events, nullptr);
  EXPECT_LE(events->array.size(), flight::kRingCapacity);
  EXPECT_EQ(rings->array[0].number_or("events_total", -1.0),
            static_cast<double>(events->array.size()) +
                rings->array[0].number_or("dropped", 0.0));
  EXPECT_TRUE(dump_has_event_kind(doc, "sweep_begin"));
  EXPECT_TRUE(dump_has_event_kind(doc, "phase"));
  std::filesystem::remove(path);
}

TEST(FlightDumpTest, WatchdogAnomalyTriggersDumpOnce) {
  const std::filesystem::path path = temp_dump_path("watchdog");
  flight::reset_for_test();
  flight::set_dump_path(path.string());
  flight::set_bench("flight_watchdog");

  obs::WatchdogConfig wd;
  wd.heartbeat_timeout_seconds = 0.01;
  obs::LiveBus bus(wd);
  bus.set_bench("flight_watchdog");
  bus.add_points(2);
  bus.begin_point(1, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const obs::LiveStatus s = bus.snapshot();
  ASSERT_FALSE(s.anomalies.empty());
  ASSERT_TRUE(std::filesystem::exists(path)) << path;

  const obs::JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.string_or("kind", ""), "flight_dump");
  EXPECT_EQ(doc.string_or("reason", ""), "watchdog");
  const obs::JsonValue* trigger = doc.find_object("trigger");
  ASSERT_NE(trigger, nullptr);
  const obs::JsonValue* anomaly = trigger->find_object("anomaly");
  ASSERT_NE(anomaly, nullptr);
  EXPECT_EQ(anomaly->string_or("kind", ""), "stalled_worker");
  EXPECT_EQ(anomaly->number_or("worker", -1.0), 1.0);
  // The triggering status snapshot rides along, cross-linked.
  const obs::JsonValue* live = doc.find_object("live_status");
  ASSERT_NE(live, nullptr);
  const obs::JsonValue* anomalies = doc.find_array("anomalies");
  ASSERT_NE(anomalies, nullptr);
  EXPECT_EQ(anomalies->array.size(), s.anomalies.size());

  // The latch: a second first-anomaly cycle must not rewrite the dump.
  std::filesystem::remove(path);
  obs::WatchdogConfig wd2;
  wd2.heartbeat_timeout_seconds = 0.01;
  obs::LiveBus bus2(wd2);
  bus2.add_points(1);
  bus2.begin_point(0, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  (void)bus2.snapshot();
  EXPECT_FALSE(std::filesystem::exists(path));
  flight::reset_for_test();
}

TEST(FlightSignalTest, Sigusr1WritesOnDemandDump) {
  const std::filesystem::path path = temp_dump_path("usr1");
  flight::install_signal_handlers(path.string());
  flight::emit(flight::EventKind::kMark, 42);
  ASSERT_EQ(::raise(SIGUSR1), 0);  // handler runs before raise returns
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const obs::JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.string_or("kind", ""), "flight_dump");
  EXPECT_EQ(doc.string_or("reason", ""), "signal:SIGUSR1");
  const obs::JsonValue* trigger = doc.find_object("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->number_or("signal", -1.0),
            static_cast<double>(SIGUSR1));
  flight::uninstall_signal_handlers();
  // Clean uninstall: no crash happened, so no stray "<path>.crash".
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".crash"));
  std::filesystem::remove(path);
}

TEST(FlightSignalTest, FatalSignalWritesParseableCrashDump) {
  const std::filesystem::path path = temp_dump_path("crash");
  const std::filesystem::path crash(path.string() + ".crash");
  std::filesystem::remove(crash);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the crash path, leave some evidence, then die the way a
    // real bug would. The handler must dump through the pre-opened fd and
    // re-raise, so the exit status still says SIGABRT.
    flight::install_signal_handlers(path.string());
    flight::emit(flight::EventKind::kPointBegin, 7, 0);
    flight::emit(flight::EventKind::kMark, 1);
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  ASSERT_TRUE(std::filesystem::exists(crash)) << crash;
  const obs::JsonValue doc = parse_file(crash);
  EXPECT_EQ(doc.string_or("kind", ""), "flight_dump");
  EXPECT_EQ(doc.string_or("reason", ""), "signal:SIGABRT");
  const obs::JsonValue* trigger = doc.find_object("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->string_or("reason", ""), "signal");
  EXPECT_EQ(trigger->number_or("signal", -1.0),
            static_cast<double>(SIGABRT));
  EXPECT_EQ(trigger->string_or("name", ""), "SIGABRT");
  ASSERT_NE(trigger->find_array("backtrace"), nullptr);
  // The child's pre-abort evidence survived into the rings.
  EXPECT_TRUE(dump_has_event_kind(doc, "point_begin"));
  std::filesystem::remove(crash);
  std::filesystem::remove(path);
}

}  // namespace
