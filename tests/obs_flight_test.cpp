// Tests for the black-box flight recorder (obs/flight): capture only
// while armed, wait-free ring capture and wrap accounting, label
// interning, the live bus as the rings' writer, programmatic dumps, the
// watchdog trigger out of LiveBus::snapshot(), the SIGUSR1 on-demand
// dump, and the fatal-signal crash path (exercised in a forked child so
// the re-raised SIGABRT kills the child, not the test). The emit-storm
// test doubles as the ASan smoke target — see TC3I_SANITIZE=address in
// the top-level CMakeLists and scripts/check.sh.
//
// The recorder is process-global and append-only (rings are never
// cleared), so assertions look for the events a test wrote, or bound
// ring totals from below, rather than expecting exact contents.
#include "obs/flight.hpp"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
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

/// True when some ring of the dump holds an event of `kind` (with payload
/// `a`, unless `a` is negative: payloads are unsigned).
bool dump_has_event(const obs::JsonValue& doc, const std::string& kind,
                    double a = -1.0) {
  const obs::JsonValue* rings = doc.find_array("rings");
  if (rings == nullptr) return false;
  for (const obs::JsonValue& ring : rings->array) {
    const obs::JsonValue* events = ring.find_array("events");
    if (events == nullptr) continue;
    for (const obs::JsonValue& e : events->array)
      if (e.string_or("kind", "") == kind &&
          (a < 0.0 || e.number_or("a", -1.0) == a))
        return true;
  }
  return false;
}

/// Sum of `member` ("events_total" / "dropped") over the dump's rings.
double ring_sum(const obs::JsonValue& doc, const char* member) {
  double sum = 0.0;
  if (const obs::JsonValue* rings = doc.find_array("rings"))
    for (const obs::JsonValue& ring : rings->array)
      sum += ring.number_or(member, 0.0);
  return sum;
}

/// Dumps the armed recorder's rings to `path`, disarms, removes the file
/// and returns the parsed dump.
obs::JsonValue armed_dump(const std::filesystem::path& path) {
  std::string error;
  EXPECT_TRUE(flight::dump(path.string(), "unit", &error)) << error;
  flight::disarm();
  obs::JsonValue doc = parse_file(path);
  std::filesystem::remove(path);
  return doc;
}

TEST(FlightEmitTest, DisabledRecorderIsANoOp) {
  // Events emitted before arming are dropped, not buffered: no later dump
  // can show them.
  constexpr double kPayload = 987654321.0;
  for (int i = 0; i < 100; ++i)
    flight::emit(flight::EventKind::kPointBegin,
                 static_cast<std::uint64_t>(kPayload));
  const std::filesystem::path path = temp_dump_path("unarmed");
  flight::arm(path.string());
  const obs::JsonValue doc = armed_dump(path);
  EXPECT_FALSE(dump_has_event(doc, "point_begin", kPayload));
}

TEST(FlightEmitTest, RingWrapAccountsDroppedEvents) {
  const std::filesystem::path path = temp_dump_path("wrap");
  flight::arm(path.string());
  const std::size_t n = flight::kRingCapacity + 100;
  for (std::size_t i = 0; i < n; ++i)
    flight::emit(flight::EventKind::kPhase, i);
  const obs::JsonValue doc = armed_dump(path);
  EXPECT_GE(ring_sum(doc, "events_total"), static_cast<double>(n));
  // The calling thread's ring wrapped at least the 100 overflow events
  // (more when earlier tests already part-filled it).
  EXPECT_GE(ring_sum(doc, "dropped"), 100.0);
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
  const std::filesystem::path path = temp_dump_path("storm");
  flight::arm(path.string());
  std::atomic<bool> stop{false};
  std::thread reader([&stop, &path]() {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string error;
      ASSERT_TRUE(flight::dump(path.string(), "stress", &error)) << error;
      (void)parse_file(path);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([t]() {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        flight::emit(flight::EventKind::kPhase, i,
                     static_cast<std::uint64_t>(t));
    });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  // Finished writers hand their rings back, contents intact, so every
  // event is still counted in some ring's total.
  const obs::JsonValue doc = armed_dump(path);
  EXPECT_GE(ring_sum(doc, "events_total"),
            static_cast<double>(kThreads * kPerThread));
}

TEST(FlightDumpTest, LiveBusCallsFeedTheRings) {
  // The bus is the one host-side writer: each recording call appends its
  // event to the calling thread's ring.
  const std::filesystem::path path = temp_dump_path("bus");
  flight::arm(path.string());
  obs::LiveBus bus;
  bus.set_phase("bus-test-phase");
  const std::uint32_t sweep = bus.begin_sweep(1, 1, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  bus.end_point(0, 0.001);
  bus.record_cache(true);
  bus.record_cache(false);
  const obs::JsonValue doc = armed_dump(path);
  for (const char* kind : {"phase", "sweep_begin", "point_begin",
                           "point_end", "cache_hit", "cache_miss"})
    EXPECT_TRUE(dump_has_event(doc, kind)) << kind;
}

TEST(FlightDumpTest, ProgrammaticDumpWritesSchema) {
  const std::filesystem::path path = temp_dump_path("manual");
  flight::set_bench("flight_unit");
  flight::arm(path.string());
  flight::phase("dump-test-phase");
  flight::emit(flight::EventKind::kSweepBegin, 4, 2);
  std::string error;
  ASSERT_TRUE(flight::dump(path.string(), "unit", &error)) << error;
  flight::disarm();
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
  // Each ring's events_total is the only event tally a dump carries.
  EXPECT_EQ(doc.find("counters"), nullptr);
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
  EXPECT_TRUE(dump_has_event(doc, "sweep_begin"));
  EXPECT_TRUE(dump_has_event(doc, "phase"));
  std::filesystem::remove(path);
}

TEST(FlightDumpTest, WatchdogAnomalyTriggersDumpOnce) {
  const std::filesystem::path path = temp_dump_path("watchdog");
  flight::set_bench("flight_watchdog");
  flight::arm(path.string());

  obs::WatchdogConfig wd;
  wd.heartbeat_timeout_seconds = 0.01;
  obs::LiveBus bus(wd);
  bus.set_bench("flight_watchdog");
  const std::uint32_t sweep = bus.begin_sweep(2, 2, 0.0);
  bus.begin_point(1, sweep, 0, 0.0);
  const obs::LiveStatus s = bus.snapshot(0.015);
  ASSERT_FALSE(s.anomalies.empty());
  ASSERT_TRUE(std::filesystem::exists(path)) << path;

  const obs::JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.string_or("kind", ""), "flight_dump");
  EXPECT_EQ(doc.string_or("reason", ""), "watchdog");
  EXPECT_EQ(doc.string_or("bench", ""), "flight_watchdog");
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
  const std::uint32_t sweep2 = bus2.begin_sweep(1, 1, 0.0);
  bus2.begin_point(0, sweep2, 0, 0.0);
  (void)bus2.snapshot(0.015);
  EXPECT_FALSE(std::filesystem::exists(path));
  flight::disarm();
}

TEST(FlightSignalTest, Sigusr1WritesOnDemandDump) {
  const std::filesystem::path path = temp_dump_path("usr1");
  flight::set_bench("flight_usr1");
  flight::arm(path.string());
  flight::emit(flight::EventKind::kPhase, 42);
  ASSERT_EQ(::raise(SIGUSR1), 0);  // handler runs before raise returns
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const obs::JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.string_or("kind", ""), "flight_dump");
  EXPECT_EQ(doc.string_or("reason", ""), "signal:SIGUSR1");
  // Signal dumps carry the bench name from its fixed buffer too.
  EXPECT_EQ(doc.string_or("bench", ""), "flight_usr1");
  const obs::JsonValue* trigger = doc.find_object("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->number_or("signal", -1.0),
            static_cast<double>(SIGUSR1));
  flight::disarm();
  // Clean disarm: no crash happened, so no stray "<path>.crash".
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
    flight::set_bench("flight_crash");
    flight::arm(path.string());
    flight::emit(flight::EventKind::kPointBegin, 7, 0);
    flight::emit(flight::EventKind::kPhase, 1);
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
  EXPECT_EQ(doc.string_or("bench", ""), "flight_crash");
  const obs::JsonValue* trigger = doc.find_object("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->string_or("reason", ""), "signal");
  EXPECT_EQ(trigger->number_or("signal", -1.0),
            static_cast<double>(SIGABRT));
  EXPECT_EQ(trigger->string_or("name", ""), "SIGABRT");
  ASSERT_NE(trigger->find_array("backtrace"), nullptr);
  // The child's pre-abort evidence survived into the rings.
  EXPECT_TRUE(dump_has_event(doc, "point_begin"));
  std::filesystem::remove(crash);
  std::filesystem::remove(path);
}

}  // namespace
