// Renders a flight-recorder dump (--flight-out / SIGUSR1 / crash) as a
// merged global timeline.
//
//   flight_report <dump.json> [--window-ms <N>] [--all] [--point <idx>]
//
// The dump holds one ring of events per recorder thread; this tool merges
// them into a single time-ordered timeline and prints the last
// --window-ms milliseconds before the trigger (default 200; --all prints
// everything). Output is machine-greppable, in the style of
// bottleneck_report/sweep_monitor:
//
//   flight bench=<b> reason=<r> rings=<n> events=<n> dropped=<n> anomalies=<k>
//   trigger reason=watchdog kind=slow_point worker=2 point=7 ...
//   event t=+0.123456s ring=3 kind=point_begin point=7 worker=2 <-- anomaly
//
// Events whose point matches an anomaly's point are flagged with an
// "<-- anomaly <kind>" suffix so the incident is visible in the stream;
// --point filters the timeline to one sweep point's events. Exit codes:
// 0 rendered, 1 open/parse/schema errors, 2 usage errors.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using tc3i::obs::JsonValue;

struct Event {
  std::uint64_t t_ns = 0;
  std::uint32_t ring = 0;
  std::string kind;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

struct Anomaly {
  std::string kind;
  std::uint64_t worker = 0;
  std::uint64_t point = 0;
  bool has_point = false;
};

/// Events that carry a sweep point index in `a`.
bool kind_has_point(const std::string& kind) {
  return kind == "point_begin" || kind == "point_end";
}

int usage() {
  std::fprintf(stderr,
               "usage: flight_report <dump.json> [--window-ms <N>] [--all] "
               "[--point <idx>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  double window_ms = 200.0;
  bool all = false;
  long long only_point = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--window-ms" && i + 1 < argc) {
      window_ms = std::strtod(argv[++i], nullptr);
      if (!(window_ms > 0.0)) return usage();
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--point" && i + 1 < argc) {
      only_point = std::strtoll(argv[++i], nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path == nullptr) return usage();

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "flight_report: cannot open %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string error;
  const auto parsed = tc3i::obs::json_parse(text, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "flight_report: %s: %s\n", path, error.c_str());
    return 1;
  }
  const JsonValue& doc = *parsed;
  if (doc.string_or("kind", "") != "flight_dump") {
    std::fprintf(stderr, "flight_report: %s is not a flight_dump\n", path);
    return 1;
  }
  const JsonValue* rings = doc.find_array("rings");
  if (rings == nullptr) {
    std::fprintf(stderr, "flight_report: %s has no rings array\n", path);
    return 1;
  }

  // Labels resolve kPhase/kMark payloads back to strings.
  std::vector<std::string> labels;
  if (const JsonValue* l = doc.find_array("labels"); l != nullptr)
    for (const JsonValue& v : l->array)
      labels.push_back(v.is_string() ? v.string : "?");

  std::vector<Anomaly> anomalies;
  if (const JsonValue* arr = doc.find_array("anomalies"); arr != nullptr) {
    for (const JsonValue& v : arr->array) {
      Anomaly a;
      a.kind = v.string_or("kind", "?");
      a.worker = static_cast<std::uint64_t>(v.number_or("worker", 0));
      const JsonValue* p = v.find_number("point");
      a.has_point = p != nullptr;
      if (a.has_point) a.point = static_cast<std::uint64_t>(p->number);
      anomalies.push_back(a);
    }
  }

  // Merge the per-thread rings into one global timeline.
  std::vector<Event> timeline;
  std::uint64_t dropped = 0;
  for (const JsonValue& ring : rings->array) {
    const auto ring_id =
        static_cast<std::uint32_t>(ring.number_or("ring", 0));
    dropped += static_cast<std::uint64_t>(ring.number_or("dropped", 0));
    const JsonValue* events = ring.find_array("events");
    if (events == nullptr) continue;
    for (const JsonValue& e : events->array) {
      Event ev;
      ev.t_ns = static_cast<std::uint64_t>(e.number_or("t_ns", 0));
      ev.ring = ring_id;
      ev.kind = e.string_or("kind", "?");
      ev.a = static_cast<std::uint64_t>(e.number_or("a", 0));
      ev.b = static_cast<std::uint64_t>(e.number_or("b", 0));
      timeline.push_back(std::move(ev));
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Event& x, const Event& y) {
                     return x.t_ns < y.t_ns;
                   });

  const double at_seconds = doc.number_or("at_seconds", 0.0);
  std::printf("flight bench=%s reason=%s rings=%zu events=%zu dropped=%" PRIu64
              " anomalies=%zu at_s=%.3f\n",
              doc.string_or("bench", "").c_str(),
              doc.string_or("reason", "?").c_str(), rings->array.size(),
              timeline.size(), dropped, anomalies.size(), at_seconds);

  if (const JsonValue* trig = doc.find_object("trigger"); trig != nullptr) {
    std::string line = "trigger reason=" + trig->string_or("reason", "?");
    if (const JsonValue* a = trig->find_object("anomaly"); a != nullptr) {
      char num[64];
      line += " kind=" + a->string_or("kind", "?");
      line += " worker=" + std::to_string(static_cast<std::uint64_t>(
                               a->number_or("worker", 0)));
      if (const JsonValue* p = a->find_number("point"); p != nullptr)
        line +=
            " point=" + std::to_string(static_cast<std::uint64_t>(p->number));
      std::snprintf(num, sizeof(num), " observed_s=%.3f threshold_s=%.3f",
                    a->number_or("observed_seconds", 0.0),
                    a->number_or("threshold_seconds", 0.0));
      line += num;
    }
    if (const JsonValue* sig = trig->find_number("signal"); sig != nullptr) {
      line += " signal=" + std::to_string(static_cast<int>(sig->number)) +
              " name=" + trig->string_or("name", "?");
      if (const JsonValue* bt = trig->find_array("backtrace"); bt != nullptr)
        line += " frames=" + std::to_string(bt->array.size());
    }
    std::printf("%s\n", line.c_str());
  }

  // Render the window: everything within --window-ms of the newest event
  // (the trigger is always at the hot end of the rings).
  const std::uint64_t end_ns =
      timeline.empty() ? 0 : timeline.back().t_ns;
  const auto window_ns =
      static_cast<std::uint64_t>(window_ms * 1e6);
  const std::uint64_t start_ns =
      all || end_ns < window_ns ? 0 : end_ns - window_ns;
  std::size_t shown = 0;
  std::size_t skipped = 0;
  for (const Event& ev : timeline) {
    if (ev.t_ns < start_ns) {
      ++skipped;
      continue;
    }
    const bool has_point = kind_has_point(ev.kind);
    if (only_point >= 0 &&
        (!has_point || ev.a != static_cast<std::uint64_t>(only_point))) {
      continue;
    }
    std::string detail;
    if (has_point) {
      detail = " point=" + std::to_string(ev.a);
      if (ev.kind == "point_begin")
        detail += " worker=" + std::to_string(ev.b);
    } else if (ev.kind == "phase" || ev.kind == "mark") {
      detail = " label=" +
               (ev.a < labels.size() ? labels[ev.a] : std::to_string(ev.a));
    } else if (ev.kind == "sweep_begin") {
      detail = " points=" + std::to_string(ev.a) +
               " workers=" + std::to_string(ev.b);
    } else if (ev.kind == "sweep_end") {
      detail = " points=" + std::to_string(ev.a);
    } else if (ev.kind == "counter_tick") {
      detail = " delta=" + std::to_string(ev.a) +
               " total=" + std::to_string(ev.b);
    } else if (ev.kind == "worker_idle") {
      detail = " worker=" + std::to_string(ev.a);
    } else if (ev.kind == "thread_attach") {
      detail = " owner=" + std::to_string(ev.a);
    } else if (ev.kind == "anomaly") {
      detail = " ordinal=" + std::to_string(ev.a) +
               " worker=" + std::to_string(ev.b);
    }
    std::string flag;
    for (const Anomaly& a : anomalies) {
      if (a.has_point && has_point && ev.a == a.point) {
        flag = "  <-- anomaly " + a.kind;
        break;
      }
    }
    std::printf("event t=+%.6fs ring=%u kind=%s%s%s\n",
                static_cast<double>(ev.t_ns) / 1e9, ev.ring, ev.kind.c_str(),
                detail.c_str(), flag.c_str());
    ++shown;
  }
  if (skipped > 0)
    std::printf("window %zu event%s shown (last %.0f ms), %zu older "
                "skipped (use --all)\n",
                shown, shown == 1 ? "" : "s", window_ms, skipped);
  return 0;
}
