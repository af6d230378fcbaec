#include "obs/trace_sink.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"
#include "obs/write_file.hpp"

namespace tc3i::obs {

const char* category_name(Category cat) {
  switch (cat) {
    case Category::Issue: return "issue";
    case Category::Memory: return "memory";
    case Category::Sync: return "sync";
    case Category::Spawn: return "spawn";
    case Category::Sched: return "sched";
    case Category::Phase: return "phase";
  }
  return "unknown";
}

std::uint32_t TraceSink::register_track(const std::string& name) {
  tracks_.push_back(name);
  return static_cast<std::uint32_t>(tracks_.size());  // pid 0 is reserved
}

void TraceSink::push(TraceEvent ev) { events_.push_back(std::move(ev)); }

void TraceSink::instant(Category cat, std::string name, double ts_us,
                        std::uint32_t pid, std::uint64_t tid) {
  push(TraceEvent{ts_us, 0.0, 0.0, pid, tid, cat, 'i', std::move(name)});
}

void TraceSink::begin(Category cat, std::string name, double ts_us,
                      std::uint32_t pid, std::uint64_t tid) {
  push(TraceEvent{ts_us, 0.0, 0.0, pid, tid, cat, 'B', std::move(name)});
}

void TraceSink::end(Category cat, std::string name, double ts_us,
                    std::uint32_t pid, std::uint64_t tid) {
  push(TraceEvent{ts_us, 0.0, 0.0, pid, tid, cat, 'E', std::move(name)});
}

void TraceSink::complete(Category cat, std::string name, double ts_us,
                         double dur_us, std::uint32_t pid, std::uint64_t tid) {
  push(TraceEvent{ts_us, dur_us, 0.0, pid, tid, cat, 'X', std::move(name)});
}

void TraceSink::counter(Category cat, std::string name, double ts_us,
                        std::uint32_t pid, double value) {
  push(TraceEvent{ts_us, 0.0, value, pid, 0, cat, 'C', std::move(name)});
}

void TraceSink::write_chrome_json(std::ostream& out) const {
  // Stable sort by timestamp keeps B/E pairs ordered and makes the file
  // pleasant to scan; Chrome itself tolerates any order.
  std::vector<std::size_t> order(events_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events_[a].ts_us < events_[b].ts_us;
                   });

  JsonWriter w(out);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    w.begin_object();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", static_cast<std::uint64_t>(t + 1));
    w.field("tid", std::uint64_t{0});
    w.key("args");
    w.begin_object();
    w.field("name", tracks_[t]);
    w.end_object();
    w.end_object();
  }
  for (const std::size_t i : order) {
    const TraceEvent& ev = events_[i];
    w.begin_object();
    w.field("name", ev.name);
    w.field("cat", category_name(ev.cat));
    w.field("ph", std::string_view(&ev.ph, 1));
    w.field("ts", ev.ts_us);
    w.field("pid", static_cast<std::uint64_t>(ev.pid));
    w.field("tid", ev.tid);
    if (ev.ph == 'X') w.field("dur", ev.dur_us);
    if (ev.ph == 'i') w.field("s", "t");
    if (ev.ph == 'C') {
      w.key("args");
      w.begin_object();
      w.field("value", ev.value);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

bool TraceSink::write_chrome_json_file(const std::string& path,
                                       std::string* error) const {
  return write_file(
      path, [this](std::ostream& out) { write_chrome_json(out); }, error);
}

namespace {
TraceSink* g_sink = nullptr;
}  // namespace

TraceSink* global_sink() { return g_sink; }
void set_global_sink(TraceSink* sink) { g_sink = sink; }

}  // namespace tc3i::obs
