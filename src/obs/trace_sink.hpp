// Typed simulator event recording with Chrome trace_event export.
//
// A TraceSink collects events emitted by the machine models — stream
// spawn/block/unblock, the MTA's sampled issue/ready/network series, SMP
// bus and thread activity, lock acquire/contend/release, scheduler
// activity — and exports them as Chrome trace JSON (load in
// chrome://tracing or https://ui.perfetto.dev).
//
// Timestamps are simulated microseconds (each machine converts its own
// clock domain); every machine registers a named track so multi-machine
// runs (e.g. a bench that simulates both platforms) stay separable.
//
// Tracing is opt-in: the machine models check obs::global_sink() once at
// construction and emit nothing when it is null.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tc3i::obs {

/// Event categories, rendered as the Chrome "cat" field.
enum class Category : std::uint8_t { Issue, Memory, Sync, Spawn, Sched, Phase };

[[nodiscard]] const char* category_name(Category cat);

struct TraceEvent {
  double ts_us = 0.0;    ///< simulated microseconds
  double dur_us = 0.0;   ///< complete ('X') events only
  double value = 0.0;    ///< counter ('C') events only
  std::uint32_t pid = 0; ///< track id (one per machine instance)
  std::uint64_t tid = 0; ///< stream / worker id within the track
  Category cat = Category::Phase;
  char ph = 'i';         ///< Chrome phase: B, E, X, i, C
  std::string name;
};

class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Registers a named track (Chrome "process") and returns its id.
  [[nodiscard]] std::uint32_t register_track(const std::string& name);

  void instant(Category cat, std::string name, double ts_us, std::uint32_t pid,
               std::uint64_t tid);
  void begin(Category cat, std::string name, double ts_us, std::uint32_t pid,
             std::uint64_t tid);
  void end(Category cat, std::string name, double ts_us, std::uint32_t pid,
           std::uint64_t tid);
  void complete(Category cat, std::string name, double ts_us, double dur_us,
                std::uint32_t pid, std::uint64_t tid);
  void counter(Category cat, std::string name, double ts_us, std::uint32_t pid,
               double value);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  /// Chrome trace_event JSON (object format, sorted by timestamp).
  void write_chrome_json(std::ostream& out) const;

  /// write_chrome_json to `path`, creating parent directories. Returns
  /// false with `*error` set on I/O failure.
  [[nodiscard]] bool write_chrome_json_file(const std::string& path,
                                            std::string* error) const;

 private:
  void push(TraceEvent ev);

  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
};

/// The process-global sink consulted by machine constructors. Null (the
/// default) disables event emission entirely.
[[nodiscard]] TraceSink* global_sink();
void set_global_sink(TraceSink* sink);

}  // namespace tc3i::obs
