// Sampled machine timelines: fixed simulated-cycle-period series of
// utilization / ready streams / bus occupancy, independent of host timing
// and of --jobs.
//
// Both machine models sample onto a fixed grid of `sample_period_cycles`
// simulated cycles (the SMP fluid model converts its piecewise-constant
// activity record through clock_hz), so a timeline is a pure function of
// the simulated run. sim::run_sweep gives each sweep point its own
// TimelineStore and merges them in submission order, which makes the
// exported CSV byte-identical at --jobs 1 and --jobs N.
//
// Each run's MachineTimeline is its model's one sampled series:
// --timeline-out writes it, the mta_timeline / smp_timeline charts plot
// it, and the MTA model also writes each point as a trace counter.
//
// CSV format (one header line, then one row per sample):
//   run,model,name,series,cycle,value
// `run` is the submission-order index of the machine run, `cycle` is the
// *end* cycle of the sample window (strictly increasing within a
// run+series), `value` is the window average of the series.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace tc3i::obs {

/// --sample-period's default, and the grid a traced MTA run samples its
/// trace counters on when no TimelineStore is installed.
inline constexpr std::uint64_t kDefaultSamplePeriodCycles = 4096;

struct TimelinePoint {
  std::uint64_t cycle = 0;  ///< end of the sample window
  double value = 0.0;       ///< window average
};

struct TimelineSeries {
  std::string name;  ///< e.g. "issue_utilization", "bus_occupancy"
  std::vector<TimelinePoint> points;
};

/// All sampled series of one machine run.
struct MachineTimeline {
  std::string model;  ///< "mta" or "smp"
  std::string name;   ///< machine config name
  std::uint64_t sample_period_cycles = 0;
  std::vector<TimelineSeries> series;

  /// The series called `name` (contract failure when the model has none).
  [[nodiscard]] const TimelineSeries& find(const std::string& name) const;
};

/// Append-only, thread-safe collection of per-run timelines in add() order.
class TimelineStore {
 public:
  explicit TimelineStore(std::uint64_t sample_period_cycles);
  TimelineStore(const TimelineStore&) = delete;
  TimelineStore& operator=(const TimelineStore&) = delete;

  [[nodiscard]] std::uint64_t sample_period_cycles() const { return period_; }

  void add(MachineTimeline timeline);

  /// Appends every timeline of `other` (in its add() order) to this store.
  void merge_from(const TimelineStore& other);

  [[nodiscard]] std::vector<MachineTimeline> timelines() const;
  [[nodiscard]] std::size_t size() const;

  /// Writes the CSV described above; run indices are positions in add()
  /// order.
  void write_csv(std::ostream& out) const;

  /// write_csv to `path`, creating parent directories. Returns false with
  /// `*error` set on I/O failure.
  [[nodiscard]] bool write_csv_file(const std::string& path,
                                    std::string* error) const;

 private:
  std::uint64_t period_;
  mutable std::mutex mu_;
  std::vector<MachineTimeline> timelines_;
};

/// Validates text as the timeline CSV write_csv produces: the exact
/// header, six columns per row, numeric run/cycle/value fields, a strictly
/// increasing cycle grid within each run+series, and non-negative values
/// (every series is an occupancy/utilization/count average). Returns an
/// empty string when the text passes, else the first problem prefixed with
/// its 1-based line number. Shared by tools/json_check (*.csv arguments)
/// and the timeline tests.
[[nodiscard]] std::string validate_timeline_csv(const std::string& text);

/// The store machine models sample into: the calling thread's override when
/// a ScopedTimeline is active, otherwise the process-wide store installed
/// by RunSession (null when no --timeline-out was given — machines skip
/// sampling then, except a traced MTA run, which samples for its counters).
[[nodiscard]] TimelineStore* active_timeline();

/// The process-wide store, ignoring any thread-local override.
[[nodiscard]] TimelineStore* process_timeline();
void set_process_timeline(TimelineStore* store);

/// Redirects active_timeline() on the current thread for this object's
/// lifetime (nests; restores the previous override on destruction).
class ScopedTimeline {
 public:
  explicit ScopedTimeline(TimelineStore& store);
  ScopedTimeline(const ScopedTimeline&) = delete;
  ScopedTimeline& operator=(const ScopedTimeline&) = delete;
  ~ScopedTimeline();

 private:
  TimelineStore* prev_;
};

}  // namespace tc3i::obs
