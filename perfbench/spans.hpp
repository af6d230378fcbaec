// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer, timed from the benchmark's own code:
// name, start, end and the span that caused it. Spans are appended under a
// mutex (sweep workers record concurrently) and analysed after the traced
// repetition ends, so the analysis never runs inside a timed region.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoParent = ~SpanId{0};

struct SpanRecord {
  std::string name;
  SpanId parent = kNoParent;
  double start_s = 0.0;  ///< seconds since the tracer's epoch
  double end_s = 0.0;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  SpanId begin(std::string name, SpanId parent);
  void end(SpanId id);

  /// The recorded spans; call only when no span is open on another thread.
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// Records one span for its lifetime.
class Span {
 public:
  Span(Tracer& tracer, std::string name, SpanId parent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { tracer_.end(id_); }

  [[nodiscard]] SpanId id() const { return id_; }

 private:
  Tracer& tracer_;
  SpanId id_;
};

/// Self time per span name, in seconds of wall time. A span's self time is
/// the part of its interval that none of its children cover; where several
/// children run at once (sweep workers), each instant is split evenly
/// between them, so the self times of a tree always sum to its root's
/// duration.
[[nodiscard]] std::map<std::string, double> self_times(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
