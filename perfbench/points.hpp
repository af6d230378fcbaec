// The benchmark's workloads: which experiment points each one runs, and
// the two ways to run a point. The untraced way calls the public
// platforms::*_seconds experiment function; the traced way makes the same
// calls as that function, one layer at a time, with a span around each.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/run_record.hpp"
#include "platforms/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

using tc3i::platforms::Testbed;

/// What one experiment point simulated.
struct PointResult {
  /// Simulated seconds: extrapolated 5-scenario total on the MTA, elapsed
  /// 5-scenario total on an SMP.
  double seconds = 0.0;
  std::uint64_t cycles = 0;        ///< MTA points only
  std::uint64_t instructions = 0;  ///< MTA instructions issued
  std::uint64_t smp_ops = 0;       ///< operations the SMP model executed
  tc3i::obs::IssueSlotAccount slots;  ///< MTA points, traced runs only
};

struct Point {
  std::string name;
  /// The paper's published seconds for this point; 0 when it has none.
  double paper_seconds = 0.0;
  std::function<PointResult(const Testbed&)> run;
  std::function<PointResult(const Testbed&, Tracer&, SpanId)> run_traced;
};

struct Workload {
  std::string name;
  int jobs = 1;             ///< sim::run_sweep worker count
  bool cold = false;        ///< every set-up starts from an empty cache
  std::vector<Point> points;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Empty when `name` is not a workload.
[[nodiscard]] std::optional<Workload> find_workload(const std::string& name);

}  // namespace perfbench
