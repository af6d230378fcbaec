// Bus saturation over time on the conventional SMP models — the picture
// behind Tables 9/10: coarse Terrain Masking pins the shared bus while
// Threat Analysis barely touches it.
#include <iostream>
#include <optional>

#include "core/chart.hpp"
#include "harness.hpp"
#include "obs/timeline.hpp"

using namespace tc3i;

namespace {

/// Plots the bus and thread activity of the run that sampled last.
void plot(const std::string& title, const smp::RunResult& result,
          double clock_hz) {
  const obs::MachineTimeline tl = obs::active_timeline()->timelines().back();
  const std::vector<obs::TimelinePoint>& bus_occ =
      tl.find("bus_occupancy").points;
  const std::vector<obs::TimelinePoint>& running =
      tl.find("running_threads").points;
  ChartSeries bus{"bus usage", '#', {}, {}};
  ChartSeries threads{"running threads (scaled to 1)", '.', {}, {}};
  double max_threads = 1.0;
  for (const obs::TimelinePoint& p : running)
    max_threads = std::max(max_threads, p.value);
  // Point-sample ~110 uniform instants, each from the bucket holding it.
  const double total = result.elapsed;
  const auto period = static_cast<double>(tl.sample_period_cycles);
  for (int i = 0; i < 110; ++i) {
    const double t = total * i / 110.0;
    const std::size_t k = std::min(
        static_cast<std::size_t>(t * clock_hz / period), bus_occ.size() - 1);
    bus.x.push_back(t);
    bus.y.push_back(bus_occ[k].value);
    threads.x.push_back(t);
    threads.y.push_back(running[k].value / max_threads);
  }
  AsciiChart chart(title, "seconds", "fraction of capacity", 100, 14);
  chart.add_series(std::move(threads));
  chart.add_series(std::move(bus));
  chart.render(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  tc3i::bench::Session session("smp_timeline", argc, argv);
  const auto& tb = bench::testbed();
  // The runs sample into the session's store under --timeline-out, so the
  // CSV keeps their rows; otherwise into a local 10,000-cycle store.
  obs::TimelineStore local(10'000);
  std::optional<obs::ScopedTimeline> scope;
  if (obs::active_timeline() == nullptr) scope.emplace(local);

  {
    const smp::Machine machine(tb.exemplar);
    const auto result = machine.run_pool(c3i::terrain::build_coarse_pool(
        tb.terrain_profiles[0], 16, 10, tb.terrain_costs));
    plot("Coarse Terrain Masking on 16-proc Exemplar (scenario 1)", result,
         tb.exemplar.clock_hz);
    std::cout << "Mean bus utilization: "
              << TextTable::num(100.0 * result.bus_utilization, 1)
              << "% — the bus, not the processors, is the constraint.\n\n";
  }
  {
    const smp::Machine machine(tb.exemplar);
    const auto result = machine.run(c3i::threat::build_chunked_workload(
        tb.threat_profiles[0], 16, tb.threat_costs));
    plot("Chunked Threat Analysis on 16-proc Exemplar (scenario 1)", result,
         tb.exemplar.clock_hz);
    std::cout << "Mean bus utilization: "
              << TextTable::num(100.0 * result.bus_utilization, 1)
              << "% — compute-bound: the threads never contend.\n";
  }
  return 0;
}
