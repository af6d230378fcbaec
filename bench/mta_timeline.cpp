// Issue-slot utilization over time on the (simulated) MTA — the picture
// behind the paper's aggregate numbers. The chunked Threat Analysis
// reaches a flat ~100% plateau and decays as chunks finish unevenly; the
// fine-grained Terrain Masking shows the per-ring barrier valleys that
// keep its average utilization well below 1 (Table 11's story).
#include <iostream>
#include <optional>

#include "core/chart.hpp"
#include "harness.hpp"
#include "obs/timeline.hpp"

using namespace tc3i;

namespace {

/// Plots the issue utilization of the run that sampled last.
void plot(const std::string& title) {
  const obs::MachineTimeline tl = obs::active_timeline()->timelines().back();
  const std::vector<obs::TimelinePoint>& util =
      tl.find("issue_utilization").points;
  ChartSeries series{"utilization", '#', {}, {}};
  // Downsample the timeline to <= 120 points for the terminal.
  const std::size_t n = util.size();
  const std::size_t stride = std::max<std::size_t>(1, n / 120);
  for (std::size_t i = 0; i < n; i += stride) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t j = i; j < std::min(i + stride, n); ++j, ++count)
      sum += util[j].value;
    series.x.push_back(static_cast<double>(i * tl.sample_period_cycles) / 1e6);
    series.y.push_back(count > 0 ? sum / static_cast<double>(count) : 0.0);
  }
  AsciiChart chart(title, "Mcycles", "issue-slot utilization", 100, 16);
  chart.add_series(std::move(series));
  chart.render(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  tc3i::bench::Session session("mta_timeline", argc, argv);
  const auto& tb = bench::testbed();
  // The runs sample into the session's store under --timeline-out, so the
  // CSV keeps their rows; otherwise into a local 10,000-cycle store.
  obs::TimelineStore local(10'000);
  std::optional<obs::ScopedTimeline> scope;
  if (obs::active_timeline() == nullptr) scope.emplace(local);

  {
    mta::Machine machine(platforms::make_mta_config(1));
    mta::ProgramPool pool;
    c3i::threat::build_mta_chunked(pool, machine, tb.threat_profile_scaled,
                                   256, tb.threat_costs_scaled);
    (void)machine.run();
    plot("Threat Analysis, 256 chunks, 1 processor");
  }
  {
    mta::Machine machine(platforms::make_mta_config(1));
    mta::ProgramPool pool;
    c3i::terrain::build_mta_finegrained(pool, machine,
                                        tb.terrain_profile_scaled,
                                        tb.terrain_costs_scaled);
    (void)machine.run();
    plot("Terrain Masking, fine-grained, 1 processor");
  }
  {
    mta::Machine machine(platforms::make_mta_config(1));
    mta::ProgramPool pool;
    c3i::threat::build_mta_chunked(pool, machine, tb.threat_profile_scaled, 8,
                                   tb.threat_costs_scaled);
    (void)machine.run();
    plot("Threat Analysis, only 8 chunks (starved), 1 processor");
  }
  std::cout << "Reading: 256 chunks saturate the processor until the tail; "
               "the fine-grained terrain\nschedule oscillates with ring "
               "barriers; 8 chunks never get above ~8/21 of the\nissue "
               "slots — the three regimes behind Tables 5, 11 and 6.\n";
  return 0;
}
