// Terrain Masking end to end: generate a terrain, run all three program
// variants (sequential / coarse-grained locked / fine-grained ring
// parallel), verify they agree bit-for-bit, and render an ASCII relief
// map of the result.
//
// Run:   ./build/examples/terrain_masking_demo [--size N] [--threats N]
#include <cmath>
#include <cstdio>
#include <string>

#include "c3i/terrain/checker.hpp"
#include "c3i/terrain/coarse.hpp"
#include "c3i/terrain/finegrained.hpp"
#include "c3i/terrain/scenario_gen.hpp"
#include "c3i/terrain/sequential.hpp"
#include "core/cli.hpp"

using namespace tc3i;
namespace terrain = c3i::terrain;

namespace {

/// Renders a downsampled view: '#' for heavily masked cells (aircraft must
/// stay low), '.' for lightly constrained, ' ' for unconstrained.
void render(const terrain::Scenario& scenario, const terrain::Grid& masking) {
  const int cols = 64, rows = 28;
  std::printf("\nMasking map (darker = flight ceiling closer to the "
              "ground; 'T' = threat site):\n");
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int x = c * masking.x_size() / cols;
      const int y = r * masking.y_size() / rows;
      char glyph = ' ';
      const double m = masking.at(x, y);
      if (std::isfinite(m)) {
        const double headroom = m - scenario.terrain.at(x, y);
        glyph = headroom < 50.0 ? '#' : (headroom < 400.0 ? '+' : '.');
      }
      for (const auto& t : scenario.threats) {
        if (std::abs(t.x - x) * cols < masking.x_size() &&
            std::abs(t.y - y) * rows < masking.y_size())
          glyph = 'T';
      }
      std::putchar(glyph);
    }
    std::putchar('\n');
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Terrain Masking demo: all three program variants + checks");
  cli.add_flag("size", "192", "terrain side length in cells");
  cli.add_flag("threats", "20", "number of ground threats");
  cli.add_flag("threads", "4", "host threads for the parallel variants");
  cli.add_flag("seed", "1998", "scenario seed");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  terrain::ScenarioParams params;
  params.x_size = static_cast<int>(cli.get_int("size"));
  params.y_size = params.x_size;
  params.num_threats = static_cast<std::size_t>(cli.get_int("threats"));
  const auto scenario = terrain::generate_scenario(
      static_cast<std::uint64_t>(cli.get_int("seed")), params);
  const int threads = static_cast<int>(cli.get_int("threads"));

  std::printf("Terrain %dx%d, %zu threats\n", params.x_size, params.y_size,
              scenario.threats.size());

  const terrain::Grid seq = terrain::run_sequential(scenario);
  const auto semantic = terrain::validate_masking(scenario, seq);
  std::printf("Program 3 (sequential):      done, semantic check %s\n",
              semantic.ok ? "OK" : semantic.message.c_str());

  terrain::CoarseParams coarse;
  coarse.num_threads = threads;
  const terrain::Grid locked = terrain::run_coarse(scenario, coarse);
  const auto eq1 = terrain::check_equal(seq, locked);
  std::printf("Program 4 (coarse, %d threads, 10x10 block locks): %s\n",
              threads, eq1.ok ? "bit-identical to sequential" : eq1.message.c_str());

  const terrain::Grid fine = terrain::run_finegrained(scenario, threads);
  const auto eq2 = terrain::check_equal(seq, fine);
  std::printf("Fine-grained (ring-parallel, %d threads):          %s\n",
              threads, eq2.ok ? "bit-identical to sequential" : eq2.message.c_str());

  render(scenario, seq);
  return (semantic.ok && eq1.ok && eq2.ok) ? 0 : 1;
}
