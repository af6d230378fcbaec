// Dataset tool: generate, save, load, and verify benchmark input data —
// the "benchmark input data" component of the C3IPBS, as files you can
// pin and share.
//
//   ./build/examples/make_dataset --out /tmp/c3i --seed 1998
//   (writes threat + terrain scenario files, reloads them, and proves the
//    reloaded data produces identical results)
#include <iostream>
#include <string>

#include "c3i/io.hpp"
#include "c3i/terrain/checker.hpp"
#include "c3i/terrain/sequential.hpp"
#include "c3i/threat/checker.hpp"
#include "c3i/threat/sequential.hpp"
#include "core/cli.hpp"

using namespace tc3i;

int main(int argc, char** argv) {
  CliParser cli("Generate, save and verify C3IPBS benchmark datasets");
  cli.add_flag("out", "/tmp/c3ipbs", "output path prefix");
  cli.add_flag("seed", "1998", "generator seed");
  cli.add_flag("threats", "100", "threat count (Threat Analysis)");
  cli.add_flag("size", "160", "terrain side (Terrain Masking)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  const std::string prefix = cli.get("out");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::string error;

  // --- Threat Analysis dataset ---------------------------------------------
  {
    c3i::threat::ScenarioParams params;
    params.num_threats = static_cast<std::size_t>(cli.get_int("threats"));
    params.num_weapons = 10;
    params.dt = 1.0;
    c3i::threat::Scenario scenario =
        c3i::threat::generate_scenario(seed, params);
    scenario.name = "dataset seed " + std::to_string(seed);
    const std::string path = prefix + ".threat.txt";
    if (!c3i::io::save_to_file(path, scenario, error)) {
      std::cerr << "save failed: " << error << '\n';
      return 1;
    }
    c3i::threat::Scenario reloaded;
    if (!c3i::io::load_from_file(path, reloaded, error)) {
      std::cerr << "load failed: " << error << '\n';
      return 1;
    }
    const auto a = c3i::threat::run_sequential(scenario);
    const auto b = c3i::threat::run_sequential(reloaded);
    const auto check = c3i::threat::check_against_reference(
        a.intervals, b.intervals, /*order_sensitive=*/true);
    std::cout << "wrote " << path << " (" << scenario.threats.size()
              << " threats, " << scenario.weapons.size() << " weapons); "
              << "reload check: " << (check.ok ? "identical results" : check.message)
              << '\n';
    if (!check.ok) return 1;
  }

  // --- Terrain Masking dataset -----------------------------------------------
  {
    c3i::terrain::ScenarioParams params;
    params.x_size = params.y_size = static_cast<int>(cli.get_int("size"));
    params.num_threats = 16;
    c3i::terrain::Scenario scenario =
        c3i::terrain::generate_scenario(seed, params);
    scenario.name = "dataset seed " + std::to_string(seed);
    const std::string path = prefix + ".terrain.txt";
    if (!c3i::io::save_to_file(path, scenario, error)) {
      std::cerr << "save failed: " << error << '\n';
      return 1;
    }
    c3i::terrain::Scenario reloaded;
    if (!c3i::io::load_from_file(path, reloaded, error)) {
      std::cerr << "load failed: " << error << '\n';
      return 1;
    }
    const auto a = c3i::terrain::run_sequential(scenario);
    const auto b = c3i::terrain::run_sequential(reloaded);
    const auto check = c3i::terrain::check_equal(a, b);
    std::cout << "wrote " << path << " (" << params.x_size << "x"
              << params.y_size << ", " << scenario.threats.size()
              << " threats); reload check: "
              << (check.ok ? "bit-identical masking" : check.message) << '\n';
    if (!check.ok) return 1;
  }

  std::cout << "\nDatasets are plain text, versioned, and exact "
               "(max_digits10 round-trip).\n";
  return 0;
}
