// A driver in the spirit of the original C3IPBS harness: list the suite's
// problems, run any problem/variant across the five standard scenarios,
// and report the built-in correctness verdicts.
//
//   ./build/examples/c3ipbs_driver --list
//   ./build/examples/c3ipbs_driver --problem=terrain-masking
//   ./build/examples/c3ipbs_driver --problem=threat-analysis --variant=finegrained
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "c3i/suite.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"
#include "obs/session.hpp"

using namespace tc3i;

int main(int argc, char** argv) {
  CliParser cli("C3I Parallel Benchmark Suite driver (reproduction)");
  cli.add_flag("list", "false", "list problems and variants, then exit");
  cli.add_flag("problem", "all", "problem name, or 'all'");
  cli.add_flag("variant", "all", "variant name, or 'all'");
  cli.add_flag("threads", "4", "host threads for parallel variants");
  cli.add_flag("scale", "medium", "'small' or 'medium'");
  obs::RunSession::add_cli_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  // Usage errors exit 2 before any work, as RunSession's do: --threads 0
  // would trip the chunked variants' precondition mid-run, and an unknown
  // --scale would silently run at medium.
  const std::int64_t threads_flag = cli.get_int("threads");
  const std::string scale_name = cli.get("scale");
  constexpr int kMaxThreads = std::numeric_limits<int>::max();
  if (threads_flag < 1 || threads_flag > kMaxThreads) {
    std::cerr << "error: --threads must be between 1 and " << kMaxThreads
              << " (got " << threads_flag << ")\n";
    return 2;
  }
  if (scale_name != "small" && scale_name != "medium") {
    std::cerr << "error: --scale must be 'small' or 'medium' (got '"
              << scale_name << "')\n";
    return 2;
  }
  obs::RunSession obs_session("c3ipbs_driver", cli);

  const c3i::Scale scale =
      scale_name == "small" ? c3i::Scale::Small : c3i::Scale::Medium;
  const auto suite = c3i::make_suite(scale);

  if (cli.get_bool("list")) {
    for (const auto& problem : suite) {
      std::cout << problem->name() << "\n  " << problem->description()
                << "\n  variants:";
      for (const auto& v : problem->variants()) std::cout << ' ' << v;
      std::cout << "\n  scenarios: " << problem->num_scenarios() << "\n\n";
    }
    return 0;
  }

  const std::string want_problem = cli.get("problem");
  const std::string want_variant = cli.get("variant");
  const int threads = static_cast<int>(threads_flag);
  bool matched = false;
  bool all_ok = true;

  for (const auto& problem : suite) {
    if (want_problem != "all" && problem->name() != want_problem) continue;
    for (const auto& variant : problem->variants()) {
      if (want_variant != "all" && variant != want_variant) continue;
      matched = true;
      TextTable table(problem->name() + " / " + variant);
      table.header({"Scenario", "Work units", "Host time (s)", "Correct"});
      for (int s = 0; s < problem->num_scenarios(); ++s) {
        const c3i::VariantOutcome outcome = problem->run(variant, s, threads);
        all_ok = all_ok && outcome.correct;
        table.row({std::to_string(s + 1), std::to_string(outcome.work_units),
                   TextTable::num(outcome.host_seconds, 3),
                   outcome.correct ? "yes" : ("NO: " + outcome.detail)});
      }
      table.render(std::cout);
      std::cout << '\n';
    }
  }

  if (!matched) {
    std::cerr << "nothing matched --problem=" << want_problem
              << " --variant=" << want_variant << " (try --list)\n";
    return 1;
  }
  std::cout << (all_ok ? "All outputs verified against the sequential "
                         "reference and the semantic checker.\n"
                       : "FAILURES occurred — see tables above.\n");
  return all_ok ? 0 : 1;
}
