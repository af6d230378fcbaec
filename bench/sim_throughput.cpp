// Simulator-throughput benchmark: how many simulated cycles and issued
// instructions per host second the MTA simulation core sustains on fixed
// synthetic workloads (no testbed, no kernel profiling — the scenarios are
// deterministic and cheap to build, so this binary measures only the
// simulator).
//
// Four scenarios cover the regimes the fast path optimizes:
//   saturated    256 ready streams on 2 processors (the table 5/6 hot
//                loop: every cycle issues, wakes drain every cycle);
//   memory_bound 128 memory-heavy streams queueing on the shared network;
//   solo         one long compute/memory stream (the compute-run
//                fast-forward path);
//   spawn_churn  tree fork/join of 512 short workers (spawn arbitration
//                and slot virtualization).
// A fifth regime, obs_overhead, re-runs the saturated scenario with
// timeline sampling active so the committed baseline pins the cost of the
// per-cycle sampling hook. The sweep_plain / sweep_telemetry pair measures
// sim::run_sweep itself on a 100-point sweep of a cheap MTA machine —
// first bare (no bus, so no clock reads of run_sweep's own and nothing
// recorded), then with the full sweep-telemetry stack active (the live bus
// recording each point once, per-run records, and RunReport (machine
// runs, host section) + sweep-trace serialization). The two sweeps
// alternate for at least 1 s and at least `--reps` pairs, and each
// regime reports its median; scripts/check.sh gates the telemetry regime
// at >= 0.95x the plain one (< 5% overhead).
//
// Each other scenario repeats for at least `--reps` runs (default 3) and at
// least 0.25 s, so a scenario that runs in about a millisecond (solo) is
// not timed on whichever host phase three runs landed in; the median wall
// time produces two RunReport rows per scenario ("<name>.cycles_per_sec"
// and "<name>.instr_per_sec", stored in the "measured" field with
// paper = 1).
// With --report-out this becomes BENCH_sim_throughput.json; scripts/check.sh
// compares a fresh run against the committed bench/BENCH_sim_throughput.json
// via --baseline/--min-ratio (exit 1 when any metric falls below
// min-ratio x baseline).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "mta/stream_program.hpp"
#include "obs/hostres.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/report.hpp"
#include "obs/run_record.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "sim/sweep.hpp"

using namespace tc3i;

namespace {

struct Scenario {
  std::string name;
  mta::MtaConfig cfg;
  std::function<void(mta::Machine&, mta::ProgramPool&)> build;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  {
    Scenario s;
    s.name = "saturated";
    s.cfg.num_processors = 2;
    s.build = [](mta::Machine& m, mta::ProgramPool& pool) {
      for (int i = 0; i < 256; ++i) {
        mta::VectorProgram* p = pool.make_vector();
        for (int r = 0; r < 400; ++r) {
          p->compute(16);
          p->load(static_cast<mta::Address>(i * 512 + r));
          p->store(static_cast<mta::Address>(i * 512 + r + 256), 1);
        }
        m.add_stream(p);
      }
    };
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "memory_bound";
    s.cfg.num_processors = 2;
    s.build = [](mta::Machine& m, mta::ProgramPool& pool) {
      for (int i = 0; i < 128; ++i) {
        mta::VectorProgram* p = pool.make_vector();
        for (int r = 0; r < 600; ++r) {
          p->compute(2);
          p->load(static_cast<mta::Address>(i * 1024 + r));
        }
        m.add_stream(p);
      }
    };
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "solo";
    s.cfg.num_processors = 1;
    s.build = [](mta::Machine& m, mta::ProgramPool& pool) {
      // The fast-forward path retires compute runs analytically, so its
      // cost scales with program *entries*, not instructions — use many
      // entries to get a wall time large enough to compare across runs.
      mta::VectorProgram* p = pool.make_vector();
      for (int r = 0; r < 50000; ++r) {
        p->compute(400);
        p->load(static_cast<mta::Address>(r & 0xffff));
      }
      m.add_stream(p);
    };
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "spawn_churn";
    s.cfg.num_processors = 2;
    s.build = [](mta::Machine& m, mta::ProgramPool& pool) {
      // Four sequential fork/join rounds of 512 workers each: more than
      // 512 at once would leave every hardware slot held by a blocked
      // internal spawner and deadlock the machine (256 slots total).
      mta::VectorProgram* parent = pool.make_vector();
      for (int round = 0; round < 4; ++round) {
        std::vector<mta::VectorProgram*> workers;
        for (int i = 0; i < 512; ++i) {
          mta::VectorProgram* w = pool.make_vector();
          w->compute(20);
          w->store(static_cast<mta::Address>(4096 + round * 512 + i), 1);
          workers.push_back(w);
        }
        mta::emit_tree_fork_join(pool, *parent, workers,
                                 /*cell_base=*/16384 + round * 4096,
                                 /*fanout=*/4, /*software=*/false);
      }
      m.add_stream(parent);
    };
    out.push_back(std::move(s));
  }

  return out;
}

/// Every scenario repeats for at least this long (see measure).
constexpr double kMinScenarioSeconds = 0.25;

struct Measurement {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double median_seconds = 0.0;
};

/// Runs the scenario at least `min_reps` times and for at least
/// `min_seconds` of repetitions (set-up included), and reports the median
/// wall time of its runs.
Measurement measure(const Scenario& s, int min_reps, double min_seconds) {
  Measurement out;
  std::vector<double> times;
  const auto begin = std::chrono::steady_clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
                 .count() < min_seconds) {
    mta::Machine machine(s.cfg);
    mta::ProgramPool pool;
    s.build(machine, pool);
    const auto start = std::chrono::steady_clock::now();
    const mta::MtaRunResult r = machine.run();
    const auto stop = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(stop - start).count());
    out.cycles = r.cycles;
    out.instructions = r.instructions_issued;
  }
  std::sort(times.begin(), times.end());
  out.median_seconds = times[times.size() / 2];
  return out;
}

/// One cheap MTA point for the sweep regimes: a single compute/load stream
/// small enough that 100 points finish in well under a second, so the
/// run_sweep machinery (queueing, per-point stores, merge) is a visible
/// fraction of the total and telemetry overhead on top of it is
/// measurable rather than noise.
std::uint64_t sweep_point(std::size_t index) {
  mta::MtaConfig cfg;
  cfg.num_processors = 1;
  mta::Machine machine(cfg);
  mta::ProgramPool pool;
  mta::VectorProgram* p = pool.make_vector();
  for (int r = 0; r < 200; ++r) {
    p->compute(8);
    p->load(static_cast<mta::Address>((index * 64 + r) & 0xffff));
  }
  machine.add_stream(p);
  return machine.run().cycles;
}

/// Wall seconds of one `points`-point sweep at `jobs`, with the full
/// sweep-telemetry stack active when `telemetry` is set: a live bus
/// recording every point (what --progress and --sweep-trace-out install),
/// per-run records, and — after the sweep — what a session then writes:
/// the RunReport with its machine runs and host section and the sweep
/// Chrome trace (to in-memory sinks), i.e. everything those flags add to
/// a real sweep.
double time_sweep(int jobs, std::size_t points, bool telemetry) {
  obs::RunRecordStore records;
  obs::ScopedRunRecords rec_scope(records);
  obs::LiveBus bus;
  obs::set_live_bus(telemetry ? &bus : nullptr);
  const auto start = std::chrono::steady_clock::now();
  const obs::HostResUsage host_begin =
      telemetry ? obs::sample_host_usage() : obs::HostResUsage{};
  sim::run_sweep(points, jobs, [](std::size_t i) { return sweep_point(i); });
  if (telemetry) {
    obs::RunReport report("sim_throughput");
    report.set_machine_runs(records.records());
    report.set_host(
        obs::host_usage_delta(host_begin, obs::sample_host_usage()),
        bus.summary());
    std::ostringstream report_sink;
    report.write_json(report_sink, obs::default_registry());
    std::ostringstream trace_sink;
    bus.write_chrome_trace(trace_sink);
  }
  const auto stop = std::chrono::steady_clock::now();
  obs::set_live_bus(nullptr);
  return std::chrono::duration<double>(stop - start).count();
}

struct SweepPair {
  double plain = 0.0;      ///< median wall seconds, telemetry off
  double telemetry = 0.0;  ///< median wall seconds, telemetry on
  int pairs = 0;
};

/// Times plain and telemetry sweeps alternately in one loop, for at least
/// `min_pairs` pairs and at least `min_seconds`, so both regimes see the
/// same host phases; the side that goes first flips every pair.
SweepPair measure_sweep_pair(int min_pairs, double min_seconds, int jobs,
                             std::size_t points) {
  obs::LiveBus* prev_bus = obs::live_bus();
  // Untimed warm-up sweep: the first sweep of the process pays thread
  // startup and page-fault costs that would otherwise land on whichever
  // regime runs first.
  (void)time_sweep(jobs, points, /*telemetry=*/false);
  std::vector<double> plain;
  std::vector<double> telem;
  const auto begin = std::chrono::steady_clock::now();
  while (static_cast<int>(plain.size()) < min_pairs ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
                 .count() < min_seconds) {
    const bool telemetry_first = plain.size() % 2 == 1;
    for (const bool telemetry : {telemetry_first, !telemetry_first})
      (telemetry ? telem : plain)
          .push_back(time_sweep(jobs, points, telemetry));
  }
  obs::set_live_bus(prev_bus);
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  SweepPair out;
  out.pairs = static_cast<int>(plain.size());
  out.plain = median(plain);
  out.telemetry = median(telem);
  return out;
}

/// {label -> measured} from a RunReport JSON's "rows" array; empty when
/// the text does not parse or carries no rows.
std::vector<std::pair<std::string, double>> parse_baseline_rows(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> rows;
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(text, &error);
  const obs::JsonValue* array = doc ? doc->find_array("rows") : nullptr;
  if (array == nullptr) return rows;
  for (const obs::JsonValue& row : array->array)
    rows.emplace_back(row.string_or("label", ""),
                      row.number_or("measured", 0.0));
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "sim_throughput: simulated cycles and instructions per host second "
      "on fixed synthetic MTA scenarios");
  obs::RunSession::add_cli_flags(cli);
  cli.add_flag("reps", "3",
               "minimum repetitions per scenario (median wall time over at "
               "least 0.25 s of them)");
  cli.add_flag("baseline", "",
               "committed BENCH_sim_throughput.json to compare against");
  cli.add_flag("min-ratio", "0.7",
               "fail (exit 1) when any metric drops below this fraction of "
               "the baseline");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  obs::RunSession run("sim_throughput", cli);
  const int reps = static_cast<int>(cli.get_int("reps"));
  if (reps < 1) {
    std::fprintf(stderr, "error: --reps must be >= 1\n");
    return 2;
  }

  TextTable table("Simulator throughput (median of >= " +
                  std::to_string(reps) + " reps and >= " +
                  TextTable::num(kMinScenarioSeconds, 2) + " s)");
  table.header({"Scenario", "Sim cycles", "Instructions", "Wall (ms)",
                "Mcycles/s", "Minstr/s"});
  run.report().set_config("reps", static_cast<double>(reps));

  for (const Scenario& s : scenarios()) {
    const Measurement m = measure(s, reps, kMinScenarioSeconds);
    const double cps = static_cast<double>(m.cycles) / m.median_seconds;
    const double ips = static_cast<double>(m.instructions) / m.median_seconds;
    table.row({s.name, std::to_string(m.cycles),
               std::to_string(m.instructions),
               TextTable::num(m.median_seconds * 1e3, 2),
               TextTable::num(cps / 1e6, 1), TextTable::num(ips / 1e6, 1)});
    run.report().add_row(s.name + ".cycles_per_sec", 1.0, cps);
    run.report().add_row(s.name + ".instr_per_sec", 1.0, ips);
  }

  {
    // Observability-overhead regime: the saturated scenario re-measured
    // with timeline sampling active (a per-scanned-cycle hook plus bucket
    // flushes, the only observability cost that is off by default). Its
    // own baseline rows pin the overhead so it cannot silently grow; the
    // plain "saturated" rows above keep gating the sampling-off path.
    const Scenario sat = scenarios().front();
    Measurement m;
    {
      obs::TimelineStore store(obs::kDefaultSamplePeriodCycles);
      obs::ScopedTimeline scope(store);
      m = measure(sat, reps, kMinScenarioSeconds);
    }
    const double cps = static_cast<double>(m.cycles) / m.median_seconds;
    const double ips = static_cast<double>(m.instructions) / m.median_seconds;
    table.row({"obs_overhead", std::to_string(m.cycles),
               std::to_string(m.instructions),
               TextTable::num(m.median_seconds * 1e3, 2),
               TextTable::num(cps / 1e6, 1), TextTable::num(ips / 1e6, 1)});
    run.report().add_row("obs_overhead.cycles_per_sec", 1.0, cps);
    run.report().add_row("obs_overhead.instr_per_sec", 1.0, ips);
  }

  {
    // Sweep-telemetry regime pair: the same 100-point sweep measured bare
    // and with the full --report-out + --sweep-trace-out stack active,
    // alternately for at least 1 s (see measure_sweep_pair). The
    // points_per_sec ratio is the telemetry overhead; scripts/check.sh
    // gates it at >= 0.95.
    constexpr std::size_t kPoints = 100;
    const int sweep_jobs = run.jobs();
    run.report().set_config("sweep_jobs", static_cast<double>(sweep_jobs));
    const SweepPair sweeps =
        measure_sweep_pair(reps, /*min_seconds=*/1.0, sweep_jobs, kPoints);
    run.report().set_config("sweep_pairs", static_cast<double>(sweeps.pairs));
    const double plain = sweeps.plain;
    const double telem = sweeps.telemetry;
    table.row({"sweep_plain", "-", "-", TextTable::num(plain * 1e3, 2),
               "-", "-"});
    table.row({"sweep_telemetry", "-", "-", TextTable::num(telem * 1e3, 2),
               "-", "-"});
    run.report().add_row("sweep_plain.points_per_sec", 1.0,
                         static_cast<double>(kPoints) / plain);
    run.report().add_row("sweep_telemetry.points_per_sec", 1.0,
                         static_cast<double>(kPoints) / telem);
  }
  table.render(std::cout);

  const std::string baseline_path = cli.get("baseline");
  int exit_code = 0;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto baseline = parse_baseline_rows(buf.str());
    if (baseline.empty()) {
      std::fprintf(stderr, "error: baseline '%s' has no rows\n",
                   baseline_path.c_str());
      return 2;
    }
    const double min_ratio = cli.get_double("min-ratio");
    std::printf("\nBaseline check against %s (min ratio %.2f):\n",
                baseline_path.c_str(), min_ratio);
    // Serialize our own report and re-parse it so both sides of the
    // comparison go through the same row extraction.
    std::vector<std::pair<std::string, double>> current;
    {
      std::ostringstream os;
      run.report().write_json(os, obs::default_registry());
      current = parse_baseline_rows(os.str());
    }
    for (const auto& [label, value] : current) {
      const auto it =
          std::find_if(baseline.begin(), baseline.end(),
                       [&](const auto& b) { return b.first == label; });
      if (it == baseline.end()) {
        std::printf("  %-28s (no baseline row, skipped)\n", label.c_str());
        continue;
      }
      const double ratio = value / it->second;
      const bool ok = ratio >= min_ratio;
      std::printf("  %-28s %8.1f M/s vs %8.1f M/s  ratio %.2f  %s\n",
                  label.c_str(), value / 1e6, it->second / 1e6, ratio,
                  ok ? "ok" : "REGRESSION");
      if (!ok) exit_code = 1;
    }
    if (exit_code != 0)
      std::fprintf(stderr,
                   "FAIL: simulator throughput regressed more than %.0f%% "
                   "vs %s\n",
                   100.0 * (1.0 - min_ratio), baseline_path.c_str());
  }

  run.finish();
  return exit_code;
}
