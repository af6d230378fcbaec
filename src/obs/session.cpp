#include "obs/session.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/contracts.hpp"

namespace tc3i::obs {

namespace {

RunSession* g_active = nullptr;

bool g_sweep_progress = false;

}  // namespace

bool sweep_progress_requested() { return g_sweep_progress; }

void set_sweep_progress_requested(bool requested) {
  g_sweep_progress = requested;
}

void RunSession::add_cli_flags(CliParser& cli) {
  cli.add_flag("trace-out", "",
               "write a Chrome trace_event JSON of simulator events to this "
               "path");
  cli.add_flag("report-out", "",
               "write a machine-readable RunReport JSON (rows, config, "
               "counters) to this path");
  cli.add_flag("timeline-out", "",
               "write sampled per-run utilization timelines "
               "(run,model,name,series,cycle,value) as CSV to this path");
  cli.add_flag("sample-period", std::to_string(kDefaultSamplePeriodCycles),
               "simulated cycles per timeline sample for --timeline-out, "
               "and with it for the MTA trace counters (a trace alone "
               "samples at the default)");
  cli.add_flag("counters", "false",
               "dump the instrumentation counter registry to stdout at exit "
               "(bare --counters or --counters true)");
  cli.add_flag("jobs", "0",
               "host threads for independent simulation points "
               "(0 = hardware concurrency; incompatible with --trace-out)");
  cli.add_flag("progress", "false",
               "stderr progress ticker for simulation sweeps (runs "
               "completed / total + ETA; auto-disabled when stderr is not "
               "a TTY)");
  cli.add_flag("sweep-trace-out", "",
               "write a Chrome trace of the sweep scheduler (one lane per "
               "--jobs worker, queue-wait vs execute spans per point)");
}

RunSession::RunSession(std::string name, const CliParser& cli)
    : name_(std::move(name)),
      trace_path_(cli.get("trace-out")),
      report_path_(cli.get("report-out")),
      timeline_path_(cli.get("timeline-out")),
      sweep_trace_path_(cli.get("sweep-trace-out")),
      dump_counters_(cli.get_bool("counters")),
      host_begin_(sample_host_usage()),
      report_(name_) {
  TC3I_EXPECTS(g_active == nullptr && "only one RunSession may be active");
  // A bare `--trace-out` / `--report-out` parses as the boolean sentinel
  // "true" (CliParser bare-flag rule); these flags need real paths.
  if (trace_path_ == "true" || report_path_ == "true" ||
      timeline_path_ == "true" || sweep_trace_path_ == "true") {
    std::fprintf(stderr,
                 "error: --trace-out, --report-out, --timeline-out and "
                 "--sweep-trace-out require a file path\n");
    std::exit(2);
  }
  const std::int64_t sample_period = cli.get_int("sample-period");
  if (sample_period < 1) {
    std::fprintf(stderr, "error: --sample-period must be >= 1 (got %lld)\n",
                 static_cast<long long>(sample_period));
    std::exit(2);
  }
  const std::int64_t jobs_flag = cli.get_int("jobs");
  if (jobs_flag < 0) {
    std::fprintf(stderr, "error: --jobs must be >= 0 (got %lld)\n",
                 static_cast<long long>(jobs_flag));
    std::exit(2);
  }
  if (!trace_path_.empty() && cli.is_set("jobs") && jobs_flag > 1) {
    // Trace events from concurrently running machines would interleave
    // nondeterministically; refuse rather than write a useless trace.
    std::fprintf(stderr,
                 "error: --trace-out requires --jobs 1 (tracing needs a "
                 "single deterministic event stream)\n");
    std::exit(2);
  }
  if (!trace_path_.empty()) {
    jobs_ = 1;
  } else if (jobs_flag == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    jobs_ = hc == 0 ? 1 : static_cast<int>(hc);
  } else {
    jobs_ = static_cast<int>(jobs_flag);
  }
  if (!trace_path_.empty()) {
    sink_ = std::make_unique<TraceSink>();
    set_global_sink(sink_.get());
  }
  records_ = std::make_unique<RunRecordStore>();
  set_process_run_records(records_.get());
  const bool progress = cli.get_bool("progress");
  set_sweep_progress_requested(progress);
  if (!timeline_path_.empty()) {
    timeline_ = std::make_unique<TimelineStore>(
        static_cast<std::uint64_t>(sample_period));
    set_process_timeline(timeline_.get());
  }
  // The live bus is the one host-side record: the --progress ticker,
  // --sweep-trace-out and the RunReport's host section all read it.
  if (progress || !sweep_trace_path_.empty()) {
    live_ = std::make_unique<LiveBus>();
    set_live_bus(live_.get());
  }
  g_active = this;
}

RunSession::~RunSession() {
  finish();
  if (g_active == this) g_active = nullptr;
  if (sink_ != nullptr && global_sink() == sink_.get())
    set_global_sink(nullptr);
  if (process_run_records() == records_.get()) set_process_run_records(nullptr);
  if (timeline_ != nullptr && process_timeline() == timeline_.get())
    set_process_timeline(nullptr);
  if (live_ != nullptr && live_bus() == live_.get()) set_live_bus(nullptr);
  set_sweep_progress_requested(false);
}

RunSession* RunSession::active() { return g_active; }

void RunSession::finish() {
  if (finished_) return;
  finished_ = true;

  if (sink_ != nullptr && !trace_path_.empty()) {
    std::string error;
    if (sink_->write_chrome_json_file(trace_path_, &error)) {
      std::printf("[obs] trace: %s (%zu events; open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  trace_path_.c_str(), sink_->size());
    } else {
      std::fprintf(stderr, "[obs] trace write failed: %s\n", error.c_str());
    }
  }

  if (timeline_ != nullptr && !timeline_path_.empty()) {
    std::string error;
    if (timeline_->write_csv_file(timeline_path_, &error)) {
      std::printf("[obs] timeline: %s (%zu runs, period %llu cycles)\n",
                  timeline_path_.c_str(), timeline_->size(),
                  static_cast<unsigned long long>(
                      timeline_->sample_period_cycles()));
    } else {
      std::fprintf(stderr, "[obs] timeline write failed: %s\n", error.c_str());
    }
  }

  if (!sweep_trace_path_.empty()) {
    std::string error;
    if (live_->write_chrome_trace_file(sweep_trace_path_, &error)) {
      std::printf("[obs] sweep trace: %s (%llu point spans; open in "
                  "chrome://tracing or ui.perfetto.dev)\n",
                  sweep_trace_path_.c_str(),
                  static_cast<unsigned long long>(live_->summary().points));
    } else {
      std::fprintf(stderr, "[obs] sweep trace write failed: %s\n",
                   error.c_str());
    }
  }

  if (!report_path_.empty()) {
    report_.set_machine_runs(records_->records());
    if (live_ != nullptr)
      report_.set_host(host_usage_delta(host_begin_, sample_host_usage()),
                       live_->summary());
    std::string error;
    if (report_.write_json_file(report_path_, default_registry(), &error)) {
      std::printf("[obs] report: %s\n", report_path_.c_str());
    } else {
      std::fprintf(stderr, "[obs] report write failed: %s\n", error.c_str());
    }
  }

  if (dump_counters_) {
    std::printf("[obs] counters (%s):\n", name_.c_str());
    for (const MetricSnapshot& m : default_registry().snapshot()) {
      switch (m.kind) {
        case MetricSnapshot::Kind::Counter:
          std::printf("  %-44s %llu\n", m.name.c_str(),
                      static_cast<unsigned long long>(m.count));
          break;
        case MetricSnapshot::Kind::Gauge:
          std::printf("  %-44s %g\n", m.name.c_str(), m.value);
          break;
        case MetricSnapshot::Kind::Histogram:
          std::printf("  %-44s n=%llu sum=%g p50=%g p99=%g max=%g\n",
                      m.name.c_str(), static_cast<unsigned long long>(m.count),
                      m.value, m.p50, m.p99, m.max);
          break;
      }
    }
  }
}

}  // namespace tc3i::obs
