// Terminal/CI monitor for the live sweep status file (--status-out).
//
//   sweep_monitor <status.json> [--once]
//   sweep_monitor <status.json> --follow [--interval <ms>] [--timeout <s>]
//
// --once (the default) reads the file once and prints one machine-readable
// summary line
//   status bench=<b> phase=<p> version=<v> done=<0|1> points=<done>/<total>
//          pts_per_sec=<r> eta_s=<e> workers=<n> anomalies=<k>
// followed by one `anomaly kind=... worker=... ...` line per watchdog
// finding — grep-able by CI the way bottleneck_report's verdict lines are.
// --follow polls the file every --interval ms (default 500) and redraws a
// live view (per-worker state included) until the publisher writes a
// done=true snapshot; on a non-TTY stdout it degrades to printing one
// summary line per *new* snapshot version. --timeout (default 0 = none)
// bounds the wait for CI use.
//
// The publisher replaces the file atomically (write temp + rename), so a
// read sees either the previous or the next complete snapshot, never a
// torn one; a missing file simply means nothing is published yet and
// --follow keeps waiting.
//
// Exit codes: 0 healthy (done reached under --follow), 3 when the last
// snapshot read carries anomalies, 1 open/parse errors or --follow
// timeout, 2 usage errors.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace {

using tc3i::obs::JsonValue;

struct Status {
  std::string bench;
  std::string phase;
  std::uint64_t version = 0;
  bool done = false;
  double at_seconds = 0.0;
  double total = 0.0;
  double points_done = 0.0;
  double throughput = 0.0;
  double eta_seconds = 0.0;
  double max_rss_kb = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  struct Worker {
    double id = 0.0;
    std::string state;
    double point = -1.0;
    double points_done = 0.0;
    double heartbeat_age = 0.0;
    double point_age = 0.0;
  };
  std::vector<Worker> workers;
  struct Anomaly {
    std::string kind;
    double worker = 0.0;
    double point = -1.0;
    double observed = 0.0;
    double threshold = 0.0;
  };
  std::vector<Anomaly> anomalies;
};

/// Reads and parses the status file. Returns true on success; on failure
/// *error distinguishes "cannot open" (nothing published yet) from a
/// parse/shape problem.
bool read_status(const char* path, Status* out, std::string* error,
                 bool* missing) {
  *missing = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *missing = true;
    *error = std::string(path) + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = tc3i::obs::json_parse(buf.str(), error);
  if (!doc) return false;
  if (!doc->is_object() || doc->string_or("kind", "") != "live_status") {
    *error = std::string(path) + ": not a live_status file";
    return false;
  }
  Status s;
  s.bench = doc->string_or("bench", "");
  s.phase = doc->string_or("phase", "");
  s.version = static_cast<std::uint64_t>(doc->number_or("version", 0.0));
  if (const JsonValue* done = doc->find("done"); done != nullptr)
    s.done = done->is_bool() && done->boolean;
  s.at_seconds = doc->number_or("at_seconds", 0.0);
  if (const JsonValue* points = doc->find_object("points")) {
    s.total = points->number_or("total", 0.0);
    s.points_done = points->number_or("done", 0.0);
    s.throughput = points->number_or("throughput_per_sec", 0.0);
    s.eta_seconds = points->number_or("eta_seconds", 0.0);
  }
  if (const JsonValue* host = doc->find_object("host"))
    s.max_rss_kb = host->number_or("max_rss_kb", 0.0);
  if (const JsonValue* cache = doc->find_object("cache")) {
    s.cache_hits = cache->number_or("hits", 0.0);
    s.cache_misses = cache->number_or("misses", 0.0);
  }
  if (const JsonValue* workers = doc->find_array("workers"))
    for (const JsonValue& w : workers->array) {
      Status::Worker ws;
      ws.id = w.number_or("worker", 0.0);
      ws.state = w.string_or("state", "?");
      ws.point = w.number_or("point", -1.0);
      ws.points_done = w.number_or("points_done", 0.0);
      ws.heartbeat_age = w.number_or("heartbeat_age_seconds", 0.0);
      ws.point_age = w.number_or("point_age_seconds", 0.0);
      s.workers.push_back(ws);
    }
  if (const JsonValue* anomalies = doc->find_array("anomalies"))
    for (const JsonValue& a : anomalies->array) {
      Status::Anomaly an;
      an.kind = a.string_or("kind", "?");
      an.worker = a.number_or("worker", 0.0);
      an.point = a.number_or("point", -1.0);
      an.observed = a.number_or("observed_seconds", 0.0);
      an.threshold = a.number_or("threshold_seconds", 0.0);
      s.anomalies.push_back(an);
    }
  *out = s;
  return true;
}

void print_summary_line(const Status& s) {
  std::printf("status bench=%s phase=%s version=%llu done=%d "
              "points=%.0f/%.0f pts_per_sec=%.2f eta_s=%.1f workers=%zu "
              "anomalies=%zu\n",
              s.bench.empty() ? "-" : s.bench.c_str(),
              s.phase.empty() ? "-" : s.phase.c_str(),
              static_cast<unsigned long long>(s.version), s.done ? 1 : 0,
              s.points_done, s.total, s.throughput, s.eta_seconds,
              s.workers.size(), s.anomalies.size());
}

void print_anomalies(const Status& s) {
  for (const Status::Anomaly& a : s.anomalies) {
    if (a.point >= 0.0)
      std::printf("anomaly kind=%s worker=%.0f point=%.0f "
                  "observed_s=%.2f threshold_s=%.2f\n",
                  a.kind.c_str(), a.worker, a.point, a.observed, a.threshold);
    else
      std::printf("anomaly kind=%s worker=%.0f observed_s=%.2f "
                  "threshold_s=%.2f\n",
                  a.kind.c_str(), a.worker, a.observed, a.threshold);
  }
}

/// Full-screen-ish view for --follow on a TTY. Returns the number of lines
/// printed so the next frame can move the cursor back up.
int render_frame(const Status& s) {
  int lines = 0;
  const double pct = s.total > 0.0 ? 100.0 * s.points_done / s.total : 0.0;
  std::printf("\x1b[K%s · %s · snapshot %llu%s\n",
              s.bench.empty() ? "(bench?)" : s.bench.c_str(),
              s.phase.empty() ? "(no phase)" : s.phase.c_str(),
              static_cast<unsigned long long>(s.version),
              s.done ? " · DONE" : "");
  ++lines;
  std::printf("\x1b[K  points %.0f/%.0f (%.0f%%)  %.2f pts/s  eta %.1fs  "
              "rss %.0f MiB  cache %.0f/%.0f\n",
              s.points_done, s.total, pct, s.throughput, s.eta_seconds,
              s.max_rss_kb / 1024.0, s.cache_hits,
              s.cache_hits + s.cache_misses);
  ++lines;
  for (const Status::Worker& w : s.workers) {
    if (w.state == "running")
      std::printf("\x1b[K  w%-3.0f running p%-6.0f done %-5.0f "
                  "hb %.1fs  age %.1fs\n",
                  w.id, w.point, w.points_done, w.heartbeat_age, w.point_age);
    else
      std::printf("\x1b[K  w%-3.0f %-7s %7s done %-5.0f hb %.1fs\n",
                  w.id, w.state.c_str(), "", w.points_done, w.heartbeat_age);
    ++lines;
  }
  for (const Status::Anomaly& a : s.anomalies) {
    std::printf("\x1b[K  !! %s worker %.0f%s%s observed %.2fs "
                "(threshold %.2fs)\n",
                a.kind.c_str(), a.worker, a.point >= 0.0 ? " point " : "",
                a.point >= 0.0 ? std::to_string(static_cast<long long>(a.point)).c_str()
                               : "",
                a.observed, a.threshold);
    ++lines;
  }
  std::fflush(stdout);
  return lines;
}

void usage() {
  std::fprintf(stderr,
               "usage: sweep_monitor <status.json> [--once]\n"
               "       sweep_monitor <status.json> --follow "
               "[--interval <ms>] [--timeout <s>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool follow = false;
  long interval_ms = 500;
  double timeout_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--once") {
      follow = false;
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--interval" && has_next) {
      interval_ms = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--timeout" && has_next) {
      timeout_s = std::strtod(argv[++i], nullptr);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage();
      return 2;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      usage();
      return 2;
    }
  }
  if (path == nullptr || interval_ms < 1 || timeout_s < 0.0) {
    usage();
    return 2;
  }

  if (!follow) {
    Status s;
    std::string error;
    bool missing = false;
    if (!read_status(path, &s, &error, &missing)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    print_summary_line(s);
    print_anomalies(s);
    return s.anomalies.empty() ? 0 : 3;
  }

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  std::uint64_t last_version = 0;
  int last_lines = 0;
  for (;;) {
    Status s;
    std::string error;
    bool missing = false;
    if (read_status(path, &s, &error, &missing)) {
      if (s.version != last_version) {
        last_version = s.version;
        if (tty) {
          if (last_lines > 0) std::printf("\x1b[%dA", last_lines);
          last_lines = render_frame(s);
        } else {
          print_summary_line(s);
        }
      }
      if (s.done) {
        if (tty) print_anomalies(s);
        return s.anomalies.empty() ? 0 : 3;
      }
    } else if (!missing) {
      // A present-but-unparsable file is a real error: the publisher
      // renames complete snapshots into place, so this never races.
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (timeout_s > 0.0 && std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "sweep_monitor: no done=true snapshot within "
                   "%.1fs\n",
                   timeout_s);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
