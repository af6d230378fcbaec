// Black-box flight recorder: always-on postmortem event capture.
//
// PR 8's watchdog can say *that* a sweep went wrong (slow_point /
// stalled_worker); nothing records what led up to it, so a flagged
// anomaly or a crashed run leaves no evidence. The flight recorder
// closes that gap the way an aircraft recorder does: every thread that
// emits telemetry owns a fixed-size ring of compact structured events
// (sweep and point begin/end, cache hit/miss, worker idle, coarse counter
// ticks), written wait-free — a steady-clock read plus four relaxed atomic
// stores into the thread's own ring slot. Old events are overwritten in
// place, so memory is bounded and the rings always hold the *last* window
// of activity, which is the window that matters after an incident.
//
// Capture is always on (overhead is gated at <=2% of the sweep_plain
// bench regime by scripts/check.sh; TC3I_FLIGHT=0 or set_enabled(false)
// turns it off for A/B measurement). Nothing is written to disk until a
// dump triggers:
//
//   (a) watchdog — LiveBus::snapshot() calls on_first_anomaly() when the
//       cumulative anomaly list goes from empty to non-empty; if a dump
//       path is configured (--flight-out) the recorder snapshots every
//       ring plus the triggering live status into one JSON document,
//       cross-linked to the anomaly record.
//   (b) fatal signal — SIGSEGV / SIGABRT / SIGBUS handlers write the
//       rings and a backtrace through a pre-opened fd ("<path>.crash")
//       using only async-signal-safe calls (write(2), integer
//       formatting, no malloc, no stdio), then re-raise so the exit
//       status still reflects the signal.
//   (c) on demand — SIGUSR1, or a programmatic obs::flight::dump().
//
// All four triggers serialize through one write(2)-only routine, so every
// dump — crash and SIGUSR1 dumps included — carries the same header
// (bench name too), labels, counters and rings; only the trigger-specific
// members differ.
//
// `obs_report flight` merges the per-thread rings into one global
// timeline and renders the last N ms before the trigger; tools/json_check
// validates the dump ("kind": "flight_dump", schema_version 1).
//
// Determinism contract: like LiveBus, the recorder is sampled and never
// merged into any deterministic output — reports stay byte-identical at
// any --jobs with the recorder on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace tc3i::obs {
struct LiveStatus;  // live.hpp
}

namespace tc3i::obs::flight {

/// Compact event vocabulary. Values are stable (they appear in dumps as
/// names via event_kind_name); append new kinds at the end and never reuse
/// the numbers of deleted ones (6-9, 12, 17, 18).
enum class EventKind : std::uint32_t {
  kThreadAttach = 0,  ///< a thread claimed this ring; a = owner serial
  kPhase = 1,         ///< a = label id (see dump "labels")
  kSweepBegin = 2,    ///< a = points, b = workers
  kSweepEnd = 3,      ///< a = points
  kPointBegin = 4,    ///< a = point, b = worker
  kPointEnd = 5,      ///< a = point (pair with the matching kPointBegin
                      ///< for its duration)
  kCacheHit = 10,     ///< testbed profile cache
  kCacheMiss = 11,
  kWorkerIdle = 13,   ///< a = worker drained its queue
  kCounterTick = 14,  ///< a = ring events since last tick, b = total ever
  kAnomaly = 15,      ///< a = anomaly ordinal, b = worker
  kMark = 16,         ///< a = label id (freeform user mark)
};

/// Stable dump name for `kind` ("point_begin", ...); "unknown" if out of
/// range. Async-signal-safe (static strings).
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// One decoded ring slot (the in-ring representation is four relaxed
/// atomic words so a concurrent dump is race-free).
struct Event {
  std::uint64_t t_ns = 0;  ///< steady clock, anchored at recorder birth
  EventKind kind = EventKind::kMark;
  std::uint32_t ring = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Ring geometry: kRingCapacity events per thread ring (power of two),
/// kMaxRings thread rings per process. Threads beyond kMaxRings share
/// ring kMaxRings-1 (capture degrades, correctness is unaffected).
inline constexpr std::size_t kRingCapacity = 2048;
inline constexpr std::size_t kMaxRings = 64;

/// True when the recorder is capturing. Defaults to on; TC3I_FLIGHT=0 in
/// the environment or set_enabled(false) turns the emit path into a
/// single relaxed load + branch (the "compiled-out" baseline the
/// overhead gate compares against).
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Appends one event to the calling thread's ring. Wait-free after the
/// thread's first call (which claims a ring slot under a mutex, once).
void emit(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0) noexcept;

/// Interns `label` into the recorder's fixed string table and returns its
/// id (for kPhase / kMark payloads). Bounded: at most kMaxLabels distinct
/// labels are retained; later ones all map to the last slot. Safe from
/// any thread; ids are stable for the process lifetime.
inline constexpr std::size_t kMaxLabels = 64;
[[nodiscard]] std::uint32_t intern(const std::string& label);

/// emit(kPhase, intern(label)) — phase breadcrumbs from the harness and
/// the c3ipbs driver.
void phase(const std::string& label);

/// Names the "bench" field of subsequent dumps, signal-triggered ones
/// included (RunSession sets it). Kept in a fixed buffer, so names past
/// 127 bytes are truncated.
void set_bench(const std::string& bench);

/// Seconds on the recorder clock (steady, anchored at first use).
[[nodiscard]] double now_seconds();

/// Configures where triggered dumps land (--flight-out). An empty path
/// disarms the watchdog trigger; signal handlers are installed separately
/// via install_signal_handlers().
void set_dump_path(const std::string& path);
[[nodiscard]] std::string dump_path();

/// Watchdog hook: called by LiveBus::snapshot() when the cumulative
/// anomaly list first becomes non-empty. Writes one dump (reason
/// "watchdog") to the configured dump path, embedding `status` and
/// cross-linking the triggering anomaly. No-op without a dump path, and
/// at most one watchdog dump per process.
void on_first_anomaly(const LiveStatus& status);

/// Programmatic dump to `path` (temp file + rename, like the status
/// publisher). Returns false with *error set on I/O failure.
[[nodiscard]] bool dump(const std::string& path, const std::string& reason,
                        std::string* error);

/// Installs the crash path: SIGSEGV/SIGABRT/SIGBUS handlers that write
/// rings + backtrace to a pre-opened fd on "<path>.crash" using only
/// async-signal-safe calls, then re-raise; and a SIGUSR1 handler that
/// writes an on-demand dump to `path` itself. Idempotent (re-installing
/// re-opens the crash fd for the new path).
void install_signal_handlers(const std::string& path);

/// Restores the previous signal dispositions and closes the crash fd.
/// If no crash happened the (empty) "<path>.crash" file is removed.
void uninstall_signal_handlers();

/// Dump-time totals, tallied by emit() with relaxed counters.
struct Totals {
  std::uint64_t events = 0;   ///< all events ever emitted
  std::uint64_t dropped = 0;  ///< events overwritten in-place (ring wrap)
  std::uint64_t points_begun = 0;
  std::uint64_t points_done = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};
[[nodiscard]] Totals totals() noexcept;

/// Test hook: forgets the per-process "one watchdog dump" latch and the
/// dump path. Does not clear rings (evidence is append-only by design).
void reset_for_test();

}  // namespace tc3i::obs::flight
