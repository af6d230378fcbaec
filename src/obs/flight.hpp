// Black-box flight recorder: postmortem event capture under --flight-out.
//
// The watchdog can say *that* a sweep went wrong (slow_point /
// stalled_worker); the flight recorder keeps what led up to it, so a
// flagged anomaly or a crashed run leaves evidence. It works the way an
// aircraft recorder does: every thread that records owns a fixed-size
// ring of compact structured events, written wait-free — a steady-clock
// read plus four relaxed atomic stores into the thread's own ring slot.
// Old events are overwritten in place, so memory is bounded and the rings
// always hold the *last* window of activity, which is the window that
// matters after an incident.
//
// The live bus is the one host-side writer: LiveBus::begin_sweep,
// begin_point, end_point, record_cache and set_phase append sweep_begin,
// point_begin, point_end, cache_hit / cache_miss and phase to the calling
// thread's ring. The rings record only while armed, and RunSession arms
// them for --flight-out — the only flag under which a dump can be
// written. Nothing reaches disk until a dump triggers:
//
//   (a) watchdog — LiveBus::snapshot() calls on_first_anomaly() when the
//       cumulative anomaly list goes from empty to non-empty; the
//       recorder snapshots every ring plus the triggering live status
//       into one JSON document at the armed path, cross-linked to the
//       anomaly record.
//   (b) fatal signal — SIGSEGV / SIGABRT / SIGBUS handlers write the
//       rings and a backtrace through a pre-opened fd ("<path>.crash")
//       using only async-signal-safe calls (write(2), integer
//       formatting, no malloc, no stdio), then re-raise so the exit
//       status still reflects the signal.
//   (c) on demand — SIGUSR1, or a programmatic obs::flight::dump().
//
// All four triggers serialize through one write(2)-only routine, so every
// dump — crash and SIGUSR1 dumps included — carries the same header
// (bench name too), labels and rings; only the trigger-specific members
// differ.
//
// `obs_report flight` merges the per-thread rings into one global
// timeline and renders the last N ms before the trigger; tools/json_check
// validates the dump ("kind": "flight_dump", schema_version 1).
//
// Determinism contract: like LiveBus, the recorder is sampled and never
// merged into any deterministic output — reports stay byte-identical at
// any --jobs with or without --flight-out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace tc3i::obs {
struct LiveStatus;  // live.hpp
}

namespace tc3i::obs::flight {

/// Compact event vocabulary. Values are stable (they appear in dumps as
/// names via event_kind_name); append new kinds at the end and never reuse
/// the numbers of deleted ones (3, 6-9, 12-14, 16-18).
enum class EventKind : std::uint32_t {
  kThreadAttach = 0,  ///< a thread claimed this ring; a = owner serial
  kPhase = 1,         ///< a = label id (see dump "labels")
  kSweepBegin = 2,    ///< a = points, b = workers
  kPointBegin = 4,    ///< a = point, b = worker
  kPointEnd = 5,      ///< a = point, b = worker (pair with the matching
                      ///< kPointBegin for its duration)
  kCacheHit = 10,     ///< testbed profile cache
  kCacheMiss = 11,
  kAnomaly = 15,      ///< a = anomaly ordinal, b = worker
};

/// Stable dump name for `kind` ("point_begin", ...); "unknown" if out of
/// range. Async-signal-safe (static strings).
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// Ring geometry: kRingCapacity events per thread ring (power of two),
/// kMaxRings thread rings per process. Threads beyond kMaxRings share
/// ring kMaxRings-1 (capture degrades, correctness is unaffected).
inline constexpr std::size_t kRingCapacity = 2048;
inline constexpr std::size_t kMaxRings = 64;

/// Arms the recorder for --flight-out: the rings start recording,
/// triggered dumps land at `path`, and the crash path is installed —
/// SIGSEGV/SIGABRT/SIGBUS handlers that write rings + backtrace to a
/// pre-opened fd on "<path>.crash" using only async-signal-safe calls,
/// then re-raise; and a SIGUSR1 handler that writes an on-demand dump to
/// `path` itself. Re-arming re-points every trigger at the new path and
/// re-allows one watchdog dump.
void arm(const std::string& path);

/// Stops recording and restores the previous signal dispositions. If no
/// crash happened the (empty) "<path>.crash" file is removed. Rings keep
/// what they hold (evidence is append-only by design).
void disarm();

/// Appends one event to the calling thread's ring while armed; a no-op
/// (one relaxed load) otherwise. Wait-free after the thread's first
/// armed call (which claims a ring slot under a mutex, once).
void emit(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0) noexcept;

/// Interns `label` into the recorder's fixed string table and returns its
/// id (the kPhase payload). Bounded: at most kMaxLabels distinct labels
/// are retained; later ones all map to the last slot. Safe from any
/// thread; ids are stable for the process lifetime.
inline constexpr std::size_t kMaxLabels = 64;
[[nodiscard]] std::uint32_t intern(const std::string& label);

/// emit(kPhase, intern(label)) while armed — LiveBus::set_phase's record.
void phase(const std::string& label);

/// Names the "bench" field of subsequent dumps, signal-triggered ones
/// included (RunSession sets it). Kept in a fixed buffer, so names past
/// 127 bytes are truncated.
void set_bench(const std::string& bench);

/// Watchdog hook: called by LiveBus::snapshot() when the cumulative
/// anomaly list first becomes non-empty. Writes one dump (reason
/// "watchdog") to the armed path, embedding `status` and cross-linking
/// the triggering anomaly. No-op unless armed, and at most one watchdog
/// dump per arming.
void on_first_anomaly(const LiveStatus& status);

/// Programmatic dump to `path` (temp file + rename, like the status
/// publisher). Returns false with *error set on I/O failure.
[[nodiscard]] bool dump(const std::string& path, const std::string& reason,
                        std::string* error);

}  // namespace tc3i::obs::flight
