// Bottleneck verdicts: turn one machine run's accounting (a RunRecord)
// into the paper's vocabulary for *why* a run went no faster.
//
// The paper explains every MTA plateau by naming the limiting resource:
// not enough ready streams below ~100 streams, issue slots at saturation,
// full/empty hand-offs in Terrain Masking, and the under-development
// network for the two-processor rows; the SMP results are bounded by the
// shared bus or by lock serialization. classify() reproduces exactly that
// taxonomy from the issue-slot account (MTA) or the bus/lock shares (SMP);
// the thresholds are documented in docs/OBSERVABILITY.md and pinned by
// tests against the table05/table11 workloads.
#pragma once

#include <string>

#include "obs/run_record.hpp"

namespace tc3i::obs {

enum class Verdict : std::uint8_t {
  kIssueLimited,        ///< issue slots mostly used: the machine is busy
  kParallelismLimited,  ///< too few ready streams / runnable threads
  kSyncLimited,         ///< full/empty blocking dominates the stalls
  kMemoryBankLimited,   ///< memory waits dominate and the network is hot
  kBusLimited,          ///< SMP shared bus saturated
  kLockLimited,         ///< SMP lock serialization dominates
};

/// The hyphenated name used in reports and by `obs_report bottleneck`
/// ("issue-limited", ...).
[[nodiscard]] const char* verdict_name(Verdict v);

/// Classification thresholds (shares in [0, 1]); the defaults are what the
/// tools and tests use.
struct VerdictThresholds {
  /// Used-slot (MTA) / compute-capacity (SMP) share at or above which a
  /// run counts as issue-limited.
  double issue_share = 0.80;
  /// Network service share at or above which dominant memory waits become
  /// memory-bank-limited rather than parallelism-limited.
  double network_share = 0.85;
  /// Sync-blocked slot share at or above which dominant sync waits become
  /// sync-limited.
  double sync_share = 0.10;
  /// Critical-path-only: full/empty hand-off share of the path at or above
  /// which a run the issue/network bounds don't explain counts as
  /// sync-limited. Low on purpose — blocked waiters resume off their
  /// producers' chains, so cascades surface only as the small kSync
  /// crossings between streams (the slot account sees the blocked share
  /// directly; this keeps the two views agreeing on the paper tables).
  double sync_path_share = 0.02;
  /// SMP: bus occupancy at or above which a run is bus-limited.
  double bus_share = 0.85;
  /// SMP: lock-wait share of processor capacity at or above which a run is
  /// lock-limited.
  double lock_share = 0.25;
};

/// Classifies one machine run. For "mta" records the rule is, in order:
/// used share >= issue_share -> issue-limited; else the largest stall
/// category decides — sync (share >= sync_share) -> sync-limited, memory
/// with a hot network -> memory-bank-limited, everything else (no-stream /
/// spacing / spawn / cold-network memory waits) -> parallelism-limited.
/// For "smp": bus -> lock -> issue -> parallelism, same ordering idea.
[[nodiscard]] Verdict classify(const RunRecord& record,
                               const VerdictThresholds& thresholds = {});

/// One-line human summary of the shares behind classify()'s decision, e.g.
/// "slots: used 91.2% | no-stream 0.0% | spacing 5.1% | ...; network 71%".
[[nodiscard]] std::string explain(const RunRecord& record);

/// Classifies one run from its critical-path summary instead of the slot
/// account (`obs_report bottleneck --critical-path`). The rules mirror
/// classify() so both views reach the same verdict on the paper tables:
/// "mta" — the "issue"/"network" resource bounds stand in for used-slot
/// share and network utilization, the path's sync share for the
/// sync-blocked slot share; "smp" — the "bus" bound for bus occupancy and
/// the path's sync share for the lock-wait share. Returns
/// kParallelismLimited when the summary is absent/empty.
[[nodiscard]] Verdict classify_critical_path(
    const CritPathSummary& cp, const std::string& model,
    const VerdictThresholds& thresholds = {});

/// One-line summary of the critical-path shares behind
/// classify_critical_path()'s decision.
[[nodiscard]] std::string explain_critical_path(const CritPathSummary& cp);

/// Folds several runs of the same model into one aggregate record (slot
/// accounts and cycles sum; utilizations recomputed from the sums for
/// "mta", elapsed-weighted for "smp"). Records of other models are
/// ignored; returns the number of runs folded in.
[[nodiscard]] std::size_t aggregate(const std::vector<RunRecord>& records,
                                    const std::string& model,
                                    RunRecord* out);

}  // namespace tc3i::obs
