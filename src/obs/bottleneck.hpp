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

/// Classifies one machine run against the fixed shares in bottleneck.cpp.
/// For "mta" records the rule is, in order: used share >= 80% ->
/// issue-limited; else the largest stall category decides — sync (share >=
/// 10%) -> sync-limited, memory with the network at >= 85% ->
/// memory-bank-limited, everything else (no-stream / spacing / spawn /
/// cold-network memory waits) -> parallelism-limited. For "smp": bus
/// (>= 85%) -> lock wait (>= 25%) -> compute (>= 80%) -> parallelism.
[[nodiscard]] Verdict classify(const RunRecord& record);

/// One-line human summary of the shares behind classify()'s decision, e.g.
/// "slots: used 91.2% | no-stream 0.0% | spacing 5.1% | ...; network 71%".
[[nodiscard]] std::string explain(const RunRecord& record);

/// Folds several runs of the same model into one aggregate record (slot
/// accounts and cycles sum; utilizations recomputed from the sums for
/// "mta", elapsed-weighted for "smp"). Records of other models are
/// ignored; returns the number of runs folded in.
[[nodiscard]] std::size_t aggregate(const std::vector<RunRecord>& records,
                                    const std::string& model,
                                    RunRecord* out);

}  // namespace tc3i::obs
