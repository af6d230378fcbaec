#include "obs/bottleneck.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace tc3i::obs {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kIssueLimited: return "issue-limited";
    case Verdict::kParallelismLimited: return "parallelism-limited";
    case Verdict::kSyncLimited: return "sync-limited";
    case Verdict::kMemoryBankLimited: return "memory-bank-limited";
    case Verdict::kBusLimited: return "bus-limited";
    case Verdict::kLockLimited: return "lock-limited";
  }
  return "unknown";
}

namespace {

Verdict classify_mta(const RunRecord& r, const VerdictThresholds& t) {
  const double total = static_cast<double>(r.slots.total());
  if (total <= 0.0) return Verdict::kParallelismLimited;  // nothing ran
  if (static_cast<double>(r.slots.used) / total >= t.issue_share)
    return Verdict::kIssueLimited;
  // The run stalled; name the dominant stall. Sync blocking wins when it is
  // at least as large as the memory waits it usually induces (a blocked
  // stream re-enters the network on hand-off).
  if (static_cast<double>(r.slots.sync) / total >= t.sync_share &&
      r.slots.sync >= r.slots.memory)
    return Verdict::kSyncLimited;
  const std::uint64_t starved = r.slots.no_stream + r.slots.spacing +
                                r.slots.spawn;
  if (r.slots.memory >= starved && r.slots.memory >= r.slots.sync &&
      r.network_utilization >= t.network_share)
    return Verdict::kMemoryBankLimited;
  // Memory waits under an idle network, spacing gaps, spawn ramps and empty
  // processors all mean the same thing: not enough concurrent streams.
  return Verdict::kParallelismLimited;
}

Verdict classify_smp(const RunRecord& r, const VerdictThresholds& t) {
  if (r.bus_utilization >= t.bus_share) return Verdict::kBusLimited;
  if (r.lock_wait_share >= t.lock_share) return Verdict::kLockLimited;
  if (r.utilization >= t.issue_share) return Verdict::kIssueLimited;
  return Verdict::kParallelismLimited;
}

double pct(double num, double den) {
  return den > 0.0 ? 100.0 * num / den : 0.0;
}

}  // namespace

Verdict classify(const RunRecord& record, const VerdictThresholds& t) {
  return record.model == "smp" ? classify_smp(record, t)
                               : classify_mta(record, t);
}

std::string explain(const RunRecord& r) {
  char buf[256];
  if (r.model == "smp") {
    std::snprintf(buf, sizeof buf,
                  "cpu %.1f%% | bus %.1f%% | lock-wait %.1f%% | threads %llu",
                  100.0 * r.utilization, 100.0 * r.bus_utilization,
                  100.0 * r.lock_wait_share,
                  static_cast<unsigned long long>(r.threads));
    return buf;
  }
  const auto total = static_cast<double>(r.slots.total());
  std::snprintf(
      buf, sizeof buf,
      "slots: used %.1f%% | no-stream %.1f%% | spacing %.1f%% | "
      "spawn %.1f%% | memory %.1f%% | sync %.1f%%; network %.1f%%",
      pct(static_cast<double>(r.slots.used), total),
      pct(static_cast<double>(r.slots.no_stream), total),
      pct(static_cast<double>(r.slots.spacing), total),
      pct(static_cast<double>(r.slots.spawn), total),
      pct(static_cast<double>(r.slots.memory), total),
      pct(static_cast<double>(r.slots.sync), total),
      100.0 * r.network_utilization);
  return buf;
}

std::size_t aggregate(const std::vector<RunRecord>& records,
                      const std::string& model, RunRecord* out) {
  RunRecord agg;
  agg.model = model;
  agg.name = "aggregate";
  agg.processors = 0;
  std::size_t n = 0;
  double weighted_network = 0.0;
  double weighted_bus = 0.0;
  double weighted_lock = 0.0;
  double weighted_cpu = 0.0;
  for (const RunRecord& r : records) {
    if (r.model != model) continue;
    ++n;
    agg.processors = std::max(agg.processors, r.processors);
    agg.threads = std::max(agg.threads, r.threads);
    agg.cycles += r.cycles;
    agg.memory_ops += r.memory_ops;
    agg.slots += r.slots;
    weighted_network += r.network_utilization * static_cast<double>(r.cycles);
    agg.elapsed_seconds += r.elapsed_seconds;
    weighted_bus += r.bus_utilization * r.elapsed_seconds;
    weighted_lock += r.lock_wait_share * r.elapsed_seconds;
    weighted_cpu += r.utilization * r.elapsed_seconds;
  }
  if (n == 0) return 0;
  if (model == "smp") {
    if (agg.elapsed_seconds > 0.0) {
      agg.bus_utilization = weighted_bus / agg.elapsed_seconds;
      agg.lock_wait_share = weighted_lock / agg.elapsed_seconds;
      agg.utilization = weighted_cpu / agg.elapsed_seconds;
    }
  } else {
    if (agg.cycles > 0)
      agg.network_utilization =
          weighted_network / static_cast<double>(agg.cycles);
    if (agg.slots.total() > 0)
      agg.utilization = static_cast<double>(agg.slots.used) /
                        static_cast<double>(agg.slots.total());
  }
  if (out != nullptr) *out = std::move(agg);
  return n;
}

}  // namespace tc3i::obs
