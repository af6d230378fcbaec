// Critical-path capture for native sthreads runs.
//
// The machine models build their dependency graphs from simulated event
// times; the sthreads runtime is real host threads, so here the graph is
// built from wall-clock timestamps instead: each thread carries a chain
// node (its last recorded event), every blocking primitive closes the
// running compute segment before it blocks (wait_begin) and records a
// sync event when it wakes, with a 0-weight edge from the event that
// released it — a SyncVar fill, a lock release, a barrier's last arrival.
// The result is the same obs::DepGraph shape the simulators emit
// (model "sthreads", unit seconds), so `obs_report whatif` and the
// report schema treat host runs uniformly.
//
// Capture is process-global and opt-in: the c3ipbs driver brackets each
// native run with begin()/end() only when --critpath installed a store
// (obs::active_critpath() != nullptr). Every hook is a no-op guarded by
// one relaxed atomic load when capture is off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/critpath.hpp"
#include "obs/run_record.hpp"

namespace tc3i::sthreads::cap {

namespace detail {
/// Non-null while a capture is active (points at the internal state).
extern std::atomic<void*> g_active;
}  // namespace detail

/// True while a host capture is active (one relaxed load; hooks bail out
/// on false before doing any work).
[[nodiscard]] inline bool enabled() {
  return detail::g_active.load(std::memory_order_acquire) != nullptr;
}

/// A node handle that is safe to store in a long-lived primitive (a static
/// SyncVar, a lock reused across runs): it is tagged with the capture
/// epoch it belongs to, and a handle from an earlier capture is ignored
/// rather than dereferenced into the wrong graph.
struct NodeRef {
  std::uint64_t epoch = 0;
  std::uint32_t node = obs::DepGraph::kNoNode;
};

/// Starts a capture named `name` (no-op when obs::active_critpath() is
/// null). `threads` is recorded as the run's processor/worker count.
void begin(std::string name, int threads);

/// Finishes the active capture: links every finished thread chain (and the
/// caller's) to the end node, summarizes, hands the graph to
/// obs::active_critpath(), and appends an "sthreads" RunRecord (with the
/// critical_path section filled) to obs::active_run_records(). Returns the
/// record; RunRecord::critical_path.present is false when no capture was
/// active.
obs::RunRecord end();

/// Closes the calling thread's compute segment: appends a node whose
/// own-chain edge carries the time since the thread's last event as
/// kCompute. Call immediately before any potentially blocking operation so
/// the wait that follows is attributed to sync, not compute.
void wait_begin();

/// Records the release side of a primitive: a checkpoint whose node other
/// threads may later depend on (lock unlock, structured hand-off points).
[[nodiscard]] NodeRef checkpoint();

/// Records a synchronization event: own-chain kSync edge (weight = time
/// since the thread's last event, i.e. the wait) plus a 0-weight kSync
/// edge from `*pred` when it belongs to this capture. When `out` is
/// non-null the new node is stored there for later waiters (`pred` and
/// `out` may alias; the predecessor is read first).
void sync_event(const NodeRef* pred, NodeRef* out);

/// Like sync_event with several release-side predecessors (a barrier's
/// release depends on every arrival).
void sync_event_multi(const NodeRef* preds, std::size_t num_preds,
                      NodeRef* out);

/// Slot a Thread uses to pass its final chain node back to the joiner.
/// Returns nullptr when capture is off (Thread then skips all hooks).
[[nodiscard]] std::shared_ptr<NodeRef> make_final_slot();

/// Wraps a thread body for capture: records a spawn point on the creator's
/// chain now, and makes the new thread's first event depend on it through
/// a kSpawn edge whose weight is the observed spawn latency. On body exit
/// the thread's final chain node is stored in `*final_slot`. Returns `fn`
/// unchanged when `final_slot` is null.
[[nodiscard]] std::function<void()> wrap_thread(
    std::function<void()> fn, std::shared_ptr<NodeRef> final_slot);

/// Records that the calling thread joined a thread whose final node is
/// `final_node` (own-chain kSync wait edge plus the cross edge).
void joined(const NodeRef& final_node);

}  // namespace tc3i::sthreads::cap
