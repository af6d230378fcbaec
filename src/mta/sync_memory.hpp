// Full/empty-bit memory — the Tera MTA's signature synchronization feature.
//
// Every word of MTA memory carries a full/empty bit. A synchronized load
// waits until the word is FULL, reads it, and marks it EMPTY; a synchronized
// store waits until the word is EMPTY, writes it, and marks it FULL. This
// gives producer/consumer hand-off, mutual exclusion, and atomic update on
// any individual word with no separate lock objects — the property the paper
// highlights as enabling "synchronization on every element of a large data
// structure".
//
// This class models the state machine and the waiter queues; the machine
// simulator decides *when* operations are attempted and charges latency.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/counters.hpp"

namespace tc3i::mta {

using Address = std::uint64_t;
using Word = std::int64_t;
using StreamId = int;

/// Result of attempting a synchronized operation.
struct SyncAttempt {
  bool succeeded = false;
  Word value = 0;  ///< loaded value (sync load only)
};

class SyncMemory {
 private:
  // Deliberately no default member initializers: a trivially-default-
  // constructible Cell lets the 16 MiB `words_` fill lower to one memset
  // (measurably faster than the per-member store loop NSDMIs force), and
  // the vector resize that creates the cells value-initializes them, which
  // zeroes all members anyway.
  struct Cell {
    Word value;
    bool full;
  };

 public:
  /// Creates a memory of `size` words, all EMPTY with value 0.
  explicit SyncMemory(std::size_t size);

  [[nodiscard]] std::size_t size() const { return words_.size(); }

  // --- unsynchronized access (ignores full/empty bits) -------------------
  [[nodiscard]] Word load(Address addr) const;
  void store(Address addr, Word value);

  /// Writes a value and marks the word FULL without synchronization
  /// (used for initialization, like Tera's unconditional $ writes).
  void store_full(Address addr, Word value);

  /// Marks a word EMPTY without reading (initialization).
  void reset_empty(Address addr);

  [[nodiscard]] bool is_full(Address addr) const;

  // --- synchronized access ------------------------------------------------
  /// Attempts a synchronized load for `stream`. On failure the stream is
  /// queued on the word and will be handed the value by a later store.
  SyncAttempt try_sync_load(Address addr, StreamId stream);

  /// Attempts a synchronized store. On failure the stream is queued.
  SyncAttempt try_sync_store(Address addr, Word value, StreamId stream);

  /// A stream that was queued and has now been handed its operation's
  /// completion. The machine calls drain_handoffs() after every successful
  /// sync op to discover which queued streams were satisfied in cascade.
  struct Handoff {
    StreamId stream;
    Word value;  ///< value delivered to a queued sync load (0 for stores)
    bool was_load;
    Address addr;  ///< the word the queued operation completed on
  };

  /// Returns and clears the streams satisfied by cascaded hand-offs since
  /// the last call. (A sync store completing can satisfy a queued load,
  /// whose consumption can satisfy a queued store, and so on.)
  std::vector<Handoff> drain_handoffs();

  /// Number of streams currently blocked on any word.
  [[nodiscard]] std::size_t blocked_streams() const { return blocked_count_; }

  /// Counts of operations performed (for utilization reporting).
  [[nodiscard]] std::uint64_t sync_ops() const { return sync_ops_; }

  /// Publishes tallies accumulated since the last flush into the
  /// "mta.syncmem." registry counters. The hot paths only bump plain
  /// members; the machine calls this once at the end of a run so the
  /// always-on counters cost nothing per operation.
  void flush_counters();

 private:
  void cascade(Address addr);

  /// Bounds-checked mutable access.
  Cell& cell(Address addr);

  std::vector<Cell> words_;
  // Waiter queues are sparse: only contended addresses ever allocate one.
  std::unordered_map<Address, std::deque<StreamId>> load_waiters_;
  std::unordered_map<Address, std::deque<std::pair<StreamId, Word>>>
      store_waiters_;
  std::vector<Handoff> pending_handoffs_;
  std::size_t blocked_count_ = 0;
  std::uint64_t sync_ops_ = 0;
  std::uint64_t failed_attempts_ = 0;
  std::uint64_t handoffs_total_ = 0;
  // High-water marks of what flush_counters() already published.
  std::uint64_t flushed_ops_ = 0;
  std::uint64_t flushed_failed_ = 0;
  std::uint64_t flushed_handoffs_ = 0;
  // Always-on counters ("mta.syncmem." in obs::default_registry()),
  // updated only by flush_counters() to keep the per-op paths atomic-free.
  obs::Counter* c_ops_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_handoffs_ = nullptr;
};

}  // namespace tc3i::mta
