// Always-on instrumentation counters shared by both machine models.
//
// A CounterRegistry maps hierarchical dotted names ("mta.issue.total",
// "smp.lock.contended") to monotonically increasing u64 Counters (relaxed
// atomic adds). Per-run quantities — peak live streams, utilization,
// elapsed time, bus and lock shares — are not counters: each machine run
// records them once in its RunRecord (obs/run_record.hpp). A layer
// tallies in plain integers and, when its unit of work ends (a machine
// run, a parallel_for call, a SyncCounter's lifetime), adds each counter
// once, by name, to default_registry() — cheap enough to leave on in
// every run. No layer keeps a Counter reference: the registry active at
// one call (a sweep point's own) may be gone by the next.
//
// default_registry() is what the machine models and the sthreads library
// add into; bench RunReports snapshot it at exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tc3i::obs {

/// Monotonically increasing event count. Thread-safe (relaxed).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One registry entry, exposed for reports and tests.
struct MetricSnapshot {
  std::string name;
  std::uint64_t count = 0;

  bool operator==(const MetricSnapshot&) const = default;
};

/// Named counter store. Names are dotted lowercase ([a-z0-9_.]).
class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Get-or-create. Returned references stay valid for the registry's
  /// lifetime (entries are never removed).
  [[nodiscard]] Counter& counter(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Zeroes every counter without invalidating outstanding references
  /// (entries stay registered).
  void reset_values();

  /// Name-sorted snapshot of every counter.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Adds another, distinct registry's counters into this one
  /// (get-or-create by name).
  void merge_from(const CounterRegistry& other);

 private:
  static void check_name(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/// The registry built-in instrumentation adds to: the calling thread's
/// override when a ScopedRegistry is active, otherwise the process-wide
/// registry. Layers look it up when their unit of work ends, so the
/// indirection is off the per-instruction path.
[[nodiscard]] CounterRegistry& default_registry();

/// The process-wide registry, ignoring any thread-local override.
[[nodiscard]] CounterRegistry& process_registry();

/// Redirects default_registry() on the current thread to `reg` for this
/// object's lifetime. Used by the sweep runner to give each sweep point an
/// isolated registry that is merged into the caller's registry afterward.
/// Nests (restores the previous override on destruction).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(CounterRegistry& reg);
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;
  ~ScopedRegistry();

 private:
  CounterRegistry* prev_;
};

/// Wraps a thread body so the new thread inherits the creating thread's
/// active registry (thread-local overrides do not propagate on their own).
[[nodiscard]] std::function<void()> inherit_registry(std::function<void()> fn);

}  // namespace tc3i::obs
