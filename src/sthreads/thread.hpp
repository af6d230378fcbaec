// Structured multithreading primitives in the spirit of the Caltech
// Sthreads library the paper used on the Pentium Pro platform: plain
// threads, spin locks and a fetch-add counter. The paper's full/empty
// variables, futures and barriers are modelled where they shape its
// results, on the MTA (src/mta/).
//
// These run real host threads; the C3I benchmark variants execute on them
// natively so the parallelizations are tested for actual correctness, not
// only replayed through the machine models.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/counters.hpp"

namespace tc3i::sthreads {

/// A joinable thread that joins on destruction (no detached threads; every
/// sthread has a structured lifetime, hence the library's name).
class Thread {
 public:
  Thread() = default;
  /// The new thread inherits the creator's active obs registry, so counter
  /// isolation (obs::ScopedRegistry) composes with nested fork/join.
  explicit Thread(std::function<void()> fn)
      : impl_(obs::inherit_registry(std::move(fn))) {}

  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) {
    join();
    impl_ = std::move(other.impl_);
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() { join(); }

  void join() {
    if (impl_.joinable()) impl_.join();
  }

  [[nodiscard]] bool joinable() const { return impl_.joinable(); }

  static unsigned hardware_concurrency() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

 private:
  std::thread impl_;
};

/// Launches `count` threads running `fn(thread_index)` and joins them all
/// before returning — the basic fork/join block.
void fork_join(int count, const std::function<void(int)>& fn);

/// A test-and-test-and-set spin lock (short critical sections, e.g. the
/// per-block locks in coarse-grained Terrain Masking).
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
  }
  bool try_lock() { return !flag_.test_and_set(std::memory_order_acquire); }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// A shared counter with MTA-counter semantics: fetch_add is one atomic
/// full/empty round-trip. Used by the fine-grained Threat Analysis variant
/// to claim slots in the shared intervals array.
class SyncCounter {
 public:
  explicit SyncCounter(long initial = 0);
  /// Adds the fetch_adds this object made to the destroying thread's
  /// registry ("sthreads.synccounter.fetch_add").
  ~SyncCounter();

  /// Atomically adds `delta` and returns the pre-add value.
  long fetch_add(long delta);

  [[nodiscard]] long value() const;

 private:
  mutable std::mutex mu_;
  long value_;
  std::uint64_t fetch_adds_ = 0;  ///< guarded by mu_
};

}  // namespace tc3i::sthreads
