// A bucketed timing wheel for bounded-offset wake scheduling.
//
// The MTA machine model schedules almost every wake a small, bounded number
// of cycles ahead: issue spacing (21), memory latency plus network queueing
// (usually well under a few hundred), spawn costs (2/60). A binary heap pays
// O(log n) per push/pop for ordering generality the workload never uses; the
// wheel gives O(1) amortized push and pop for any wake within its horizon
// (`bucket_count` cycles ahead) and falls back to a min-heap only for the
// rare far-future entry.
//
// Layout: `2^log2_buckets` single-cycle buckets indexed by `at % N`, with an
// occupancy bitmap scanned with std::countr_zero to find the next due cycle
// without walking empty buckets. The wheel maintains the invariant that
// every in-wheel entry's due cycle lies in [current(), current() + N);
// entries beyond the horizon wait in the overflow heap and migrate into the
// wheel as current() advances. Entries pushed at or before the current cycle
// land in a small `late` list and drain first.
//
// Determinism: drain_due() delivers entries in ascending (cycle, payload)
// order — exactly the pop order of a min-heap ordered the same way — so a
// simulator can swap its wake heap for the wheel without perturbing
// arbitration. Ties on (cycle, payload) are delivered in unspecified
// relative order, as with a heap.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/contracts.hpp"

namespace tc3i::sim {

template <typename Payload>
class TimerWheel {
 public:
  /// Sentinel returned by next_due() when no entries are pending.
  static constexpr std::uint64_t kNone = ~0ull;

  explicit TimerWheel(unsigned log2_buckets = 10)
      : mask_((1ull << log2_buckets) - 1),
        buckets_(1ull << log2_buckets),
        bitmap_((1ull << log2_buckets) / 64, 0) {
    TC3I_EXPECTS(log2_buckets >= 6 && log2_buckets <= 20);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The next cycle drain_due() has not yet processed. Entries pushed for
  /// earlier cycles become due immediately.
  [[nodiscard]] std::uint64_t current() const { return current_; }

  void push(std::uint64_t at, Payload payload) {
    ++size_;
    if (at < current_) {
      late_.push_back(Entry{at, payload});
      return;
    }
    if (at - current_ <= mask_) {
      place(at, payload);
      return;
    }
    overflow_.push(Entry{at, payload});
  }

  /// Earliest pending due cycle, or kNone when empty.
  [[nodiscard]] std::uint64_t next_due() const {
    std::uint64_t best = kNone;
    for (const Entry& e : late_) best = std::min(best, e.at);
    const std::uint64_t w = next_wheel_cycle();
    if (w < best) best = w;
    if (!overflow_.empty() && overflow_.top().at < best)
      best = overflow_.top().at;
    return best;
  }

  /// Invokes fn(at, payload) for every entry due at cycle <= now, in
  /// ascending (at, payload) order, and advances current() to now + 1.
  /// fn must not push into the wheel.
  template <typename Fn>
  void drain_due(std::uint64_t now, Fn&& fn) {
    if (size_ == 0) {
      current_ = std::max(current_, now + 1);
      return;
    }
    scratch_.clear();
    for (const Entry& e : late_)
      if (e.at <= now) scratch_.push_back(e);
    if (!scratch_.empty()) {
      late_.erase(std::remove_if(late_.begin(), late_.end(),
                                 [now](const Entry& e) { return e.at <= now; }),
                  late_.end());
    }
    // Walk occupied buckets in cycle order up to `now`; the final sort
    // below merges them with late and overflow entries. All entries in one
    // bucket share the same due cycle (single-cycle buckets plus the wheel
    // horizon invariant).
    for (std::uint64_t c = next_wheel_cycle(); c <= now;
         c = next_wheel_cycle()) {
      std::vector<Entry>& b = buckets_[c & mask_];
      scratch_.insert(scratch_.end(), b.begin(), b.end());
      b.clear();
      clear_bit(c & mask_);
      current_ = c + 1;
      migrate_overflow();
    }
    current_ = std::max(current_, now + 1);
    migrate_overflow();
    // Overflow entries can be due when `now` jumps past the horizon.
    while (!overflow_.empty() && overflow_.top().at <= now) {
      scratch_.push_back(overflow_.top());
      overflow_.pop();
    }
    if (scratch_.size() > 1) {
      std::sort(scratch_.begin(), scratch_.end(),
                [](const Entry& a, const Entry& b) {
                  return a.at != b.at ? a.at < b.at : a.payload < b.payload;
                });
    }
    size_ -= scratch_.size();
    for (const Entry& e : scratch_) fn(e.at, e.payload);
  }

 private:
  struct Entry {
    std::uint64_t at;
    Payload payload;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.payload > b.payload;
    }
  };

  void place(std::uint64_t at, Payload payload) {
    const std::uint64_t b = at & mask_;
    buckets_[b].push_back(Entry{at, payload});
    bitmap_[b >> 6] |= 1ull << (b & 63);
  }

  void clear_bit(std::uint64_t b) { bitmap_[b >> 6] &= ~(1ull << (b & 63)); }

  void migrate_overflow() {
    while (!overflow_.empty() && overflow_.top().at - current_ <= mask_) {
      place(overflow_.top().at, overflow_.top().payload);
      overflow_.pop();
    }
  }

  /// Earliest occupied in-wheel cycle (>= current_), or kNone. Scans the
  /// occupancy bitmap circularly starting at current_'s residue; because
  /// every in-wheel entry lies within [current_, current_ + N), increasing
  /// circular distance is increasing cycle.
  [[nodiscard]] std::uint64_t next_wheel_cycle() const {
    const std::uint64_t words = bitmap_.size();
    const std::uint64_t r = current_ & mask_;
    const std::uint64_t rw = r >> 6;
    const unsigned rb = static_cast<unsigned>(r & 63);
    std::uint64_t w = bitmap_[rw] & (~0ull << rb);
    std::uint64_t k = 0;
    while (w == 0) {
      ++k;
      if (k > words) return kNone;
      w = bitmap_[(rw + k) % words];
      if (k == words && rb != 0) w &= ~(~0ull << rb);
    }
    const std::uint64_t bit =
        (((rw + k) % words) << 6) +
        static_cast<std::uint64_t>(std::countr_zero(w));
    return current_ + ((bit - r) & mask_);
  }

  std::uint64_t mask_;
  std::uint64_t current_ = 0;
  std::size_t size_ = 0;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint64_t> bitmap_;
  std::vector<Entry> late_;
  std::vector<Entry> scratch_;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> overflow_;
};

}  // namespace tc3i::sim
