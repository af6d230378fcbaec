// Wake scheduling for a simulator whose wakes mostly arrive in due order:
// two in-order lanes (FIFO rings whose heads are their earliest entries)
// plus a binary heap for the rest, drained in a min-heap's (cycle, payload)
// order whichever container held a wake. See docs/PERFORMANCE.md.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/contracts.hpp"

namespace tc3i::sim {

template <typename Payload>
class WakeQueue {
 public:
  static constexpr std::uint64_t kNone = ~0ull;  ///< next_due() when empty

  /// `lane_capacity` bounds the entries one lane holds at a time; each lane
  /// is a ring of bit_ceil(lane_capacity + 1) entries that never grows.
  explicit WakeQueue(std::size_t lane_capacity = 0) {
    for (Lane& l : lanes_) {
      l.ring.resize(std::bit_ceil(lane_capacity + 1));
      l.mask = l.ring.size() - 1;
    }
  }

  [[nodiscard]] bool empty() const { return next_due() == kNone; }

  /// Schedules `payload` for cycle `at`, in any order.
  void push(std::uint64_t at, Payload payload) { heap_.push({at, payload}); }

  /// Schedules `payload` for cycle `at` on lane 0 or 1. Successive pushes
  /// to one lane must not decrease `at`; a push that ties the lane's last
  /// cycle is slotted in among the tied entries by payload.
  void push_in_order(std::size_t lane, std::uint64_t at, Payload payload) {
    Lane& l = lanes_[lane];
    TC3I_ASSERT(at >= l.last && l.tail - l.head <= l.mask);
    l.last = at;
    const Entry e{at, payload};
    std::uint64_t i = l.tail++;
    for (; i != l.head && l.slot(i - 1) > e; --i) l.slot(i) = l.slot(i - 1);
    l.slot(i) = e;
  }

  /// Earliest pending due cycle, or kNone when empty.
  [[nodiscard]] std::uint64_t next_due() const {
    std::uint64_t best = heap_.empty() ? kNone : heap_.top().at;
    for (const Lane& l : lanes_)
      if (!l.empty() && l.front().at < best) best = l.front().at;
    return best;
  }

  /// Invokes fn(at, payload) for every entry due at cycle <= now, in
  /// ascending (at, payload) order. fn must not push.
  template <typename Fn>
  void drain_due(std::uint64_t now, Fn&& fn) {
    while (true) {
      Entry e = heap_.empty() ? Entry{kNone, Payload{}} : heap_.top();
      Lane* from = nullptr;  // null: the heap
      for (Lane& l : lanes_) {
        if (!l.empty() && e > l.front()) {
          e = l.front();
          from = &l;
        }
      }
      if (e.at > now) return;
      if (from != nullptr)
        ++from->head;
      else
        heap_.pop();
      fn(e.at, e.payload);
    }
  }

 private:
  struct Entry {
    std::uint64_t at;
    Payload payload;
    bool operator>(const Entry& o) const {
      return at != o.at ? at > o.at : o.payload < payload;
    }
  };
  /// FIFO ring: head and tail count pops and pushes; `index & mask` slots.
  struct Lane {
    std::vector<Entry> ring;
    std::uint64_t mask = 0, head = 0, tail = 0;
    std::uint64_t last = 0;  ///< `at` of the latest push
    [[nodiscard]] bool empty() const { return head == tail; }
    [[nodiscard]] const Entry& front() const { return ring[head & mask]; }
    Entry& slot(std::uint64_t index) { return ring[index & mask]; }
  };

  std::array<Lane, 2> lanes_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

}  // namespace tc3i::sim
