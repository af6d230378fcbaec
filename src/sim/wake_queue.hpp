// Wake scheduling for a simulator whose wakes mostly arrive in due order:
// two in-order lanes (FIFO rings whose heads are their earliest entries)
// plus a binary heap for the rest, popped in a min-heap's (cycle, payload)
// order whichever container held a wake. The least entry and its container
// are cached, so asking whether anything is due costs one comparison. See
// docs/PERFORMANCE.md.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
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

  [[nodiscard]] bool empty() const { return least_.at == kNone; }

  /// Schedules `payload` for cycle `at`, in any order.
  void push(std::uint64_t at, Payload payload) {
    const Entry e{at, payload};
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    if (least_ > e) {
      least_ = e;
      from_ = kHeap;
    }
  }

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
    if (least_ > e) {  // then e went to the lane's head
      least_ = e;
      from_ = lane;
    }
  }

  /// Earliest pending due cycle, or kNone when empty.
  [[nodiscard]] std::uint64_t next_due() const { return least_.at; }

  /// Pops the least (at, payload) entry into `out` if it is due at cycle
  /// <= now and returns true; otherwise returns false and changes nothing.
  bool pop_due(std::uint64_t now, Payload& out) {
    if (least_.at > now) return false;
    out = least_.payload;
    if (from_ == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.pop_back();
    } else {
      ++lanes_[from_].head;
    }
    least_ = heap_.empty() ? Entry{kNone, Payload{}} : heap_.front();
    from_ = kHeap;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& l = lanes_[i];
      if (!l.empty() && least_ > l.front()) {
        least_ = l.front();
        from_ = i;
      }
    }
    return true;
  }

  /// Invokes fn(at, payload) for every entry due at cycle <= now, in no
  /// particular order, at a cost proportional to their number. fn must not
  /// push or pop.
  template <typename Fn>
  void for_each_due(std::uint64_t now, Fn&& fn) const {
    for (const Lane& l : lanes_) {
      for (std::uint64_t i = l.head; i != l.tail; ++i) {
        const Entry& e = l.ring[i & l.mask];
        if (e.at > now) break;  // a lane is sorted
        fn(e.at, e.payload);
      }
    }
    for_each_heap_due(0, now, fn);
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

  /// for_each_due over the heap subtree rooted at index i: a subtree
  /// whose root is not due holds nothing due.
  template <typename Fn>
  void for_each_heap_due(std::size_t i, std::uint64_t now, Fn& fn) const {
    if (i >= heap_.size() || heap_[i].at > now) return;
    fn(heap_[i].at, heap_[i].payload);
    for_each_heap_due(2 * i + 1, now, fn);
    for_each_heap_due(2 * i + 2, now, fn);
  }

  static constexpr std::size_t kHeap = 2;  ///< from_ when the heap holds it

  std::array<Lane, 2> lanes_;
  std::vector<Entry> heap_;  ///< binary min-heap (std::push_heap order)
  Entry least_{kNone, Payload{}};  ///< the least entry; at == kNone: empty
  std::size_t from_ = kHeap;       ///< the lane holding least_, or kHeap

};

}  // namespace tc3i::sim
