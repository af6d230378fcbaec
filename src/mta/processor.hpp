// Per-processor state of the MTA machine simulator: the pool of hardware
// stream slots, the queues its streams wait in until they issue one
// instruction per clock cycle, and its issue tally. The fast loop issues
// straight from the processor's wake queue; the reference loop drains its
// machine-wide wake heap into the processor's FIFO ready ring.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/contracts.hpp"
#include "mta/sync_memory.hpp"
#include "sim/wake_queue.hpp"

namespace tc3i::mta {

class Processor {
 public:
  Processor(int id, int hw_stream_slots)
      : id_(id), slots_(hw_stream_slots) {
    TC3I_EXPECTS(hw_stream_slots > 0);
    // A stream occupies at most one ring entry and has at most one wake
    // pending, and at most `slots_` streams are live: the ring
    // (slots_ + 1 rounded up to a power of two) and each wake lane (slots_
    // entries) can never overflow.
    ring_.resize(std::bit_ceil(static_cast<std::size_t>(slots_) + 1));
    ring_mask_ = static_cast<std::uint32_t>(ring_.size() - 1);
    wakes_ = sim::WakeQueue<StreamId>(static_cast<std::size_t>(slots_));
  }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int hw_slots() const { return slots_; }
  [[nodiscard]] int live_streams() const { return live_; }
  [[nodiscard]] bool has_free_slot() const { return live_ < slots_; }
  [[nodiscard]] bool has_ready() const { return head_ != tail_; }
  [[nodiscard]] std::size_t ready_count() const { return tail_ - head_; }
  [[nodiscard]] std::uint64_t issues() const { return issues_; }

  /// Wakes of this processor's parked streams, fast loop only. Its keys
  /// are half cycles (see Machine::push_wake), and the least due entry is
  /// the stream the processor issues next.
  [[nodiscard]] sim::WakeQueue<StreamId>& wakes() { return wakes_; }
  [[nodiscard]] const sim::WakeQueue<StreamId>& wakes() const {
    return wakes_;
  }

  /// A stream occupies a hardware slot from activation until it quits.
  void occupy_slot() {
    TC3I_EXPECTS(has_free_slot());
    ++live_;
  }
  void release_slot() {
    TC3I_EXPECTS(live_ > 0);
    --live_;
  }

  /// Reference loop: appends a stream whose wake fell due to the ready ring.
  void make_ready(StreamId stream) { ring_[tail_++ & ring_mask_] = stream; }

  /// Reference loop: pops the next stream to issue (FIFO arbitration,
  /// which matches the MTA's fair selection among ready streams closely
  /// enough for throughput behaviour) and counts the issue.
  StreamId pop_ready() {
    TC3I_EXPECTS(has_ready());
    ++issues_;
    return ring_[head_++ & ring_mask_];
  }

  /// Counts `n` issued instructions: the fast loop's issues, and the ones
  /// its compute-run fast-forward retires analytically.
  void add_issues(std::uint64_t n) { issues_ += n; }

 private:
  int id_;
  int slots_;
  int live_ = 0;
  std::uint64_t issues_ = 0;
  sim::WakeQueue<StreamId> wakes_;
  std::vector<StreamId> ring_;  ///< FIFO ready queue (power-of-two ring)
  std::uint32_t ring_mask_ = 0;
  std::uint32_t head_ = 0;  ///< indices wrap modulo ring size; head <= tail
  std::uint32_t tail_ = 0;
};

}  // namespace tc3i::mta
