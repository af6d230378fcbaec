#include "mta/sync_memory.hpp"

#include "core/contracts.hpp"

namespace tc3i::mta {

SyncMemory::SyncMemory(std::size_t size) {
  TC3I_EXPECTS(size > 0);
  words_.resize(size);
  obs::CounterRegistry& reg = obs::default_registry();
  c_ops_ = &reg.counter("mta.syncmem.ops");
  c_retries_ = &reg.counter("mta.syncmem.failed_attempts");
  c_handoffs_ = &reg.counter("mta.syncmem.handoffs");
}

SyncMemory::Cell& SyncMemory::cell(Address addr) {
  TC3I_EXPECTS(addr < words_.size());
  return words_[addr];
}

Word SyncMemory::load(Address addr) const {
  TC3I_EXPECTS(addr < words_.size());
  return words_[addr].value;
}

void SyncMemory::store(Address addr, Word value) { cell(addr).value = value; }

void SyncMemory::store_full(Address addr, Word value) {
  Cell& c = cell(addr);
  c.value = value;
  c.full = true;
  cascade(addr);
}

void SyncMemory::reset_empty(Address addr) {
  Cell& c = cell(addr);
  const auto lw = load_waiters_.find(addr);
  const auto sw = store_waiters_.find(addr);
  TC3I_EXPECTS((lw == load_waiters_.end() || lw->second.empty()) &&
               (sw == store_waiters_.end() || sw->second.empty()));
  c.full = false;
}

bool SyncMemory::is_full(Address addr) const {
  TC3I_EXPECTS(addr < words_.size());
  return words_[addr].full;
}

SyncAttempt SyncMemory::try_sync_load(Address addr, StreamId stream) {
  Cell& c = cell(addr);
  ++sync_ops_;
  if (c.full) {
    const Word v = c.value;
    c.full = false;
    cascade(addr);
    return SyncAttempt{true, v};
  }
  load_waiters_[addr].push_back(stream);
  ++blocked_count_;
  ++failed_attempts_;
  return SyncAttempt{false, 0};
}

SyncAttempt SyncMemory::try_sync_store(Address addr, Word value,
                                       StreamId stream) {
  Cell& c = cell(addr);
  ++sync_ops_;
  if (!c.full) {
    c.value = value;
    c.full = true;
    cascade(addr);
    return SyncAttempt{true, value};
  }
  store_waiters_[addr].emplace_back(stream, value);
  ++blocked_count_;
  ++failed_attempts_;
  return SyncAttempt{false, 0};
}

void SyncMemory::cascade(Address addr) {
  Cell& c = cell(addr);
  // Alternate hand-offs until no queued operation can proceed. Each queued
  // stream satisfied here is reported through drain_handoffs().
  for (;;) {
    if (c.full) {
      const auto it = load_waiters_.find(addr);
      if (it == load_waiters_.end() || it->second.empty()) return;
      const StreamId s = it->second.front();
      it->second.pop_front();
      --blocked_count_;
      const Word v = c.value;
      c.full = false;
      ++handoffs_total_;
      pending_handoffs_.push_back(Handoff{s, v, true, addr});
    } else {
      const auto it = store_waiters_.find(addr);
      if (it == store_waiters_.end() || it->second.empty()) return;
      const auto [s, v] = it->second.front();
      it->second.pop_front();
      --blocked_count_;
      c.value = v;
      c.full = true;
      ++handoffs_total_;
      pending_handoffs_.push_back(Handoff{s, 0, false, addr});
    }
  }
}

void SyncMemory::flush_counters() {
  c_ops_->add(sync_ops_ - flushed_ops_);
  c_retries_->add(failed_attempts_ - flushed_failed_);
  c_handoffs_->add(handoffs_total_ - flushed_handoffs_);
  flushed_ops_ = sync_ops_;
  flushed_failed_ = failed_attempts_;
  flushed_handoffs_ = handoffs_total_;
}

std::vector<SyncMemory::Handoff> SyncMemory::drain_handoffs() {
  std::vector<Handoff> out;
  out.swap(pending_handoffs_);
  return out;
}

}  // namespace tc3i::mta
