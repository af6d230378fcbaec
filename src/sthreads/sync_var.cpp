#include "sthreads/sync_var.hpp"

#include "obs/counters.hpp"

namespace tc3i::sthreads {

SyncCounter::SyncCounter(long initial) : value_(initial) {}

long SyncCounter::fetch_add(long delta) {
  static obs::Counter& ops =
      obs::default_registry().counter("sthreads.synccounter.fetch_add");
  ops.add();
  std::lock_guard<std::mutex> lock(mu_);
  const long previous = value_;
  value_ += delta;
  return previous;
}

long SyncCounter::value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return value_;
}

}  // namespace tc3i::sthreads
