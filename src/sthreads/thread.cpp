#include "sthreads/thread.hpp"

#include "core/contracts.hpp"

namespace tc3i::sthreads {

void fork_join(int count, const std::function<void(int)>& fn) {
  TC3I_EXPECTS(count >= 0);
  std::vector<Thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    threads.emplace_back([&fn, i] { fn(i); });
  // Thread destructors join.
}

SyncCounter::SyncCounter(long initial) : value_(initial) {}

SyncCounter::~SyncCounter() {
  if (fetch_adds_ > 0)
    obs::default_registry()
        .counter("sthreads.synccounter.fetch_add")
        .add(fetch_adds_);
}

long SyncCounter::fetch_add(long delta) {
  std::lock_guard<std::mutex> lock(mu_);
  ++fetch_adds_;
  const long previous = value_;
  value_ += delta;
  return previous;
}

long SyncCounter::value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return value_;
}

}  // namespace tc3i::sthreads
