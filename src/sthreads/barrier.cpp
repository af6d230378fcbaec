#include "sthreads/barrier.hpp"

#include "core/contracts.hpp"
#include "obs/counters.hpp"

namespace tc3i::sthreads {

Barrier::Barrier(int parties) : parties_(parties) {
  TC3I_EXPECTS(parties > 0);
}

bool Barrier::arrive_and_wait() {
  static obs::Counter& arrivals =
      obs::default_registry().counter("sthreads.barrier.arrivals");
  static obs::Counter& generations =
      obs::default_registry().counter("sthreads.barrier.generations");
  arrivals.add();
  std::unique_lock<std::mutex> lock(mu_);
  const unsigned long gen = generation_;
  if (++waiting_ == parties_) {
    ++generation_;
    waiting_ = 0;
    generations.add();
    cv_.notify_all();
    return true;
  }
  cv_.wait(lock, [&] { return generation_ != gen; });
  return false;
}

}  // namespace tc3i::sthreads
