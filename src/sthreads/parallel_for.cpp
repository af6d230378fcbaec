#include "sthreads/parallel_for.hpp"

#include <atomic>

#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::sthreads {

void parallel_for_chunked(
    std::size_t n, int num_chunks, int num_threads,
    const std::function<void(std::size_t, std::size_t, int)>& body) {
  TC3I_EXPECTS(num_chunks > 0);
  TC3I_EXPECTS(num_threads > 0);
  obs::default_registry().counter("sthreads.parallel_for.chunked").add();
  if (num_threads == 1) {
    for (int c = 0; c < num_chunks; ++c) {
      const std::size_t begin = static_cast<std::size_t>(c) * n /
                                static_cast<std::size_t>(num_chunks);
      const std::size_t end = (static_cast<std::size_t>(c) + 1) * n /
                              static_cast<std::size_t>(num_chunks);
      body(begin, end, c);
    }
    return;
  }
  // Chunks are distributed to threads round-robin so num_chunks >
  // num_threads still balances.
  fork_join(num_threads, [&](int t) {
    for (int c = t; c < num_chunks; c += num_threads) {
      const std::size_t begin = static_cast<std::size_t>(c) * n /
                                static_cast<std::size_t>(num_chunks);
      const std::size_t end = (static_cast<std::size_t>(c) + 1) * n /
                              static_cast<std::size_t>(num_chunks);
      body(begin, end, c);
    }
  });
}

void parallel_for_dynamic(
    std::size_t n, int num_threads,
    const std::function<void(std::size_t, int)>& body) {
  TC3I_EXPECTS(num_threads > 0);
  obs::default_registry().counter("sthreads.parallel_for.dynamic").add();
  if (num_threads == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  fork_join(num_threads, [&](int worker) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      body(i, worker);
    }
  });
}

}  // namespace tc3i::sthreads
