#include "host_speed.hpp"

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSteps = 1500000;
constexpr std::size_t kOpBytes = std::size_t{1} << 20;
constexpr std::size_t kRegisters = (std::size_t{256} << 10) / 8;
constexpr auto kReprobeAfter = std::chrono::milliseconds(100);

class Probe {
 public:
  Probe() : ops_(kOpBytes), regs_(kRegisters, 1) {
    std::mt19937_64 rng(3);
    for (std::uint8_t& op : ops_) op = static_cast<std::uint8_t>(rng() & 7);
  }

  double seconds() {
    const auto t0 = Clock::now();
    std::uint64_t acc = regs_[0];
    for (std::size_t i = 0; i < kSteps; ++i) {
      std::uint64_t& r =
          regs_[((acc >> 3) ^ (i * 0x9e3779b1u)) & (kRegisters - 1)];
      switch (ops_[i & (kOpBytes - 1)]) {
        case 0: acc += r; break;
        case 1: acc ^= r << 1; break;
        case 2: r = acc; break;
        case 3: acc *= 3; break;
        case 4: acc = (acc & 1) != 0 ? acc >> 1 : acc + 7; break;
        case 5: r += i; break;
        case 6: acc -= r >> 2; break;
        default: acc = acc * 5 + 1; break;
      }
    }
    regs_[0] = acc;  // keeps the loop's result live
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  std::vector<std::uint8_t> ops_;
  std::vector<std::uint64_t> regs_;
};

Probe& thread_probe() {
  thread_local Probe probe;
  return probe;
}

}  // namespace

double probe_seconds() { return thread_probe().seconds(); }

double speed_factor() {
  thread_local Clock::time_point last{};
  thread_local double factor = 1.0;
  const auto now = Clock::now();
  if (last == Clock::time_point{} || now - last > kReprobeAfter) {
    factor = std::pow(kReferenceProbeSeconds / probe_seconds(), kSensitivity);
    last = Clock::now();
  }
  return factor;
}

}  // namespace perfbench
