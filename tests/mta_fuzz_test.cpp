// Randomized structural tests of the MTA simulator: ring pipelines of
// randomly sized streams (deadlock-free by construction) must always
// terminate, deterministically, with conserved instruction counts —
// across random configurations — and the fast path must match the slow
// reference loop on every one of them.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "mta/machine.hpp"

namespace tc3i::mta {
namespace {

struct FuzzResult {
  std::uint64_t cycles;
  std::uint64_t instructions;
  std::uint64_t memory_ops;
  std::uint64_t completed;
  obs::IssueSlotAccount slots;
};

/// Builds a ring pipeline: stream i sync-loads cell i-1, does random local
/// work, then sync-stores cell i. Cell N-1 is pre-filled, so the chain
/// always makes progress; every cell sees exactly one store and one load.
/// `slow_reference` selects the simulation loop; the configuration and
/// program drawn from `seed` are the same either way.
FuzzResult run_ring(std::uint64_t seed, bool slow_reference = false) {
  Rng rng(seed);
  MtaConfig cfg;
  cfg.num_processors = 1 + static_cast<int>(rng.next_below(3));
  cfg.clock_hz = 100e6;
  cfg.streams_per_processor = 4 + static_cast<int>(rng.next_below(125));
  cfg.issue_spacing_cycles = 1 + static_cast<int>(rng.next_below(30));
  cfg.memory_latency_cycles = 1 + static_cast<int>(rng.next_below(150));
  cfg.network_ops_per_cycle = rng.uniform(0.05, 4.0);
  cfg.lookahead = static_cast<int>(rng.next_below(4));
  if (rng.chance(0.5)) {
    cfg.memory_banks = 1 << rng.next_below(7);
    cfg.hash_addresses = rng.chance(0.5);
  }
  cfg.memory_words = 1u << 12;
  cfg.slow_reference = slow_reference;
  Machine machine(cfg);

  const int n = 2 + static_cast<int>(rng.next_below(40));
  ProgramPool pool;
  std::uint64_t expected_instr = 0;
  for (int i = 0; i < n; ++i) {
    VectorProgram* p = pool.make_vector();
    p->sync_load(static_cast<Address>((i + n - 1) % n));
    ++expected_instr;
    const int segments = 1 + static_cast<int>(rng.next_below(5));
    for (int seg = 0; seg < segments; ++seg) {
      const std::uint64_t alu = 1 + rng.next_below(40);
      const std::uint64_t mem = rng.next_below(8);
      p->compute(alu);
      p->load(100 + rng.next_below(1000), mem);
      expected_instr += alu + mem;
    }
    p->sync_store(static_cast<Address>(i));
    ++expected_instr;
    machine.add_stream(p);
  }
  expected_instr += static_cast<std::uint64_t>(n);  // one Quit per stream
  machine.memory().store_full(static_cast<Address>(n - 1), 1);

  const auto result = machine.run(/*max_cycles=*/1ull << 34);
  FuzzResult out{result.cycles, result.instructions_issued, result.memory_ops,
                 result.streams_completed, result.slots};
  EXPECT_EQ(result.instructions_issued, expected_instr) << "seed " << seed;
  EXPECT_EQ(result.streams_completed, static_cast<std::uint64_t>(n));
  return out;
}

class MtaFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MtaFuzzTest, RingPipelineTerminatesDeterministically) {
  const FuzzResult a = run_ring(GetParam());
  const FuzzResult b = run_ring(GetParam());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.memory_ops, b.memory_ops);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_GT(a.cycles, 0u);
}

TEST_P(MtaFuzzTest, FastPathMatchesSlowReference) {
  const FuzzResult fast = run_ring(GetParam(), /*slow_reference=*/false);
  const FuzzResult slow = run_ring(GetParam(), /*slow_reference=*/true);
  EXPECT_EQ(fast.cycles, slow.cycles);
  EXPECT_EQ(fast.instructions, slow.instructions);
  EXPECT_EQ(fast.memory_ops, slow.memory_ops);
  EXPECT_EQ(fast.slots.used, slow.slots.used);
  EXPECT_EQ(fast.slots.no_stream, slow.slots.no_stream);
  EXPECT_EQ(fast.slots.spacing, slow.slots.spacing);
  EXPECT_EQ(fast.slots.spawn, slow.slots.spawn);
  EXPECT_EQ(fast.slots.memory, slow.slots.memory);
  EXPECT_EQ(fast.slots.sync, slow.slots.sync);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtaFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MtaFuzz, RingEndsWithEveryCellConsumedButLast) {
  // Deterministic small instance to pin the final memory state: each cell
  // is stored once and loaded once; the chain ends with exactly one FULL
  // cell (the last store whose consumer already ran before it — i.e. the
  // pre-filled seed's slot refilled by stream n-1).
  MtaConfig cfg;
  cfg.memory_words = 64;
  Machine machine(cfg);
  ProgramPool pool;
  constexpr int n = 5;
  for (int i = 0; i < n; ++i) {
    VectorProgram* p = pool.make_vector();
    p->sync_load(static_cast<Address>((i + n - 1) % n));
    p->compute(10);
    p->sync_store(static_cast<Address>(i));
    machine.add_stream(p);
  }
  machine.memory().store_full(n - 1, 7);
  machine.run();
  int full = 0;
  for (Address a = 0; a < n; ++a)
    if (machine.memory().is_full(a)) ++full;
  EXPECT_EQ(full, 1);
  EXPECT_TRUE(machine.memory().is_full(n - 1));
}

}  // namespace
}  // namespace tc3i::mta
