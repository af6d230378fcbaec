// Randomized structural tests of the MTA simulator. Ring pipelines of
// randomly sized streams, and random programs over every instruction the
// machine executes (both deadlock-free by construction), must always
// terminate, deterministically, with conserved instruction counts —
// across random configurations — and the fast path must match the slow
// reference loop on every one of them, sampled timelines included.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "mta/machine.hpp"
#include "obs/counters.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"

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

// --- Random programs ---------------------------------------------------------
//
// A case is a random machine configuration plus a forest of random programs
// over compute runs, loads, stores, sync loads and stores, hardware and
// software spawns, and explicit quits. Programs [0, initial) start at cycle
// 0; every other program is spawned exactly once, by a program with a lower
// index. Full/empty traffic takes three shapes, each deadlock-free even when
// every hardware slot is taken:
//   - lock: sync-load a pre-filled lock cell, run a short critical section
//     of compute, memory and spawn instructions, sync-store the cell. A
//     holder never blocks, so every waiter eventually gets the lock.
//   - private pair: sync-store then sync-load a cell no other stream
//     touches; neither op ever blocks.
//   - channel: one sync-store and one sync-load of an otherwise unused
//     cell, outside any critical section. The producer is an initial
//     program with a lower index than the consumer. Initial streams
//     activate in index order and before any spawned stream, so a blocked
//     consumer's producer has already activated, and it waits only on
//     locks and on lower-indexed producers itself.
// Spawn graphs are trees bounded in depth and size, and an explicit Quit
// may be followed by dead instructions that must never issue.

constexpr Address kLockBase = 0;  // [0, kNumLocks): pre-filled lock cells
constexpr int kNumLocks = 4;
constexpr Address kChannelBase = 64;    // one cell per channel
constexpr Address kPrivateBase = 1024;  // one cell per program
constexpr Address kPlainBase = 2048;    // unsynchronized data
constexpr std::uint64_t kPlainWords = 512;
constexpr int kMaxPrograms = 64;
constexpr int kMaxSpawnDepth = 3;

struct Step {
  Instr instr;
  int target = -1;  ///< Spawn only: index of the spawned program
};
using Block = std::vector<Step>;

struct RandomCase {
  MtaConfig cfg;
  int initial = 0;  ///< programs [0, initial) are added before run()
  /// Per program: its live blocks, then its tail (an explicit Quit plus
  /// dead instructions, or empty for an implicit Quit).
  std::vector<std::vector<Block>> blocks;
  std::vector<Block> tails;
  std::vector<bool> callback;  ///< fetch through CallbackProgram
  std::vector<int> regions;  ///< per program: 0, 1 or 2 (see case_region)
  /// Per program: expected issues, its Quit included.
  std::vector<std::uint64_t> program_instructions;
  std::uint64_t instructions = 0;  ///< their sum
  std::uint64_t sample_period = 1;  ///< timeline grid of the sampled runs
};

Step op(Instr::Op o, std::uint64_t count = 1, Address addr = 0,
        Word value = 0) {
  Step s;
  s.instr.op = o;
  s.instr.count = count;
  s.instr.addr = addr;
  s.instr.value = value;
  return s;
}

class CaseBuilder {
 public:
  explicit CaseBuilder(std::uint64_t seed) : rng_(seed) {}

  RandomCase build() {
    MtaConfig& cfg = c_.cfg;
    cfg.num_processors = 1 + static_cast<int>(rng_.next_below(4));
    cfg.clock_hz = 100e6;
    // Few slots per processor, so spawns and initial streams virtualize.
    cfg.streams_per_processor = 1 + static_cast<int>(rng_.next_below(8));
    // Spacing and latency overlap, so memory wakes due within the spacing
    // window (done <= spacing) occur as well as later ones.
    cfg.issue_spacing_cycles = 1 + static_cast<int>(rng_.next_below(30));
    cfg.memory_latency_cycles = 1 + static_cast<int>(rng_.next_below(150));
    cfg.network_ops_per_cycle = rng_.uniform(0.05, 4.0);
    cfg.lookahead = static_cast<int>(rng_.next_below(4));
    if (rng_.chance(0.5)) {
      cfg.memory_banks = 1 << rng_.next_below(7);
      cfg.hash_addresses = rng_.chance(0.5);
    }
    // 0 makes a spawned stream due in the cycle that spawns it.
    cfg.hw_spawn_cycles = static_cast<int>(rng_.next_below(5));
    cfg.sw_spawn_cycles = static_cast<int>(rng_.next_below(101));
    cfg.memory_words = 4096;

    c_.initial = 1 + static_cast<int>(rng_.next_below(24));
    for (int i = 0; i < c_.initial; ++i) reserve();
    for (int i = 0; i < c_.initial; ++i) fill(i, 0);
    add_channels();
    for (const std::vector<Block>& blocks : c_.blocks) {
      std::uint64_t n = 1;  // the Quit, explicit or implicit
      for (const Block& b : blocks) n += count(b);
      c_.program_instructions.push_back(n);
      c_.instructions += n;
    }
    // Drawn last, so the programs and configuration stay those of the seed.
    c_.sample_period = 1 + rng_.next_below(64);
    return std::move(c_);
  }

 private:
  int reserve() {
    c_.blocks.emplace_back();
    c_.tails.emplace_back();
    c_.callback.push_back(rng_.chance(0.25));
    c_.regions.push_back(static_cast<int>(rng_.next_below(3)));
    return static_cast<int>(c_.blocks.size()) - 1;
  }

  void fill(int id, int depth) {
    std::vector<Block> blocks;
    const int n = 1 + static_cast<int>(rng_.next_below(10));
    for (int k = 0; k < n; ++k) blocks.push_back(block(id, depth));
    Block tail;
    if (rng_.chance(0.3)) {
      tail.push_back(op(Instr::Op::Quit));
      if (rng_.chance(0.5)) tail.push_back(plain());
    }
    const auto i = static_cast<std::size_t>(id);
    c_.blocks[i] = std::move(blocks);
    c_.tails[i] = std::move(tail);
  }

  /// One compute run, load run or store run.
  Step plain() {
    switch (rng_.next_below(3)) {
      case 0:
        return op(Instr::Op::Compute, 1 + rng_.next_below(60));
      case 1:
        return op(Instr::Op::Load, 1 + rng_.next_below(4), data_address());
      default:
        return op(Instr::Op::Store, 1 + rng_.next_below(4), data_address(),
                  rng_.next_below(100));
    }
  }

  Address data_address() {
    return kPlainBase + rng_.next_below(kPlainWords);
  }

  bool can_spawn(int depth) const {
    return depth < kMaxSpawnDepth &&
           static_cast<int>(c_.blocks.size()) < kMaxPrograms;
  }

  Step spawn(int depth) {
    Step s = op(Instr::Op::Spawn);
    s.instr.software_spawn = rng_.chance(0.5);
    s.target = reserve();
    fill(s.target, depth + 1);
    return s;
  }

  Block block(int id, int depth) {
    switch (rng_.next_below(5)) {
      case 0:
      case 1:
        return {plain()};
      case 2:
        if (can_spawn(depth)) return {spawn(depth)};
        return {plain()};
      case 3: {
        const Address lock = kLockBase + rng_.next_below(kNumLocks);
        Block b{op(Instr::Op::SyncLoad, 1, lock)};
        const int n = static_cast<int>(rng_.next_below(4));
        for (int k = 0; k < n; ++k)
          b.push_back(can_spawn(depth) && rng_.chance(0.25) ? spawn(depth)
                                                             : plain());
        b.push_back(op(Instr::Op::SyncStore, 1, lock, rng_.next_below(100)));
        return b;
      }
      default: {
        const Address cell = kPrivateBase + static_cast<Address>(id);
        return {op(Instr::Op::SyncStore, 1, cell, rng_.next_below(100)),
                op(Instr::Op::SyncLoad, 1, cell)};
      }
    }
  }

  /// Inserts `step` as its own block at a random live-block boundary.
  void insert(int id, Step step) {
    auto& blocks = c_.blocks[static_cast<std::size_t>(id)];
    const auto at = static_cast<std::ptrdiff_t>(
        rng_.next_below(blocks.size() + 1));
    blocks.insert(blocks.begin() + at, Block{step});
  }

  void add_channels() {
    Address next = kChannelBase;
    const int programs = static_cast<int>(c_.blocks.size());
    for (int consumer = 1; consumer < programs; ++consumer) {
      const int producers = std::min(consumer, c_.initial);
      const int n = static_cast<int>(rng_.next_below(3));
      for (int k = 0; k < n && next < kPrivateBase; ++k, ++next) {
        const auto producer = static_cast<int>(
            rng_.next_below(static_cast<std::uint64_t>(producers)));
        insert(producer,
               op(Instr::Op::SyncStore, 1, next, rng_.next_below(100)));
        insert(consumer, op(Instr::Op::SyncLoad, 1, next));
      }
    }
  }

  static std::uint64_t count(const Block& b) {
    std::uint64_t n = 0;
    for (const Step& s : b) {
      const Instr::Op o = s.instr.op;
      const bool repeats = o == Instr::Op::Compute || o == Instr::Op::Load ||
                           o == Instr::Op::Store;
      n += repeats ? s.instr.count : 1;
    }
    return n;
  }

  Rng rng_;
  RandomCase c_;
};

/// The region id behind a case's region index 0, 1 or 2.
int case_region(int index) {
  const int ids[] = {0, region_id("fuzz_a"), region_id("fuzz_b")};
  return ids[index];
}

struct RandomOutcome {
  MtaRunResult result;
  std::vector<obs::RunRecord> records;
  std::vector<obs::MetricSnapshot> counters;
  std::string timeline_csv;  ///< sampled runs only
};

/// Builds the case's programs (spawn targets first: a child always has a
/// higher index than its parent) and runs them on a fresh machine under a
/// private counter registry and record store, and when `sampled` under a
/// timeline store on the case's sample period.
RandomOutcome run_case(const RandomCase& c, bool slow_reference,
                       bool sampled = false) {
  obs::CounterRegistry registry;
  obs::RunRecordStore records;
  obs::TimelineStore timeline(c.sample_period);
  RandomOutcome out;
  {
    const obs::ScopedRegistry reg(registry);
    const obs::ScopedRunRecords rec(records);
    std::optional<obs::ScopedTimeline> tl;
    if (sampled) tl.emplace(timeline);
    MtaConfig cfg = c.cfg;
    cfg.slow_reference = slow_reference;
    Machine machine(cfg);
    std::vector<std::unique_ptr<StreamProgram>> programs(c.blocks.size());
    for (std::size_t i = programs.size(); i-- > 0;) {
      std::vector<Instr> instrs;
      for (const Block& b : c.blocks[i]) {
        for (const Step& s : b) {
          instrs.push_back(s.instr);
          if (s.target >= 0)
            instrs.back().spawn =
                programs[static_cast<std::size_t>(s.target)].get();
        }
      }
      for (const Step& s : c.tails[i]) instrs.push_back(s.instr);
      if (c.callback[i]) {
        programs[i] = std::make_unique<CallbackProgram>(
            [instrs = std::move(instrs), pos = std::size_t{0}](
                Instr& next) mutable {
              if (pos >= instrs.size()) return false;
              next = instrs[pos++];
              return true;
            });
      } else {
        programs[i] = std::make_unique<VectorProgram>(std::move(instrs));
      }
      programs[i]->set_region(case_region(c.regions[i]));
    }
    for (int i = 0; i < c.initial; ++i)
      machine.add_stream(programs[static_cast<std::size_t>(i)].get());
    for (int l = 0; l < kNumLocks; ++l)
      machine.memory().store_full(kLockBase + static_cast<Address>(l), 1);
    out.result = machine.run(/*max_cycles=*/1ull << 34);
  }
  out.records = records.records();
  out.counters = registry.snapshot();
  if (sampled) {
    std::ostringstream csv;
    timeline.write_csv(csv);
    out.timeline_csv = csv.str();
  }
  return out;
}

/// The first line where two CSV texts differ, both sides quoted; empty when
/// the texts are equal.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return "";
    if (!more_a || !more_b || la != lb)
      return "line " + std::to_string(line) + ": fast '" + la + "', slow '" +
             lb + "'";
  }
}

/// Requires the run's one RunRecord to roll up exactly the case's programs:
/// per region, one stream per program and the sum of their instruction
/// counts, Quit included.
void expect_regions_match_programs(const RandomCase& c,
                                   const std::vector<obs::RunRecord>& records) {
  ASSERT_EQ(records.size(), 1u);
  // region name -> {streams, instructions}
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> expected;
  for (std::size_t i = 0; i < c.blocks.size(); ++i) {
    auto& e = expected[region_name(case_region(c.regions[i]))];
    ++e.first;
    e.second += c.program_instructions[i];
  }
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> actual;
  for (const obs::RegionRollup& r : records.front().regions)
    actual[r.name] = {r.streams, r.instructions};
  EXPECT_EQ(actual, expected);
}

/// Runs the case drawn from `seed` on both simulation loops and requires
/// identical results, records and counters, plus conserved instruction,
/// spawn and stream counts, in total and per region; then runs it sampled
/// on both loops and requires byte-identical timeline CSVs.
void expect_random_case_matches(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const RandomCase c = CaseBuilder(seed).build();
  const RandomOutcome fast = run_case(c, /*slow_reference=*/false);
  const RandomOutcome slow = run_case(c, /*slow_reference=*/true);
  const MtaRunResult& f = fast.result;
  const MtaRunResult& s = slow.result;
  const auto programs = static_cast<std::uint64_t>(c.blocks.size());
  EXPECT_EQ(f.instructions_issued, c.instructions);
  EXPECT_EQ(f.streams_completed, programs);
  EXPECT_EQ(f.spawns, programs - static_cast<std::uint64_t>(c.initial));
  expect_regions_match_programs(c, fast.records);
  expect_regions_match_programs(c, slow.records);

  EXPECT_EQ(f.cycles, s.cycles);
  EXPECT_EQ(f.instructions_issued, s.instructions_issued);
  EXPECT_EQ(f.memory_ops, s.memory_ops);
  EXPECT_EQ(f.spawns, s.spawns);
  EXPECT_EQ(f.streams_completed, s.streams_completed);
  EXPECT_EQ(f.peak_live_streams, s.peak_live_streams);
  EXPECT_EQ(f.slots, s.slots);
  EXPECT_EQ(f.processor_slots, s.processor_slots);
  EXPECT_TRUE(fast.records == slow.records);
  ASSERT_EQ(fast.counters.size(), slow.counters.size());
  for (std::size_t i = 0; i < fast.counters.size(); ++i) {
    const obs::MetricSnapshot& a = fast.counters[i];
    const obs::MetricSnapshot& b = slow.counters[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.count, b.count) << a.name;
  }

  // Sampling turns run_solo off, so the sampled runs come on top of the
  // unsampled ones above. The ready_streams series counts due wakes in a
  // way of its own on each loop.
  const RandomOutcome fast_tl = run_case(c, /*slow_reference=*/false, true);
  const RandomOutcome slow_tl = run_case(c, /*slow_reference=*/true, true);
  EXPECT_EQ(fast_tl.result.cycles, s.cycles);
  EXPECT_FALSE(fast_tl.timeline_csv.empty());
  EXPECT_EQ(first_difference(fast_tl.timeline_csv, slow_tl.timeline_csv), "");
}

/// 512 seeds in 8 shards, so ctest can spread them over its workers.
constexpr std::uint64_t kSeedsPerShard = 64;

class MtaRandomProgramTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MtaRandomProgramTest, FastPathMatchesSlowReference) {
  const std::uint64_t first = 1 + GetParam() * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed)
    expect_random_case_matches(seed);
}

INSTANTIATE_TEST_SUITE_P(Shards, MtaRandomProgramTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace tc3i::mta
