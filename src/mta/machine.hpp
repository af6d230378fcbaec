// Stream-level simulator of the Tera MTA.
//
// Mechanisms modeled (the ones the paper's MTA results hinge on):
//   - each processor issues at most one instruction per cycle, chosen from
//     its ready streams (FIFO arbitration);
//   - a stream that issues cannot issue again for `issue_spacing_cycles`
//     (21 on the MTA-1: the paper's "one instruction every 21 cycles" for a
//     lone stream, i.e. ~5% utilization single-threaded);
//   - there is no cache: every memory operation takes
//     `memory_latency_cycles` and passes through a shared network modeled
//     as a serial queue with service rate `network_ops_per_cycle`
//     (the under-development network the paper blames for the 1.4-1.8x
//     two-processor speedups);
//   - full/empty bits provide one-cycle-issue synchronization; blocked
//     streams wait in memory, consuming no issue slots;
//   - hardware thread creation costs ~2 cycles; software (library) thread
//     creation costs 50-100 cycles;
//   - 128 hardware stream slots per processor; additional runtime-created
//     streams wait (virtualized, as the Tera runtime does) until a slot
//     frees.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "mta/processor.hpp"
#include "mta/stream_program.hpp"
#include "mta/sync_memory.hpp"
#include "obs/counters.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"
#include "sim/wake_queue.hpp"

namespace tc3i::obs {
class TraceSink;
}

namespace tc3i::mta {

struct MtaConfig {
  std::string name = "Tera MTA";
  int num_processors = 1;
  double clock_hz = 255e6;
  int streams_per_processor = 128;
  int issue_spacing_cycles = 21;
  int memory_latency_cycles = 70;
  /// Aggregate memory-network service rate (operations per cycle, shared by
  /// all processors).
  double network_ops_per_cycle = 0.45;
  int hw_spawn_cycles = 2;
  int sw_spawn_cycles = 60;
  /// Explicit-dependence lookahead: how many memory operations a stream
  /// may leave outstanding while continuing to issue. The real MTA
  /// encoded a lookahead of up to 7 in each instruction; 0 models fully
  /// dependent code (each memory op stalls its stream), which is the
  /// conservative default all headline results use. See
  /// bench/ablate_mta_lookahead.
  int lookahead = 0;
  std::size_t memory_words = 1u << 20;
  /// Interleaved memory banks (the MTA-1 had 64-way interleaving). 0
  /// models ideal interleaving (every op hits a distinct bank; the only
  /// memory constraint is the network) — the headline-results default.
  /// When > 0, an op to bank b (selected by address, see hash_addresses)
  /// must wait for the bank's previous op to retire plus
  /// `bank_busy_cycles`.
  int memory_banks = 0;
  int bank_busy_cycles = 8;
  /// The real machine hashed addresses across banks so strided code would
  /// not pathologically conflict; disable to see why (ablation).
  bool hash_addresses = true;
  /// Runs the reference simulation loop (binary-heap wake queue, strictly
  /// one cycle at a time, no compute-run fast-forwarding).
  /// Slower but kept as the golden reference: the fast path must produce
  /// bit-identical cycles/instructions/memory_ops (see
  /// tests/mta_golden_test).
  bool slow_reference = false;

  [[nodiscard]] std::string validate() const;
};

struct MtaRunResult {
  std::uint64_t cycles = 0;
  Seconds seconds = 0.0;
  std::uint64_t instructions_issued = 0;
  std::uint64_t memory_ops = 0;
  std::uint64_t spawns = 0;
  std::uint64_t streams_completed = 0;
  std::uint64_t peak_live_streams = 0;
  /// Issue slots used / issue slots available over the run.
  double processor_utilization = 0.0;
  /// Fraction of the shared network's service capacity consumed.
  double network_utilization = 0.0;
  /// Exhaustive, exclusive issue-slot account summed over processors:
  /// slots.total() == cycles x num_processors, always (both simulation
  /// paths produce bit-identical accounts; see docs/OBSERVABILITY.md).
  obs::IssueSlotAccount slots;
  /// The same account split per processor (each totals `cycles`).
  std::vector<obs::IssueSlotAccount> processor_slots;
};

class Machine {
 public:
  explicit Machine(MtaConfig config);

  [[nodiscard]] const MtaConfig& config() const { return config_; }
  [[nodiscard]] SyncMemory& memory() { return memory_; }
  [[nodiscard]] const SyncMemory& memory() const { return memory_; }

  /// Registers a stream to start at cycle 0 (assigned to the least-loaded
  /// processor). Call before run().
  void add_stream(StreamProgram* program);

  /// Runs until all streams have quit. Aborts (deadlock) if streams remain
  /// but none can ever become ready. `max_cycles` is a runaway guard.
  MtaRunResult run(std::uint64_t max_cycles = (1ull << 62));

 private:
  /// Why a parked stream is not ready. Mirrors the stall categories of
  /// obs::IssueSlotAccount; kept per stream (wait_reason) and as a per-
  /// processor census (ProcAcct::waiting) so every idle issue slot can be
  /// attributed to exactly one category.
  enum class StallReason : std::uint8_t {
    kSpacing = 0,  ///< inside the 21-cycle issue spacing / lookahead window
    kSpawn = 1,    ///< paying stream-creation cost
    kMemory = 2,   ///< waiting on the memory network past the spacing window
    kSync = 3,     ///< blocked on a full/empty bit (incl. post-hand-off trip)
  };
  static constexpr std::size_t kNumStallReasons = 4;

  struct Stream {
    StreamProgram* program = nullptr;
    VectorProgram* vec = nullptr;  ///< program->as_vector(), fetch fast path
    int proc = -1;
    Instr cur;
    bool has_cur = false;
    bool dead = false;
    StallReason wait_reason = StallReason::kSpacing;  ///< valid while parked
    std::uint64_t issued = 0;     ///< instructions this stream issued
    std::uint64_t activated = 0;  ///< cycle activate() ran
    /// Completion cycles of outstanding memory ops (lookahead > 0 only;
    /// monotonically increasing, bounded by lookahead + 1).
    std::deque<std::uint64_t> outstanding;
  };

  /// Per-processor issue-slot account plus the census of parked streams by
  /// stall reason that idle cycles are attributed from.
  struct ProcAcct {
    obs::IssueSlotAccount acct;
    std::array<std::uint32_t, kNumStallReasons> waiting{};
  };

  /// Per-region tallies accumulated at stream completion (index = region
  /// id; names resolved through region_name() when published).
  struct RegionTally {
    std::uint64_t streams = 0;
    std::uint64_t instructions = 0;
    std::uint64_t stream_cycles = 0;
  };

  struct Wake {
    std::uint64_t cycle;
    StreamId stream;
    bool operator>(const Wake& o) const {
      return cycle != o.cycle ? cycle > o.cycle : stream > o.stream;
    }
  };

  struct PendingSpawn {
    StreamProgram* program;
    bool software;
  };

  /// Always-on counters (obs::default_registry(), "mta." prefix) plus the
  /// optional trace sink captured from obs::global_sink() at construction.
  /// Per-instruction paths only bump plain tally members; the registry
  /// counters are published once at the end of run() so instrumentation
  /// costs nothing in the issue loop.
  struct Obs {
    obs::Counter* issue_total = nullptr;
    obs::Counter* issue_compute = nullptr;
    obs::Counter* issue_memory = nullptr;
    obs::Counter* issue_sync = nullptr;
    obs::Counter* issue_spawn = nullptr;
    obs::Counter* network_ops = nullptr;
    obs::Counter* sync_blocks = nullptr;
    obs::Counter* sync_handoffs = nullptr;
    obs::Counter* spawns_hw = nullptr;
    obs::Counter* spawns_sw = nullptr;
    obs::Counter* spawns_virtualized = nullptr;
    obs::Counter* streams_completed = nullptr;
    obs::Counter* runs = nullptr;
    obs::Counter* slot_used = nullptr;
    obs::Counter* slot_no_stream = nullptr;
    obs::Counter* slot_spacing = nullptr;
    obs::Counter* slot_spawn = nullptr;
    obs::Counter* slot_memory = nullptr;
    obs::Counter* slot_sync = nullptr;
    obs::Gauge* peak_live = nullptr;
    obs::Histogram* run_utilization = nullptr;
    obs::Histogram* run_wall_seconds = nullptr;
    obs::Histogram* stream_instructions = nullptr;
    /// The registry the metric pointers above resolve into; the end of
    /// run() publishes the dynamically named per-region counters there too.
    obs::CounterRegistry* registry = nullptr;
    obs::TraceSink* sink = nullptr;
    obs::RunRecordStore* records = nullptr;  ///< active_run_records() at ctor
    obs::TimelineStore* timeline = nullptr;  ///< active_timeline() at ctor
    std::uint32_t pid = 0;
  };

  /// Converts a machine cycle to trace microseconds.
  [[nodiscard]] double ts_us(std::uint64_t cycle) const {
    return static_cast<double>(cycle) / config_.clock_hz * 1e6;
  }

  /// O(1) least-loaded-processor selection: processors indexed by live
  /// stream count, lowest processor id breaking ties (matching the linear
  /// scan it replaced). Loads change by +-1 on activate/finish.
  class LoadTracker {
   public:
    void init(int num_procs, int max_load) {
      loads_.assign(static_cast<std::size_t>(num_procs), 0);
      by_load_.assign(static_cast<std::size_t>(max_load) + 1, {});
      for (int p = 0; p < num_procs; ++p) by_load_[0].insert(p);
      min_load_ = 0;
    }
    [[nodiscard]] int least_loaded() const {
      return *by_load_[static_cast<std::size_t>(min_load_)].begin();
    }
    void change(int proc, int delta) {
      int& load = loads_[static_cast<std::size_t>(proc)];
      by_load_[static_cast<std::size_t>(load)].erase(proc);
      load += delta;
      by_load_[static_cast<std::size_t>(load)].insert(proc);
      if (load < min_load_) {
        min_load_ = load;
      } else {
        while (by_load_[static_cast<std::size_t>(min_load_)].empty())
          ++min_load_;
      }
    }

   private:
    std::vector<int> loads_;
    std::vector<std::set<int>> by_load_;
    int min_load_ = 0;
  };

  /// Loads the stream's next instruction into `cur` (implicit Quit at end
  /// of program), dispatching directly when the program is a
  /// VectorProgram.
  void fetch_next(Stream& s) {
    const bool more = s.vec != nullptr ? s.vec->VectorProgram::next(s.cur)
                                       : s.program->next(s.cur);
    if (!more) {
      s.cur.op = Instr::Op::Quit;
      s.cur.count = 1;
    }
    s.has_cur = true;
  }

  void activate(StreamProgram* program, bool software, std::uint64_t now);
  void issue(StreamId sid, std::uint64_t now);
  void finish_stream(StreamId sid, std::uint64_t now);
  std::uint64_t network_service(std::uint64_t now, Address addr);
  void complete_memory_op(StreamId sid, std::uint64_t now, Address addr);
  void process_handoffs(std::uint64_t now);
  /// Parks `sid` (census +1 under `why`) and queues its wake.
  void push_wake(std::uint64_t at, StreamId sid, StallReason why);
  /// Parks `sid` with no wake: it waits in memory on a full/empty bit.
  void park_sync(StreamId sid);
  void make_stream_ready(StreamId sid);
  /// Attributes `n` idle cycles of processor `proc` to one stall category:
  /// no_stream when the processor has no live streams, otherwise the
  /// highest-priority reason in its parked-stream census
  /// (sync > memory > spawn > spacing).
  void account_idle(int proc, std::uint64_t n);
  /// account_idle over the census plus the solo stream virtually parked
  /// with `solo` (run_solo does not park between fast-forwarded issues).
  void account_solo_idle(int proc, std::uint64_t n, StallReason solo);
  /// Timeline sampling (active under a TimelineStore or a trace sink):
  /// called per scanned cycle; emits every complete sample bucket ending at
  /// or before `now` from the deltas accumulated since the previous flush.
  void flush_samples(std::uint64_t now);
  /// Appends one point per series for the bucket ending at `end`, `width`
  /// cycles wide, and writes each as a trace counter under a sink; then
  /// restarts the accumulation.
  void append_sample(std::uint64_t end, std::uint64_t width);
  /// Emits the trailing partial bucket and hands the run's timeline to the
  /// store, if any.
  void finish_timeline(std::uint64_t now);
  /// Fast-forwards the machine while exactly one stream is ready
  /// machine-wide (see docs/PERFORMANCE.md for the legality argument).
  /// Returns the cycle the generic loop resumes at.
  std::uint64_t run_solo(std::uint64_t now, std::uint64_t max_cycles);
  /// The reference simulation loop (slow_ only): binary-heap wake queue,
  /// one cycle at a time. Returns the final cycle.
  std::uint64_t run_slow_loop();
  /// The fast simulation loop: in-order wake lanes, run_solo
  /// fast-forwarding and issue-window batching. Returns the final cycle.
  std::uint64_t run_fast_loop();
  /// Finalizes a completed run at cycle `now`: slot-account invariants,
  /// counter publication, RunRecord emission.
  MtaRunResult finish_run(std::uint64_t now);
  /// Trips the `max_cycles` runaway guard: dumps the cycle, live/pending
  /// stream totals, and the per-category parked-stream census to stderr
  /// (so a deadlocked large scenario is diagnosable from the abort alone),
  /// then aborts via contract_failure.
  [[noreturn]] void runaway_abort(std::uint64_t now) const;

  /// Fixed-point cycle representation for the shared-network and bank
  /// service times (replaces double/ceil in the hottest path). 20
  /// fractional bits leave 44 integer bits of simulated cycles.
  static constexpr unsigned kFpBits = 20;
  static constexpr std::uint64_t kFpOne = 1ull << kFpBits;

  MtaConfig config_;
  bool slow_ = false;  ///< config_.slow_reference
  SyncMemory memory_;
  std::vector<Processor> procs_;
  std::vector<Stream> streams_;
  /// Wake queue, fast path: one lane for kSpacing wakes, one for kMemory
  /// wakes at lookahead 0, the heap for the rest (docs/PERFORMANCE.md).
  sim::WakeQueue<StreamId> wakes_;
  static constexpr std::size_t kSpacingLane = 0;
  static constexpr std::size_t kMemoryLane = 1;
  /// Wake queue, reference path (slow_ == true only).
  std::priority_queue<Wake, std::vector<Wake>, std::greater<>> heap_;
  std::queue<PendingSpawn> pending_;
  std::uint64_t network_free_fp_ = 0;
  std::uint64_t service_fp_ = 0;  ///< kFpOne / network_ops_per_cycle
  std::vector<std::uint64_t> bank_free_fp_;  // sized memory_banks when enabled
  LoadTracker load_tracker_;
  int free_slots_ = 0;  ///< machine-wide free hardware stream slots
  std::uint64_t ready_count_ = 0;  ///< streams in ready queues, fast path
  /// Earliest heap wake pushed during the current issue cycle (fast path);
  /// run()'s window batching uses it to end a drain-free window early when
  /// a spawn schedules a wake inside it (lane wakes land past the window).
  std::uint64_t pushed_min_ = ~0ull;

  std::vector<ProcAcct> acct_;  // sized num_processors
  std::vector<RegionTally> region_tallies_;

  // Timeline sampling state (sample_period_ == 0 when inactive). Samples
  // are a pure function of simulated cycles, so the exported series and
  // the trace counters drawn from them are identical for the fast and slow
  // paths and at any --jobs.
  std::uint64_t sample_period_ = 0;
  std::uint64_t sample_next_ = 0;
  std::uint64_t sample_ready_sum_ = 0;
  std::uint64_t sample_last_issues_ = 0;
  std::uint64_t sample_last_mem_ = 0;
  std::vector<obs::TimelinePoint> tl_util_;
  std::vector<obs::TimelinePoint> tl_ready_;
  std::vector<obs::TimelinePoint> tl_net_;

  Obs obs_;
  int live_streams_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t memory_ops_ = 0;
  std::uint64_t spawns_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t peak_live_ = 0;
  // Plain per-class issue tallies, published to the registry at run() end.
  std::uint64_t issued_compute_ = 0;
  std::uint64_t issued_memory_ = 0;
  std::uint64_t issued_sync_ = 0;
  std::uint64_t issued_spawn_ = 0;
  std::uint64_t sync_blocks_ = 0;
  std::uint64_t sync_handoffs_ = 0;
  bool ran_ = false;

  // Per-run state set at the start of run(). The loops keep the clock in a
  // local so the hot path holds it in a register.
  std::uint64_t max_cycles_ = 0;    ///< runaway guard (runaway_abort)
  std::uint64_t run_start_ns_ = 0;  ///< wall clock for mta.run.wall_seconds
};

}  // namespace tc3i::mta
