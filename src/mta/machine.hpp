// Stream-level simulator of the Tera MTA.
//
// Mechanisms modeled (the ones the paper's MTA results hinge on):
//   - each processor issues at most one instruction per cycle, chosen from
//     its ready streams (FIFO arbitration: the stream due longest, lowest
//     stream id first among streams due in the same cycle);
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
#include <queue>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "mta/processor.hpp"
#include "mta/stream_program.hpp"
#include "mta/sync_memory.hpp"
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

  /// The fields issue(), push_wake() and unpark() read come first, in the
  /// stream's first 64 bytes.
  struct Stream {
    Instr cur;
    VectorProgram* vec = nullptr;  ///< program->as_vector(), fetch fast path
    int proc = -1;
    bool has_cur = false;
    bool dead = false;
    StallReason wait_reason = StallReason::kSpacing;  ///< valid while parked
    std::uint64_t issued = 0;     ///< instructions this stream issued
    StreamProgram* program = nullptr;
    std::uint64_t activated = 0;  ///< cycle activate() ran
    /// Completion cycles of outstanding memory ops, oldest first (lookahead
    /// > 0 only, so it never allocates at lookahead 0; bounded by
    /// lookahead + 1).
    std::vector<std::uint64_t> outstanding;
  };

  /// Per-processor issue-slot account plus the census of parked streams by
  /// stall reason that idle cycles are attributed from.
  struct ProcAcct {
    obs::IssueSlotAccount acct;
    std::array<std::uint32_t, kNumStallReasons> waiting{};
    /// Fast path: the first cycle not yet attributed. The processor has
    /// idled from here to the current cycle under its current census.
    std::uint64_t idle_from = 0;
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

  /// The optional trace sink captured from obs::global_sink() and the
  /// run-record and timeline stores active at construction. The run's
  /// counters are plain tally members, added to obs::default_registry()
  /// once, by name, at the end of run() (finish_run).
  struct Obs {
    obs::TraceSink* sink = nullptr;
    obs::RunRecordStore* records = nullptr;  ///< active_run_records() at ctor
    obs::TimelineStore* timeline = nullptr;  ///< active_timeline() at ctor
    std::uint32_t pid = 0;
  };

  /// Converts a machine cycle to trace microseconds.
  [[nodiscard]] double ts_us(std::uint64_t cycle) const {
    return static_cast<double>(cycle) / config_.clock_hz * 1e6;
  }

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
  /// issue() and push_wake() run once per simulated instruction; both are
  /// inlined into their callers, all in machine.cpp.
  [[gnu::always_inline]] inline void issue(StreamId sid, std::uint64_t now);
  void finish_stream(StreamId sid, std::uint64_t now);
  std::uint64_t network_service(std::uint64_t now, Address addr);
  void complete_memory_op(StreamId sid, std::uint64_t now, Address addr);
  void process_handoffs(std::uint64_t now);
  /// Parks `sid` (census +1 under `why`) and queues its wake for cycle
  /// `at`. On the fast path the wake goes to the stream's processor's
  /// queue keyed in half cycles: 2 x at, plus one when `half_late` (a
  /// stream spawned at no cost in the cycle being scanned, which must
  /// issue after every stream already due and before those due next
  /// cycle, as the reference loop's ready ring orders it).
  [[gnu::always_inline]] inline void push_wake(std::uint64_t at, StreamId sid,
                                               StallReason why,
                                               bool half_late = false);
  /// Parks `sid` with no wake: it waits in memory on a full/empty bit.
  void park_sync(StreamId sid);
  /// Takes `sid` out of its processor's parked-stream census.
  void unpark(StreamId sid);
  /// Fast path: pops p's least wake due at cycle `now` into `sid`, settles
  /// p's idle cycles before `now` and unparks the stream; false when none
  /// is due.
  bool pop_due(Processor& p, std::uint64_t now, StreamId& sid);
  /// Reference path: unparks `sid` into its processor's ready ring.
  void make_stream_ready(StreamId sid);
  /// Attributes `n` idle cycles of processor `proc` to one stall category:
  /// no_stream when the processor has no live streams, otherwise the
  /// highest-priority reason in its parked-stream census
  /// (sync > memory > spawn > spacing).
  void account_idle(int proc, std::uint64_t n);
  /// account_idle over the census plus the solo stream virtually parked
  /// with `solo` (run_solo does not park between fast-forwarded issues).
  void account_solo_idle(int proc, std::uint64_t n, StallReason solo);
  /// Fast path: attributes processor `proc`'s cycles from its idle_from up
  /// to `upto` (exclusive) to account_idle under its current census. The
  /// fast loop attributes idle cycles only here, when the census changes
  /// or the processor issues, not cycle by cycle.
  void settle_idle(int proc, std::uint64_t upto);
  /// Fast path: settles processor `proc` before the issue in progress at
  /// cycle `now` changes its census from another processor (a spawn placed
  /// on it, a hand-off to one of its streams): through `now` when the
  /// reference loop scans `proc` before the issuing processor, which then
  /// sees the old census, else up to `now`.
  void settle_before_foreign_change(int proc, std::uint64_t now);
  /// Timeline sampling (active under a TimelineStore or a trace sink):
  /// called per scanned cycle; emits every complete sample bucket ending at
  /// or before `now` from the deltas accumulated since the previous flush.
  void flush_samples(std::uint64_t now);
  /// Fast path, before flush_samples closes the open bucket: adds the
  /// bucket's ready cycles of the streams still queued whose wakes fell
  /// due inside it or earlier. The fast loop counts a stream's ready
  /// cycles when it pops it (pop_due) instead of counting due wakes every
  /// cycle, so the streams still waiting at a bucket's end count here.
  void count_waiting_ready();
  /// Appends one point per series for the bucket ending at `end`, `width`
  /// cycles wide, and writes each as a trace counter under a sink; then
  /// restarts the accumulation.
  void append_sample(std::uint64_t end, std::uint64_t width);
  /// Emits the trailing partial bucket and hands the run's timeline to the
  /// store, if any.
  void finish_timeline(std::uint64_t now);
  /// Fast-forwards stream `sid` of processor `p`, whose wake was the
  /// machine's only queued one and was popped at `now`, until it issues an
  /// instruction that can wake or create another stream (see
  /// docs/PERFORMANCE.md for the legality argument).
  /// Returns the cycle the generic loop resumes at.
  std::uint64_t run_solo(Processor& p, StreamId sid, std::uint64_t now,
                         std::uint64_t max_cycles);
  /// The reference simulation loop (slow_ only): binary-heap wake queue,
  /// one cycle at a time. Returns the final cycle.
  std::uint64_t run_slow_loop();
  /// The fast simulation loop: each processor issues straight from its own
  /// wake queue, and run_solo fast-forwards a lone stream. Returns the
  /// final cycle.
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
  /// Lanes of each processor's wake queue (fast path): one for kSpacing
  /// wakes, one for kMemory wakes at lookahead 0; the heap takes the rest
  /// (docs/PERFORMANCE.md).
  static constexpr std::size_t kSpacingLane = 0;
  static constexpr std::size_t kMemoryLane = 1;
  /// Wake queue, reference path (slow_ == true only).
  std::priority_queue<Wake, std::vector<Wake>, std::greater<>> heap_;
  std::queue<PendingSpawn> pending_;
  std::uint64_t network_free_fp_ = 0;
  std::uint64_t service_fp_ = 0;  ///< kFpOne / network_ops_per_cycle
  std::vector<std::uint64_t> bank_free_fp_;  // sized memory_banks when enabled
  // Streams activated per kind, and spawns left waiting for a free slot.
  std::uint64_t spawns_hw_ = 0;
  std::uint64_t spawns_sw_ = 0;
  std::uint64_t virtualized_ = 0;
  int free_slots_ = 0;  ///< machine-wide free hardware stream slots
  std::uint64_t queued_ = 0;  ///< wakes in processors' queues, fast path
  int issuer_ = 0;  ///< processor of the issue() in progress
  std::uint64_t ready_count_ = 0;  ///< streams in ready rings, slow path

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

  int live_streams_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t memory_ops_ = 0;
  std::uint64_t spawns_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t peak_live_ = 0;
  // Plain per-class issue tallies.
  std::uint64_t issued_compute_ = 0;
  std::uint64_t issued_memory_ = 0;
  std::uint64_t issued_sync_ = 0;
  std::uint64_t issued_spawn_ = 0;
  std::uint64_t sync_blocks_ = 0;
  std::uint64_t sync_handoffs_ = 0;
  bool ran_ = false;

  // Per-run state set at the start of run(). The loops keep the clock in a
  // local so the hot path holds it in a register.
  std::uint64_t max_cycles_ = 0;  ///< runaway guard (runaway_abort)

  Obs obs_;
};

}  // namespace tc3i::mta
