#include "mta/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "obs/trace_sink.hpp"

namespace tc3i::mta {

std::string MtaConfig::validate() const {
  std::ostringstream os;
  if (num_processors < 1) os << "num_processors < 1; ";
  if (clock_hz <= 0.0) os << "clock_hz <= 0; ";
  if (streams_per_processor < 1) os << "streams_per_processor < 1; ";
  if (issue_spacing_cycles < 1) os << "issue_spacing_cycles < 1; ";
  if (memory_latency_cycles < 1) os << "memory_latency_cycles < 1; ";
  if (network_ops_per_cycle <= 0.0) os << "network_ops_per_cycle <= 0; ";
  if (hw_spawn_cycles < 0) os << "hw_spawn_cycles < 0; ";
  if (sw_spawn_cycles < 0) os << "sw_spawn_cycles < 0; ";
  if (lookahead < 0) os << "lookahead < 0; ";
  if (memory_banks < 0) os << "memory_banks < 0; ";
  if (memory_banks > 0 && bank_busy_cycles < 1)
    os << "bank_busy_cycles < 1 with banks enabled; ";
  if (memory_words == 0) os << "memory_words == 0; ";
  return os.str();
}

Machine::Machine(MtaConfig config)
    : config_(std::move(config)), memory_(config_.memory_words) {
  const std::string err = config_.validate();
  if (!err.empty())
    contract_failure("MtaConfig", err.c_str(), __FILE__, __LINE__);
  slow_ = config_.slow_reference;
  procs_.reserve(static_cast<std::size_t>(config_.num_processors));
  for (int p = 0; p < config_.num_processors; ++p)
    procs_.emplace_back(p, config_.streams_per_processor);
  if (config_.memory_banks > 0)
    bank_free_fp_.resize(static_cast<std::size_t>(config_.memory_banks), 0);
  // Round-to-nearest keeps the fixed-point service interval within 2^-21
  // cycles of 1/rate; the drift over a saturated run is far below one part
  // in 10^6 of the cycle count.
  service_fp_ = static_cast<std::uint64_t>(
      std::llround(std::ldexp(1.0 / config_.network_ops_per_cycle, kFpBits)));
  TC3I_ASSERT(service_fp_ >= 1);
  load_tracker_.init(config_.num_processors, config_.streams_per_processor);
  free_slots_ = config_.num_processors * config_.streams_per_processor;
  if (!slow_)  // a lane holds at most one wake per hardware stream slot
    wakes_ = sim::WakeQueue<StreamId>(static_cast<std::size_t>(free_slots_));
  acct_.resize(static_cast<std::size_t>(config_.num_processors));

  obs::CounterRegistry& reg = obs::default_registry();
  obs_.issue_total = &reg.counter("mta.issue.total");
  obs_.issue_compute = &reg.counter("mta.issue.compute");
  obs_.issue_memory = &reg.counter("mta.issue.memory");
  obs_.issue_sync = &reg.counter("mta.issue.sync");
  obs_.issue_spawn = &reg.counter("mta.issue.spawn");
  obs_.network_ops = &reg.counter("mta.memory.network_ops");
  obs_.sync_blocks = &reg.counter("mta.sync.blocks");
  obs_.sync_handoffs = &reg.counter("mta.sync.handoffs");
  obs_.spawns_hw = &reg.counter("mta.spawn.hardware");
  obs_.spawns_sw = &reg.counter("mta.spawn.software");
  obs_.spawns_virtualized = &reg.counter("mta.spawn.virtualized");
  obs_.streams_completed = &reg.counter("mta.streams.completed");
  obs_.runs = &reg.counter("mta.runs");
  obs_.slot_used = &reg.counter("mta.slot.used");
  obs_.slot_no_stream = &reg.counter("mta.slot.no_stream");
  obs_.slot_spacing = &reg.counter("mta.slot.spacing");
  obs_.slot_spawn = &reg.counter("mta.slot.spawn");
  obs_.slot_memory = &reg.counter("mta.slot.memory");
  obs_.slot_sync = &reg.counter("mta.slot.sync");
  obs_.peak_live = &reg.gauge("mta.streams.peak_live");
  obs_.run_utilization = &reg.histogram("mta.run.processor_utilization");
  obs_.run_wall_seconds = &reg.histogram("mta.run.wall_seconds");
  obs_.stream_instructions = &reg.histogram("mta.stream.instructions");
  obs_.registry = &reg;
  obs_.sink = obs::global_sink();
  if (obs_.sink != nullptr)
    obs_.pid = obs_.sink->register_track(config_.name);
  obs_.records = obs::active_run_records();
  obs_.timeline = obs::active_timeline();
  // The sampled series is the trace's counter source too, so a traced run
  // samples even without a store.
  if (obs_.timeline != nullptr)
    sample_period_ = obs_.timeline->sample_period_cycles();
  else if (obs_.sink != nullptr)
    sample_period_ = obs::kDefaultSamplePeriodCycles;
  sample_next_ = sample_period_;
}

void Machine::push_wake(std::uint64_t at, StreamId sid, StallReason why) {
  Stream& s = streams_[static_cast<std::size_t>(sid)];
  s.wait_reason = why;
  ++acct_[static_cast<std::size_t>(s.proc)]
        .waiting[static_cast<std::size_t>(why)];
  if (slow_) {
    heap_.push(Wake{at, sid});
  } else if (why == StallReason::kSpacing) {
    wakes_.push_in_order(kSpacingLane, at, sid);
  } else if (why == StallReason::kMemory && config_.lookahead == 0) {
    wakes_.push_in_order(kMemoryLane, at, sid);
  } else {
    if (at < pushed_min_) pushed_min_ = at;
    wakes_.push(at, sid);
  }
}

void Machine::park_sync(StreamId sid) {
  Stream& s = streams_[static_cast<std::size_t>(sid)];
  s.wait_reason = StallReason::kSync;
  ++acct_[static_cast<std::size_t>(s.proc)]
        .waiting[static_cast<std::size_t>(StallReason::kSync)];
}

void Machine::runaway_abort(std::uint64_t now) const {
  std::array<std::uint64_t, kNumStallReasons> waiting{};
  for (const ProcAcct& a : acct_)
    for (std::size_t r = 0; r < kNumStallReasons; ++r)
      waiting[r] += a.waiting[r];
  std::fprintf(
      stderr,
      "[mta] runaway guard: cycle %llu reached max_cycles %llu with "
      "%d live streams (%zu virtualized pending); parked by reason: "
      "spacing=%llu spawn=%llu memory=%llu sync=%llu\n",
      (unsigned long long)now, (unsigned long long)max_cycles_, live_streams_,
      pending_.size(),
      (unsigned long long)waiting[static_cast<std::size_t>(
          StallReason::kSpacing)],
      (unsigned long long)waiting[static_cast<std::size_t>(
          StallReason::kSpawn)],
      (unsigned long long)waiting[static_cast<std::size_t>(
          StallReason::kMemory)],
      (unsigned long long)waiting[static_cast<std::size_t>(
          StallReason::kSync)]);
  contract_failure("Machine::run", "now < max_cycles", __FILE__, __LINE__);
}

void Machine::make_stream_ready(StreamId sid) {
  const Stream& s = streams_[static_cast<std::size_t>(sid)];
  --acct_[static_cast<std::size_t>(s.proc)]
        .waiting[static_cast<std::size_t>(s.wait_reason)];
  procs_[static_cast<std::size_t>(s.proc)].make_ready(sid);
  ++ready_count_;
}

void Machine::account_idle(int proc, std::uint64_t n) {
  ProcAcct& a = acct_[static_cast<std::size_t>(proc)];
  if (procs_[static_cast<std::size_t>(proc)].live_streams() == 0) {
    a.acct.no_stream += n;
    return;
  }
  // Every live stream on an idle processor is parked; name the slot after
  // the highest-priority reason present.
  if (a.waiting[static_cast<std::size_t>(StallReason::kSync)] > 0)
    a.acct.sync += n;
  else if (a.waiting[static_cast<std::size_t>(StallReason::kMemory)] > 0)
    a.acct.memory += n;
  else if (a.waiting[static_cast<std::size_t>(StallReason::kSpawn)] > 0)
    a.acct.spawn += n;
  else
    a.acct.spacing += n;
}

void Machine::account_solo_idle(int proc, std::uint64_t n, StallReason solo) {
  if (n == 0) return;
  ProcAcct& a = acct_[static_cast<std::size_t>(proc)];
  if (a.waiting[static_cast<std::size_t>(StallReason::kSync)] > 0)
    a.acct.sync += n;
  else if (a.waiting[static_cast<std::size_t>(StallReason::kMemory)] > 0 ||
           solo == StallReason::kMemory)
    a.acct.memory += n;
  else if (a.waiting[static_cast<std::size_t>(StallReason::kSpawn)] > 0)
    a.acct.spawn += n;
  else
    a.acct.spacing += n;
}

void Machine::add_stream(StreamProgram* program) {
  TC3I_EXPECTS(program != nullptr);
  TC3I_EXPECTS(!ran_);
  // Initial streams that exceed hardware slots are virtualized like
  // runtime spawns: they wait for a slot.
  if (free_slots_ == 0) {
    obs_.spawns_virtualized->add();
    // Blocking on the hardware stream resource is a synchronization wait:
    // the spawn parks until a running stream quits and frees its slot.
    if (obs_.sink != nullptr)
      obs_.sink->instant(obs::Category::Sync, "stream_virtualized", 0.0,
                         obs_.pid, static_cast<std::uint64_t>(pending_.size()));
    pending_.push(PendingSpawn{program, false});
    return;
  }
  activate(program, /*software=*/false, /*now=*/0);
}

void Machine::activate(StreamProgram* program, bool software,
                       std::uint64_t now) {
  TC3I_ASSERT(free_slots_ > 0);
  const int proc = load_tracker_.least_loaded();
  Processor& p = procs_[static_cast<std::size_t>(proc)];
  TC3I_ASSERT(p.has_free_slot());
  p.occupy_slot();
  load_tracker_.change(proc, +1);
  --free_slots_;

  const auto sid = static_cast<StreamId>(streams_.size());
  Stream s;
  s.program = program;
  s.vec = program->as_vector();
  s.proc = proc;
  s.activated = now;
  streams_.push_back(s);
  ++live_streams_;
  peak_live_ = std::max(peak_live_, static_cast<std::uint64_t>(live_streams_));

  const std::uint64_t spawn_cost = static_cast<std::uint64_t>(
      software ? config_.sw_spawn_cycles : config_.hw_spawn_cycles);
  push_wake(now + spawn_cost, sid, StallReason::kSpawn);

  (software ? obs_.spawns_sw : obs_.spawns_hw)->add();
  if (obs_.sink != nullptr) {
    obs_.sink->instant(obs::Category::Spawn,
                       software ? "spawn_sw" : "spawn_hw", ts_us(now),
                       obs_.pid, static_cast<std::uint64_t>(sid));
    obs_.sink->begin(obs::Category::Spawn, "stream", ts_us(now), obs_.pid,
                     static_cast<std::uint64_t>(sid));
  }
}

std::uint64_t Machine::network_service(std::uint64_t now, Address addr) {
  std::uint64_t start_fp =
      std::max((now + 1) << kFpBits, network_free_fp_);
  if (config_.memory_banks > 0) {
    // Interleaved banks: the op also waits for its bank to free up. The
    // real machine hashed addresses so strided code spreads across banks.
    std::uint64_t key = addr;
    if (config_.hash_addresses) {
      key = SplitMix64(addr ^ 0x9e3779b97f4a7c15ULL).next();
    }
    const auto bank = static_cast<std::size_t>(
        key % static_cast<std::uint64_t>(config_.memory_banks));
    start_fp = std::max(start_fp, bank_free_fp_[bank]);
    bank_free_fp_[bank] =
        start_fp +
        (static_cast<std::uint64_t>(config_.bank_busy_cycles) << kFpBits);
  }
  network_free_fp_ = start_fp + service_fp_;
  ++memory_ops_;
  // ceil(start + memory_latency) in fixed point.
  return (start_fp +
          (static_cast<std::uint64_t>(config_.memory_latency_cycles)
           << kFpBits) +
          (kFpOne - 1)) >>
         kFpBits;
}

void Machine::complete_memory_op(StreamId sid, std::uint64_t now,
                                 Address addr) {
  const std::uint64_t done = network_service(now, addr);
  const std::uint64_t spacing =
      now + static_cast<std::uint64_t>(config_.issue_spacing_cycles);
  const auto lookahead = static_cast<std::size_t>(config_.lookahead);
  if (lookahead == 0) {
    // Fully dependent code: the stream waits for this operation. The wait
    // counts as a memory stall only past the issue-spacing window it would
    // have sat out anyway.
    push_wake(std::max(done, spacing), sid,
              done > spacing ? StallReason::kMemory : StallReason::kSpacing);
    return;
  }
  // Explicit-dependence lookahead: the stream keeps issuing while at most
  // `lookahead` memory operations are outstanding; otherwise it waits for
  // the oldest one that must retire first.
  auto& outstanding = streams_[static_cast<std::size_t>(sid)].outstanding;
  while (!outstanding.empty() && outstanding.front() <= now)
    outstanding.pop_front();
  outstanding.push_back(done);
  std::uint64_t wake = spacing;
  if (outstanding.size() > lookahead)
    wake = std::max(wake, outstanding[outstanding.size() - 1 - lookahead]);
  push_wake(wake, sid,
            wake > spacing ? StallReason::kMemory : StallReason::kSpacing);
}

void Machine::process_handoffs(std::uint64_t now) {
  for (const auto& h : memory_.drain_handoffs()) {
    Stream& s = streams_[static_cast<std::size_t>(h.stream)];
    TC3I_ASSERT(!s.dead);
    // The stream stops being sync-parked here; complete_memory_op re-parks
    // it for the network trip the hand-off triggers.
    --acct_[static_cast<std::size_t>(s.proc)]
          .waiting[static_cast<std::size_t>(s.wait_reason)];
    if (h.was_load) s.program->deliver(h.value);
    ++sync_handoffs_;
    if (obs_.sink != nullptr)
      obs_.sink->instant(obs::Category::Sync, "sync_unblock", ts_us(now),
                         obs_.pid, static_cast<std::uint64_t>(h.stream));
    // The queued operation completes now: one more trip through the network.
    complete_memory_op(h.stream, now, h.addr);
  }
}

void Machine::finish_stream(StreamId sid, std::uint64_t now) {
  Stream& s = streams_[static_cast<std::size_t>(sid)];
  TC3I_ASSERT(!s.dead);
  s.dead = true;
  --live_streams_;
  ++completed_;
  obs_.streams_completed->add();
  obs_.stream_instructions->record(static_cast<double>(s.issued));
  const auto rid = static_cast<std::size_t>(s.program->region());
  if (rid >= region_tallies_.size()) region_tallies_.resize(rid + 1);
  RegionTally& tally = region_tallies_[rid];
  ++tally.streams;
  tally.instructions += s.issued;
  tally.stream_cycles += now - s.activated;
  if (obs_.sink != nullptr)
    obs_.sink->end(obs::Category::Spawn, "stream", ts_us(now), obs_.pid,
                   static_cast<std::uint64_t>(sid));
  procs_[static_cast<std::size_t>(s.proc)].release_slot();
  load_tracker_.change(s.proc, -1);
  ++free_slots_;
  if (!pending_.empty()) {
    const PendingSpawn ps = pending_.front();
    pending_.pop();
    activate(ps.program, ps.software, now);
  }
}

void Machine::issue(StreamId sid, std::uint64_t now) {
  Stream& s = streams_[static_cast<std::size_t>(sid)];
  TC3I_ASSERT(!s.dead);
  ++s.issued;
  if (!s.has_cur) fetch_next(s);

  const std::uint64_t spacing =
      now + static_cast<std::uint64_t>(config_.issue_spacing_cycles);

  // The per-processor issue counters already tally every instruction
  // (pop_ready() increments them); instructions_ is derived from their sum
  // at the end of run() to keep this switch store-free beyond its tallies.
  switch (s.cur.op) {
    case Instr::Op::Compute: {
      ++issued_compute_;
      TC3I_ASSERT(s.cur.count > 0);
      if (--s.cur.count == 0) s.has_cur = false;
      push_wake(spacing, sid, StallReason::kSpacing);
      break;
    }
    case Instr::Op::Load: {
      ++issued_memory_;
      TC3I_ASSERT(s.cur.count > 0);
      if (--s.cur.count == 0) s.has_cur = false;
      complete_memory_op(sid, now, s.cur.addr);
      break;
    }
    case Instr::Op::Store: {
      ++issued_memory_;
      memory_.store(s.cur.addr, s.cur.value);
      TC3I_ASSERT(s.cur.count > 0);
      if (--s.cur.count == 0) s.has_cur = false;
      complete_memory_op(sid, now, s.cur.addr);
      break;
    }
    case Instr::Op::SyncLoad: {
      ++issued_sync_;
      s.has_cur = false;
      const SyncAttempt a = memory_.try_sync_load(s.cur.addr, sid);
      if (a.succeeded) {
        s.program->deliver(a.value);
        complete_memory_op(sid, now, s.cur.addr);
      } else {
        ++sync_blocks_;
        park_sync(sid);
        if (obs_.sink != nullptr)
          obs_.sink->instant(obs::Category::Sync, "sync_block", ts_us(now),
                             obs_.pid, static_cast<std::uint64_t>(sid));
      }
      // On failure the stream waits in memory (no issue slots consumed).
      process_handoffs(now);
      break;
    }
    case Instr::Op::SyncStore: {
      ++issued_sync_;
      s.has_cur = false;
      const SyncAttempt a = memory_.try_sync_store(s.cur.addr, s.cur.value, sid);
      if (a.succeeded) {
        complete_memory_op(sid, now, s.cur.addr);
      } else {
        ++sync_blocks_;
        park_sync(sid);
        if (obs_.sink != nullptr)
          obs_.sink->instant(obs::Category::Sync, "sync_block", ts_us(now),
                             obs_.pid, static_cast<std::uint64_t>(sid));
      }
      process_handoffs(now);
      break;
    }
    case Instr::Op::Spawn: {
      ++spawns_;
      ++issued_spawn_;
      StreamProgram* target = s.cur.spawn;
      const bool software = s.cur.software_spawn;
      s.has_cur = false;
      TC3I_ASSERT(target != nullptr);
      if (free_slots_ > 0) {
        activate(target, software, now);
      } else {
        obs_.spawns_virtualized->add();
        if (obs_.sink != nullptr)
          obs_.sink->instant(obs::Category::Sync, "stream_virtualized",
                             ts_us(now), obs_.pid,
                             static_cast<std::uint64_t>(sid));
        pending_.push(PendingSpawn{target, software});
      }
      push_wake(spacing, sid, StallReason::kSpacing);
      break;
    }
    case Instr::Op::Quit: {
      s.has_cur = false;
      finish_stream(sid, now);
      break;
    }
  }
}

std::uint64_t Machine::run_solo(std::uint64_t now, std::uint64_t max_cycles) {
  // Exactly one stream is ready machine-wide and the wake queue is drained
  // to `now`, so no other stream issues before the queue's next due cycle.
  // Until then this stream's instructions retire without a trip through
  // the queue, whole Compute runs collapse to arithmetic, and memory ops
  // complete inline, so `next_due` is loop-invariant.
  Processor* proc = nullptr;
  for (auto& p : procs_)
    if (p.has_ready()) proc = &p;
  TC3I_ASSERT(proc != nullptr);
  Processor& p = *proc;
  const StreamId sid = p.front_ready();
  Stream& s = streams_[static_cast<std::size_t>(sid)];
  const auto spacing =
      static_cast<std::uint64_t>(config_.issue_spacing_cycles);
  const std::uint64_t next_due = wakes_.next_due();  // kNone bounds nothing
  const bool la0 = config_.lookahead == 0;

  // Slot accounting: every processor but p idles the whole span with a
  // census that cannot change in here (no foreign issues, no wake
  // deliveries, no spawns/hand-offs outside the generic exit), so the
  // foreign span is attributed in one shot at exit. p's own gap cycles are
  // credited per instruction run via account_solo_idle, which supplies the
  // reason the solo stream would have been parked with.
  const std::uint64_t entry = now;
  const auto foreign_idle = [&](std::uint64_t upto) {
    if (upto == entry) return;
    for (auto& q : procs_)
      if (q.id() != p.id()) account_idle(q.id(), upto - entry);
  };

  // The first issue consumes the ready-queue entry (counting one issue);
  // later ones are credited analytically.
  bool popped = false;
  const auto charge = [&](std::uint64_t n) {
    if (!popped) {
      (void)p.pop_ready();
      --ready_count_;
      popped = true;
      --n;
    }
    if (n > 0) p.add_issues(n);
  };

  while (true) {
    if (now >= max_cycles) runaway_abort(now);
    if (!s.has_cur) fetch_next(s);

    if (s.cur.op == Instr::Op::Compute) {
      // Issues land at now, now+S, ...; every issue after the first is
      // only sole-ready if it comes strictly before the next foreign wake.
      const std::uint64_t k =
          std::min(s.cur.count, 1 + (next_due - 1 - now) / spacing);
      charge(k);
      issued_compute_ += k;
      s.issued += k;
      s.cur.count -= k;
      if (s.cur.count == 0) s.has_cur = false;
      const std::uint64_t last = now + (k - 1) * spacing;
      const std::uint64_t wake = last + spacing;
      if (s.cur.count > 0 || next_due <= wake) {
        // A foreign wake lands before (or at) our next issue: queue our
        // wake and let the generic loop arbitrate. Covered cycles end at
        // `last`: k issues plus the k-1 spacing gaps between them.
        account_solo_idle(p.id(), (k - 1) * (spacing - 1),
                          StallReason::kSpacing);
        push_wake(wake, sid, StallReason::kSpacing);
        foreign_idle(last + 1);
        return last + 1;
      }
      // Continuing: the trailing spacing gap up to `wake` is covered too.
      account_solo_idle(p.id(), k * (spacing - 1), StallReason::kSpacing);
      now = wake;
      continue;
    }

    if (la0 && (s.cur.op == Instr::Op::Load || s.cur.op == Instr::Op::Store)) {
      charge(1);
      ++issued_memory_;
      ++s.issued;
      if (s.cur.op == Instr::Op::Store) memory_.store(s.cur.addr, s.cur.value);
      TC3I_ASSERT(s.cur.count > 0);
      if (--s.cur.count == 0) s.has_cur = false;
      const std::uint64_t done = network_service(now, s.cur.addr);
      const std::uint64_t wake = std::max(done, now + spacing);
      const StallReason why = done > now + spacing ? StallReason::kMemory
                                                   : StallReason::kSpacing;
      if (next_due <= wake) {
        push_wake(wake, sid, why);
        foreign_idle(now + 1);
        return now + 1;
      }
      account_solo_idle(p.id(), wake - now - 1, why);
      now = wake;
      continue;
    }

    // Sync ops, spawns, quits and lookahead>0 memory ops take the generic
    // path for one instruction, then the generic loop resumes (they can
    // wake other streams or change stream structure). issue() can change
    // foreign censuses (spawn placement, hand-offs), so the exit cycle is
    // attributed in the slow loop's processor-scan order: processors before
    // p see the pre-issue census, processors after it the post-issue one.
    foreign_idle(now);
    if (!popped) {
      (void)p.pop_ready();
      --ready_count_;
      popped = true;
    } else {
      p.add_issues(1);
    }
    for (auto& q : procs_)
      if (q.id() < p.id()) account_idle(q.id(), 1);
    issue(sid, now);
    for (auto& q : procs_)
      if (q.id() > p.id()) account_idle(q.id(), 1);
    return now + 1;
  }
}

void Machine::flush_samples(std::uint64_t now) {
  // Everything accumulated since the previous flush happened at scanned
  // cycles strictly before `sample_next_` (any scanned cycle at or past the
  // boundary flushes before accruing), so the deltas belong entirely to the
  // first unflushed bucket; buckets skipped by idle jumps emit zeros.
  while (sample_next_ <= now) {
    append_sample(sample_next_, sample_period_);
    sample_next_ += sample_period_;
  }
}

void Machine::append_sample(std::uint64_t end, std::uint64_t width) {
  std::uint64_t issues_now = 0;
  for (const auto& p : procs_) issues_now += p.issues();
  const auto w = static_cast<double>(width);
  const double util = static_cast<double>(issues_now - sample_last_issues_) /
                      (w * static_cast<double>(config_.num_processors));
  const double ready = static_cast<double>(sample_ready_sum_) / w;
  const double net = static_cast<double>(memory_ops_ - sample_last_mem_) /
                     (w * config_.network_ops_per_cycle);
  tl_util_.push_back({end, util});
  tl_ready_.push_back({end, ready});
  tl_net_.push_back({end, net});
  if (obs_.sink != nullptr) {
    const double ts = ts_us(end);
    obs_.sink->counter(obs::Category::Issue, "issue_utilization", ts,
                       obs_.pid, util);
    obs_.sink->counter(obs::Category::Issue, "ready_streams", ts, obs_.pid,
                       ready);
    obs_.sink->counter(obs::Category::Memory, "network_occupancy", ts,
                       obs_.pid, net);
  }
  sample_last_issues_ = issues_now;
  sample_last_mem_ = memory_ops_;
  sample_ready_sum_ = 0;
}

void Machine::finish_timeline(std::uint64_t now) {
  flush_samples(now);
  // Trailing partial bucket, normalized by its actual width.
  const std::uint64_t start = sample_next_ - sample_period_;
  if (now > start) append_sample(now, now - start);
  if (obs_.timeline == nullptr) return;  // traced run: counters only
  obs::MachineTimeline tl;
  tl.model = "mta";
  tl.name = config_.name;
  tl.sample_period_cycles = sample_period_;
  tl.series.push_back({"issue_utilization", std::move(tl_util_)});
  tl.series.push_back({"ready_streams", std::move(tl_ready_)});
  tl.series.push_back({"network_occupancy", std::move(tl_net_)});
  obs_.timeline->add(std::move(tl));
}

MtaRunResult Machine::run(std::uint64_t max_cycles) {
  TC3I_EXPECTS(!ran_);
  ran_ = true;
  max_cycles_ = max_cycles;
  obs_.runs->add();
  run_start_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return finish_run(slow_ ? run_slow_loop() : run_fast_loop());
}

std::uint64_t Machine::run_slow_loop() {
  std::uint64_t now = 0;
  const std::uint64_t max_cycles = max_cycles_;
  {
    // Reference loop: the original simulator, kept verbatim for
    // golden-equivalence testing. Binary-heap wake queue, every instruction
    // re-enters issue(), cycles advance one at a time between wakes.
    while (live_streams_ > 0 || !pending_.empty()) {
      if (now >= max_cycles) runaway_abort(now);

      while (!heap_.empty() && heap_.top().cycle <= now) {
        const Wake w = heap_.top();
        heap_.pop();
        make_stream_ready(w.stream);
      }

      if (sample_period_ != 0) {
        if (now >= sample_next_) flush_samples(now);
        sample_ready_sum_ += ready_count_;
      }

      bool any_ready = false;
      for (auto& p : procs_) {
        if (p.has_ready()) {
          any_ready = true;
          --ready_count_;
          issue(p.pop_ready(), now);
        } else {
          account_idle(p.id(), 1);
        }
      }

      if (any_ready) {
        ++now;
      } else if (!heap_.empty()) {
        const std::uint64_t next = std::max(now + 1, heap_.top().cycle);
        // The scan above attributed cycle `now`; the skipped span up to the
        // next wake is idle for every processor under an unchanged census.
        if (next - now > 1)
          for (auto& p : procs_) account_idle(p.id(), next - now - 1);
        now = next;
      } else {
        // No stream can ever become ready again: every remaining stream is
        // blocked on a full/empty bit that nobody will flip.
        TC3I_ASSERT(live_streams_ == 0 && pending_.empty());
      }
    }
  }
  return now;
}

std::uint64_t Machine::run_fast_loop() {
  std::uint64_t now = 0;
  // Hoisted so the issue loop branches on register-resident locals instead
  // of reloading members every iteration (issue() may alias them).
  const std::uint64_t max_cycles = max_cycles_;
  {
    const auto spacing =
        static_cast<std::uint64_t>(config_.issue_spacing_cycles);
    while (live_streams_ > 0 || !pending_.empty()) {
      if (now >= max_cycles) runaway_abort(now);

      wakes_.drain_due(now, [this](std::uint64_t, StreamId sid) {
        make_stream_ready(sid);
      });

      // Solo fast-forward: with one ready stream machine-wide (and no
      // timeline sampling, which tracing implies), whole instruction runs
      // retire analytically.
      if (ready_count_ == 1 && sample_period_ == 0) {
        now = run_solo(now, max_cycles);
        continue;
      }

      // Window batching: a stream issuing at cycle c re-wakes no earlier
      // than c + spacing, so between drains the only wakes that can land
      // inside the window come from spawns (spawn cost < spacing). Issue
      // up to min(next_due, now + spacing) cycles on the existing ready
      // queues without re-draining the wake queue, shrinking the window
      // whenever an issued instruction pushes an earlier wake.
      std::uint64_t limit = now + spacing;
      const std::uint64_t nd = wakes_.next_due();
      if (nd < limit) limit = nd;
      if (limit <= now) limit = now + 1;

      // The live-stream check mirrors the outer loop: when the last stream
      // quits mid-window the machine is dead, and scanning another cycle
      // would attribute a phantom idle slot past the end of the run.
      bool any_ready = true;
      while (any_ready && now < limit &&
             (live_streams_ > 0 || !pending_.empty())) {
        if (now >= max_cycles) runaway_abort(now);
        if (sample_period_ != 0) {
          if (now >= sample_next_) flush_samples(now);
          sample_ready_sum_ += ready_count_;
        }
        any_ready = false;
        pushed_min_ = sim::WakeQueue<StreamId>::kNone;
        for (auto& p : procs_) {
          if (p.has_ready()) {
            any_ready = true;
            --ready_count_;
            issue(p.pop_ready(), now);
          } else {
            account_idle(p.id(), 1);
          }
        }
        if (any_ready) {
          // A wake due at d must be delivered at the start of cycle
          // max(d, now + 1); end the window there if that is sooner.
          const std::uint64_t due = std::max(pushed_min_, now + 1);
          if (due < limit) limit = due;
          ++now;
        }
      }

      if (!any_ready) {
        if (!wakes_.empty()) {
          const std::uint64_t next = std::max(now + 1, wakes_.next_due());
          // The last scan attributed cycle `now`; the skipped span up to
          // the next wake is idle for every processor under an unchanged
          // census.
          if (next - now > 1)
            for (auto& p : procs_) account_idle(p.id(), next - now - 1);
          now = next;
        } else {
          // No stream can ever become ready again: every remaining stream
          // is blocked on a full/empty bit that nobody will flip.
          TC3I_ASSERT(live_streams_ == 0 && pending_.empty());
        }
      }
    }
  }
  return now;
}

MtaRunResult Machine::finish_run(std::uint64_t now) {
  TC3I_EXPECTS(live_streams_ == 0 && pending_.empty());

  std::uint64_t used = 0;
  for (const auto& p : procs_) used += p.issues();
  instructions_ = used;

  if (sample_period_ != 0) finish_timeline(now);

  // Finalize the per-processor issue-slot accounts: used slots come from
  // the processors' issue tallies, and the account must be exhaustive —
  // every slot of every cycle attributed exactly once, on both simulation
  // paths.
  obs::IssueSlotAccount slots_total;
  for (std::size_t pi = 0; pi < procs_.size(); ++pi) {
    acct_[pi].acct.used = procs_[pi].issues();
    if (acct_[pi].acct.total() != now) {
      const auto& a = acct_[pi].acct;
      std::fprintf(stderr,
                   "[acct] proc %zu: total=%llu now=%llu used=%llu "
                   "no_stream=%llu spacing=%llu spawn=%llu memory=%llu "
                   "sync=%llu\n",
                   pi, (unsigned long long)a.total(), (unsigned long long)now,
                   (unsigned long long)a.used, (unsigned long long)a.no_stream,
                   (unsigned long long)a.spacing, (unsigned long long)a.spawn,
                   (unsigned long long)a.memory, (unsigned long long)a.sync);
    }
    TC3I_ASSERT(acct_[pi].acct.total() == now &&
                "issue-slot account must cover every cycle");
    slots_total += acct_[pi].acct;
  }

  MtaRunResult result;
  result.cycles = now;
  result.seconds = static_cast<double>(now) / config_.clock_hz;
  result.instructions_issued = instructions_;
  result.memory_ops = memory_ops_;
  result.spawns = spawns_;
  result.streams_completed = completed_;
  result.peak_live_streams = peak_live_;
  result.processor_utilization =
      now > 0 ? static_cast<double>(used) /
                    (static_cast<double>(now) *
                     static_cast<double>(config_.num_processors))
              : 0.0;
  result.network_utilization =
      now > 0 ? static_cast<double>(memory_ops_) /
                    (config_.network_ops_per_cycle * static_cast<double>(now))
              : 0.0;
  result.slots = slots_total;
  result.processor_slots.reserve(acct_.size());
  for (const ProcAcct& a : acct_) result.processor_slots.push_back(a.acct);
  obs_.issue_total->add(instructions_);
  obs_.slot_used->add(slots_total.used);
  obs_.slot_no_stream->add(slots_total.no_stream);
  obs_.slot_spacing->add(slots_total.spacing);
  obs_.slot_spawn->add(slots_total.spawn);
  obs_.slot_memory->add(slots_total.memory);
  obs_.slot_sync->add(slots_total.sync);
  obs_.issue_compute->add(issued_compute_);
  obs_.issue_memory->add(issued_memory_);
  obs_.issue_sync->add(issued_sync_);
  obs_.issue_spawn->add(issued_spawn_);
  obs_.network_ops->add(memory_ops_);
  obs_.sync_blocks->add(sync_blocks_);
  obs_.sync_handoffs->add(sync_handoffs_);
  memory_.flush_counters();
  obs_.peak_live->set(static_cast<double>(peak_live_));
  obs_.run_utilization->record(result.processor_utilization);

  // Per-region counters (named after the regions actually used) and the
  // run's accounting record for the report's "machine_runs" section, in
  // the registry captured at construction.
  obs::CounterRegistry& reg = *obs_.registry;
  std::vector<obs::RegionRollup> rollups;
  for (std::size_t rid = 0; rid < region_tallies_.size(); ++rid) {
    const RegionTally& t = region_tallies_[rid];
    if (t.streams == 0 && t.instructions == 0) continue;
    const std::string& name = region_name(static_cast<int>(rid));
    reg.counter("mta.region." + name + ".instructions").add(t.instructions);
    reg.counter("mta.region." + name + ".streams").add(t.streams);
    rollups.push_back(
        obs::RegionRollup{name, t.streams, t.instructions, t.stream_cycles});
  }
  if (obs_.records != nullptr) {
    obs::RunRecord rec;
    rec.model = "mta";
    rec.name = config_.name;
    rec.processors = config_.num_processors;
    rec.threads = peak_live_;
    rec.cycles = now;
    rec.memory_ops = memory_ops_;
    rec.slots = slots_total;
    rec.network_utilization = result.network_utilization;
    rec.regions = std::move(rollups);
    rec.elapsed_seconds = result.seconds;
    rec.utilization = result.processor_utilization;
    obs_.records->add(std::move(rec));
  }
  const auto end_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  obs_.run_wall_seconds->record(static_cast<double>(end_ns - run_start_ns_) *
                                1e-9);
  return result;
}

}  // namespace tc3i::mta
