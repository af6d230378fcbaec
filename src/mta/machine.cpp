#include "mta/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "obs/trace_sink.hpp"

namespace tc3i::mta {

namespace {

bool slow_sim_env() {
  const char* env = std::getenv("TC3I_SLOW_SIM");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

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
  slow_ = config_.slow_reference || slow_sim_env();
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
  if (obs_.timeline != nullptr) {
    sample_period_ = obs_.timeline->sample_period_cycles();
    sample_next_ = sample_period_;
  }
  cap_store_ = obs::active_critpath();
  if (cap_store_ != nullptr && config_.lookahead == 0) {
    cap_graph_ = std::make_unique<obs::DepGraph>();
    cap_graph_->model = "mta";
    cap_graph_->name = config_.name;
    cap_graph_->unit = "cycles";
    cap_graph_->add_node(0.0);  // node 0: machine start
    cap_ = cap_graph_.get();
    cap_spawn_via_ = obs::DepGraph::kNoNode;
  }
}

std::uint32_t Machine::cap_issue_node(StreamId sid, std::uint64_t now,
                                      obs::DepKind kind) {
  CapStream& cs = cap_streams_[static_cast<std::size_t>(sid)];
  const std::uint32_t m =
      cap_->add_node(static_cast<double>(now), cs.region);
  cap_->add_edge(cs.node, obs::DepKind::kCompute, obs::DepKind::kCompute,
                 static_cast<double>(cs.pending) *
                     static_cast<double>(config_.issue_spacing_cycles));
  cs.node = m;
  cs.pending = 0;
  cap_cur_issue_ = m;
  cap_memory_kind_ = kind;
  return m;
}

void Machine::push_wake(std::uint64_t at, StreamId sid, StallReason why) {
  Stream& s = streams_[static_cast<std::size_t>(sid)];
  s.wait_reason = why;
  ++acct_[static_cast<std::size_t>(s.proc)]
        .waiting[static_cast<std::size_t>(why)];
  if (slow_) {
    heap_.push(Wake{at, sid});
  } else {
    if (at < pushed_min_) pushed_min_ = at;
    wheel_.push(at, sid);
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
  if (cap_ != nullptr) {
    // Initial streams descend from the machine-start node.
    cap_spawn_parent_ = 0;
    cap_spawn_via_ = obs::DepGraph::kNoNode;
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

  if (cap_ != nullptr) {
    // Activation node: the child exists spawn_cost after the spawning
    // instruction — and, when the spawn was virtualized, also no earlier
    // than spawn_cost after the quit that freed its hardware slot.
    const std::uint32_t n = cap_->add_node(
        static_cast<double>(now + spawn_cost), program->region());
    cap_->add_edge(cap_spawn_parent_, obs::DepKind::kSpawn,
                   obs::DepKind::kSpawn, static_cast<double>(spawn_cost));
    if (cap_spawn_via_ != obs::DepGraph::kNoNode)
      cap_->add_edge(cap_spawn_via_, obs::DepKind::kSpawn,
                     obs::DepKind::kSpawn, static_cast<double>(spawn_cost));
    cap_streams_.resize(streams_.size());
    cap_streams_[static_cast<std::size_t>(sid)] =
        CapStream{n, 0, program->region()};
  }

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
    if (cap_ != nullptr) {
      // Wake node: the stream resumes after both the issue-spacing window
      // and the network round trip. The trip splits into the scalable
      // latency (knob: memory_latency) and the fixed queueing remainder;
      // full/empty trips keep sync attribution but still scale with the
      // latency knob (cap_memory_kind_ set at the issuing instruction).
      // Hand-off resumes (sid != the issuing stream) hang off the
      // producer's issue node, plus a zero-weight edge from the waiter's
      // own blocked attempt so projections that shrink the producer chain
      // cannot predict a resume before the waiter even asked.
      const double latency =
          static_cast<double>(config_.memory_latency_cycles);
      CapStream& cs = cap_streams_[static_cast<std::size_t>(sid)];
      const std::uint32_t v = cap_->add_node(
          static_cast<double>(std::max(done, spacing)), cs.region);
      cap_->add_edge(cap_cur_issue_, obs::DepKind::kCompute,
                     obs::DepKind::kCompute,
                     static_cast<double>(config_.issue_spacing_cycles));
      cap_->add_edge(cap_cur_issue_, cap_memory_kind_, obs::DepKind::kMemory,
                     latency, static_cast<double>(done - now) - latency);
      if (cs.node != cap_cur_issue_)
        cap_->add_edge(cs.node, obs::DepKind::kSync, obs::DepKind::kSync,
                       0.0);
      cs.node = v;
      cs.pending = 0;
    }
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
    if (cap_ != nullptr) {
      cap_spawn_parent_ = ps.cap_parent;
      cap_spawn_via_ = cap_streams_[static_cast<std::size_t>(sid)].node;
    }
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
      if (cap_ != nullptr)
        ++cap_streams_[static_cast<std::size_t>(sid)].pending;
      push_wake(spacing, sid, StallReason::kSpacing);
      break;
    }
    case Instr::Op::Load: {
      ++issued_memory_;
      TC3I_ASSERT(s.cur.count > 0);
      if (--s.cur.count == 0) s.has_cur = false;
      if (cap_ != nullptr) cap_issue_node(sid, now, obs::DepKind::kMemory);
      complete_memory_op(sid, now, s.cur.addr);
      break;
    }
    case Instr::Op::Store: {
      ++issued_memory_;
      memory_.store(s.cur.addr, s.cur.value);
      TC3I_ASSERT(s.cur.count > 0);
      if (--s.cur.count == 0) s.has_cur = false;
      if (cap_ != nullptr) cap_issue_node(sid, now, obs::DepKind::kMemory);
      complete_memory_op(sid, now, s.cur.addr);
      break;
    }
    case Instr::Op::SyncLoad: {
      ++issued_sync_;
      s.has_cur = false;
      if (cap_ != nullptr) cap_issue_node(sid, now, obs::DepKind::kSync);
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
      if (cap_ != nullptr) cap_issue_node(sid, now, obs::DepKind::kSync);
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
      if (cap_ != nullptr) {
        cap_spawn_parent_ = cap_issue_node(sid, now, obs::DepKind::kSpawn);
        cap_spawn_via_ = obs::DepGraph::kNoNode;
        // The spawn instruction itself occupies one issue-spacing window.
        cap_streams_[static_cast<std::size_t>(sid)].pending = 1;
      }
      if (free_slots_ > 0) {
        activate(target, software, now);
      } else {
        obs_.spawns_virtualized->add();
        if (obs_.sink != nullptr)
          obs_.sink->instant(obs::Category::Sync, "stream_virtualized",
                             ts_us(now), obs_.pid,
                             static_cast<std::uint64_t>(sid));
        pending_.push(PendingSpawn{target, software, cap_spawn_parent_});
      }
      push_wake(spacing, sid, StallReason::kSpacing);
      break;
    }
    case Instr::Op::Quit: {
      s.has_cur = false;
      // Quit node: flushes the stream's trailing compute run; doubles as
      // the cap_spawn_via_ link when this quit unblocks a pending spawn.
      if (cap_ != nullptr) cap_issue_node(sid, now, obs::DepKind::kCompute);
      finish_stream(sid, now);
      break;
    }
  }
}

std::uint64_t Machine::run_solo(std::uint64_t now, std::uint64_t max_cycles) {
  // Exactly one stream is ready machine-wide and the wheel is drained to
  // `now`, so no other stream can issue before the wheel's next due cycle.
  // Within that window this stream's instructions can be retired without
  // bouncing each one through the wake queue — and entire Compute runs
  // collapse to arithmetic. The wheel is not touched while in here (memory
  // ops complete inline), so `next_due` is loop-invariant.
  Processor* proc = nullptr;
  for (auto& p : procs_)
    if (p.has_ready()) proc = &p;
  TC3I_ASSERT(proc != nullptr);
  Processor& p = *proc;
  const StreamId sid = p.front_ready();
  Stream& s = streams_[static_cast<std::size_t>(sid)];
  const auto spacing =
      static_cast<std::uint64_t>(config_.issue_spacing_cycles);
  const std::uint64_t next_due = wheel_.next_due();  // kNone when empty
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
      std::uint64_t k = s.cur.count;
      if (next_due != sim::TimerWheel<StreamId>::kNone)
        k = std::min(k, 1 + (next_due - 1 - now) / spacing);
      charge(k);
      issued_compute_ += k;
      s.issued += k;
      s.cur.count -= k;
      if (s.cur.count == 0) s.has_cur = false;
      const std::uint64_t last = now + (k - 1) * spacing;
      const std::uint64_t wake = last + spacing;
      if (s.cur.count > 0 ||
          (next_due != sim::TimerWheel<StreamId>::kNone && next_due <= wake)) {
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
      if (next_due != sim::TimerWheel<StreamId>::kNone && next_due <= wake) {
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
    std::uint64_t issues_now = 0;
    for (const auto& p : procs_) issues_now += p.issues();
    const auto period = static_cast<double>(sample_period_);
    const double util =
        static_cast<double>(issues_now - sample_last_issues_) /
        (period * static_cast<double>(config_.num_processors));
    const double ready = static_cast<double>(sample_ready_sum_) / period;
    const double net = static_cast<double>(memory_ops_ - sample_last_mem_) /
                       (period * config_.network_ops_per_cycle);
    tl_util_.push_back({sample_next_, util});
    tl_ready_.push_back({sample_next_, ready});
    tl_net_.push_back({sample_next_, net});
    if (obs_.sink != nullptr)
      obs_.sink->counter(obs::Category::Issue, "ready_streams",
                         ts_us(sample_next_), obs_.pid, ready);
    sample_last_issues_ = issues_now;
    sample_last_mem_ = memory_ops_;
    sample_ready_sum_ = 0;
    sample_next_ += sample_period_;
  }
}

void Machine::finish_timeline(std::uint64_t now) {
  flush_samples(now);
  const std::uint64_t start = sample_next_ - sample_period_;
  if (now > start) {
    // Trailing partial bucket, normalized by its actual width.
    std::uint64_t issues_now = 0;
    for (const auto& p : procs_) issues_now += p.issues();
    const auto width = static_cast<double>(now - start);
    tl_util_.push_back(
        {now, static_cast<double>(issues_now - sample_last_issues_) /
                  (width * static_cast<double>(config_.num_processors))});
    tl_ready_.push_back({now, static_cast<double>(sample_ready_sum_) / width});
    tl_net_.push_back({now,
                       static_cast<double>(memory_ops_ - sample_last_mem_) /
                           (width * config_.network_ops_per_cycle)});
  }
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
  // Per-bucket counter tracks for the trace (issue utilization and memory
  // traffic); defaults to 4096-cycle buckets when no timeline is requested.
  const std::uint64_t bucket = config_.timeline_bucket_cycles;
  trace_bucket_ = bucket > 0 ? bucket : 4096;
  trace_next_ = trace_bucket_;
  return finish_run(slow_ ? run_slow_loop() : run_fast_loop());
}

void Machine::emit_trace_buckets(std::uint64_t upto, bool final) {
  if (obs_.sink == nullptr) return;
  std::uint64_t instr_now = 0;
  for (const auto& p : procs_) instr_now += p.issues();
  while (trace_next_ <= upto || (final && trace_last_instr_ < instr_now)) {
    const std::uint64_t at = std::min(trace_next_, upto);
    const double slots = static_cast<double>(trace_bucket_) *
                         static_cast<double>(config_.num_processors);
    obs_.sink->counter(
        obs::Category::Issue, "issue_utilization", ts_us(at), obs_.pid,
        static_cast<double>(instr_now - trace_last_instr_) / slots);
    obs_.sink->counter(
        obs::Category::Memory, "memory_ops_per_bucket", ts_us(at), obs_.pid,
        static_cast<double>(memory_ops_ - trace_last_mem_));
    trace_last_instr_ = instr_now;
    trace_last_mem_ = memory_ops_;
    if (trace_next_ > upto) break;
    trace_next_ += trace_bucket_;
  }
}

std::uint64_t Machine::run_slow_loop() {
  std::uint64_t now = 0;
  const std::uint64_t max_cycles = max_cycles_;
  const bool tracing = obs_.sink != nullptr;
  const std::uint64_t bucket = config_.timeline_bucket_cycles;
  {
    // Reference loop: the pre-timing-wheel simulator, kept verbatim for
    // golden-equivalence testing. Binary-heap wake queue, every instruction
    // re-enters issue(), cycles advance one at a time between wakes.
    while (live_streams_ > 0 || !pending_.empty()) {
      if (now >= max_cycles) runaway_abort(now);
      if (tracing) emit_trace_buckets(now, /*final=*/false);

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
          if (bucket > 0) {
            const std::size_t b = static_cast<std::size_t>(now / bucket);
            if (b >= bucket_issues_.size()) bucket_issues_.resize(b + 1, 0);
            ++bucket_issues_[b];
          }
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
  const bool tracing = obs_.sink != nullptr;
  const std::uint64_t bucket = config_.timeline_bucket_cycles;
  {
    const auto spacing =
        static_cast<std::uint64_t>(config_.issue_spacing_cycles);
    while (live_streams_ > 0 || !pending_.empty()) {
      if (now >= max_cycles) runaway_abort(now);
      if (tracing) emit_trace_buckets(now, /*final=*/false);

      wheel_.drain_due(now, [this](std::uint64_t, StreamId sid) {
        make_stream_ready(sid);
      });

      // Solo fast-forward: with one ready stream machine-wide (and no
      // tracing, timeline sampling, or dependency-graph capture observing
      // individual instructions), whole instruction runs retire
      // analytically.
      if (ready_count_ == 1 && !tracing && bucket == 0 &&
          sample_period_ == 0 && cap_ == nullptr) {
        now = run_solo(now, max_cycles);
        continue;
      }

      // Window batching: a stream issuing at cycle c re-wakes no earlier
      // than c + spacing, so between drains the only wakes that can land
      // inside the window come from spawns (spawn cost < spacing). Issue
      // up to min(next_due, now + spacing) cycles on the existing ready
      // queues without re-draining the wheel, shrinking the window
      // whenever an issued instruction pushes an earlier wake. (Tracing
      // samples per cycle, so it takes the one-cycle window.)
      std::uint64_t limit = now + 1;
      if (!tracing) {
        limit = now + spacing;
        const std::uint64_t nd = wheel_.next_due();
        if (nd < limit) limit = nd;
        if (limit <= now) limit = now + 1;
      }

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
        pushed_min_ = sim::TimerWheel<StreamId>::kNone;
        for (auto& p : procs_) {
          if (p.has_ready()) {
            any_ready = true;
            --ready_count_;
            issue(p.pop_ready(), now);
            if (bucket > 0) {
              const std::size_t b = static_cast<std::size_t>(now / bucket);
              if (b >= bucket_issues_.size()) bucket_issues_.resize(b + 1, 0);
              ++bucket_issues_[b];
            }
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
        if (!wheel_.empty()) {
          const std::uint64_t next = std::max(now + 1, wheel_.next_due());
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
  const std::uint64_t bucket = config_.timeline_bucket_cycles;

  std::uint64_t used = 0;
  for (const auto& p : procs_) used += p.issues();
  instructions_ = used;

  emit_trace_buckets(now, /*final=*/true);
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
  if (bucket > 0) {
    result.utilization_timeline.reserve(bucket_issues_.size());
    const double slots_per_bucket =
        static_cast<double>(bucket) *
        static_cast<double>(config_.num_processors);
    for (const std::uint64_t issues_in_bucket : bucket_issues_)
      result.utilization_timeline.push_back(
          static_cast<double>(issues_in_bucket) / slots_per_bucket);
  }

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
    cap_finish_run(now, &rec);
    obs_.records->add(std::move(rec));
  } else {
    cap_finish_run(now, nullptr);
  }
  const auto end_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  obs_.run_wall_seconds->record(static_cast<double>(end_ns - run_start_ns_) *
                                1e-9);
  return result;
}

void Machine::cap_finish_run(std::uint64_t now, obs::RunRecord* rec) {
  if (cap_ == nullptr) return;
  // Run-end node: one cycle after the last quit (the cycle counter
  // advances past the final issue on both simulation paths).
  const std::uint32_t end = cap_->add_node(static_cast<double>(now));
  for (const CapStream& cs : cap_streams_)
    cap_->add_edge(cs.node, obs::DepKind::kCompute, obs::DepKind::kCompute,
                   1.0);
  cap_->end_node = end;
  cap_->total = static_cast<double>(now);
  // Throughput bounds the dependency path cannot see: the busiest
  // processor's issue slots (one instruction per cycle) and the shared
  // network's total service time. Neither scales with a what-if knob —
  // halving memory latency does not add network bandwidth.
  std::uint64_t max_issues = 0;
  for (const auto& p : procs_) max_issues = std::max(max_issues, p.issues());
  cap_->resources.push_back(obs::DepResource{
      "issue", obs::DepKind::kCompute, false,
      static_cast<double>(max_issues)});
  cap_->resources.push_back(obs::DepResource{
      "network", obs::DepKind::kMemory, false,
      static_cast<double>(memory_ops_) *
          (static_cast<double>(service_fp_) / static_cast<double>(kFpOne))});
  for (std::size_t rid = 0; rid < region_tallies_.size(); ++rid)
    cap_->region_names.push_back(region_name(static_cast<int>(rid)));
  if (rec != nullptr) rec->critical_path = obs::summarize(*cap_);
  cap_store_->add(std::move(*cap_graph_));
  cap_graph_.reset();
  cap_ = nullptr;
}

}  // namespace tc3i::mta
