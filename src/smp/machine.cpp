#include "smp/machine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"
#include "sim/fluid.hpp"

namespace tc3i::smp {

namespace {

using sim::Phase;
using sim::ThreadTrace;

// A timed or instantaneous unit of worker progress. Compute phases expand to
// Cpu (ops) then Mem (bytes); lock phases expand to Overhead + Grab/Release.
struct Job {
  enum class Kind : std::uint8_t { Sleep, Overhead, Cpu, Mem, Grab, Release };
  Kind kind = Kind::Sleep;
  double amount = 0.0;  ///< seconds (Sleep/Overhead), ops (Cpu), bytes (Mem)
  int lock_id = -1;
};

// One piecewise-constant interval of machine activity: the per-segment
// record behind the trace's bus_fraction / running_threads counters and the
// resampled timeline series.
struct TimelineSample {
  Seconds start = 0.0;
  Seconds duration = 0.0;
  int running_threads = 0;
  int blocked_threads = 0;
  /// Instantaneous bus usage as a fraction of mem_bw_total.
  double bus_fraction = 0.0;
};

struct Worker {
  std::deque<Job> jobs;
  const std::vector<Phase>* phases = nullptr;
  std::size_t phase_idx = 0;

  enum class Status : std::uint8_t { Run, Blocked, Done };
  Status status = Status::Run;

  Seconds busy = 0.0;
  Seconds lock_wait = 0.0;
  Seconds finish = 0.0;
};

struct LockState {
  int owner = -1;
  std::deque<int> waiters;
};

class Engine {
 public:
  Engine(const SmpConfig& cfg, const ObsHooks& obs, int num_workers,
         int num_locks, const std::vector<ThreadTrace>* pool_tasks)
      : cfg_(cfg),
        obs_(obs),
        workers_(static_cast<std::size_t>(num_workers)),
        locks_(static_cast<std::size_t>(num_locks)),
        pool_(pool_tasks) {}

  /// Assigns a fixed trace to worker `i` (static partitioning).
  void assign(int i, const ThreadTrace& trace) {
    workers_[static_cast<std::size_t>(i)].phases = &trace.phases();
  }

  /// Adds the serialized master-spawn stagger before each worker starts.
  void add_spawn_stagger() {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const double delay =
          cfg_.spawn_seconds() * static_cast<double>(i + 1);
      if (delay > 0.0)
        workers_[i].jobs.push_front(Job{Job::Kind::Sleep, delay});
      ++tally_.threads_spawned;
      if (obs_.sink != nullptr)
        obs_.sink->instant(obs::Category::Spawn, "thread_spawn", delay * 1e6,
                           obs_.pid, i);
    }
  }

  RunResult run();

 private:
  static constexpr double kDoneEps = 1e-12;

  void expand_phase(Worker& w, const Phase& p) {
    switch (p.kind) {
      case Phase::Kind::Compute:
        if (p.ops > 0)
          w.jobs.push_back(Job{Job::Kind::Cpu, static_cast<double>(p.ops)});
        if (p.bytes > 0)
          w.jobs.push_back(Job{Job::Kind::Mem, static_cast<double>(p.bytes)});
        break;
      case Phase::Kind::Acquire:
        if (cfg_.lock_seconds() > 0.0)
          w.jobs.push_back(Job{Job::Kind::Overhead, cfg_.lock_seconds()});
        w.jobs.push_back(Job{Job::Kind::Grab, 0.0, p.lock_id});
        break;
      case Phase::Kind::Release:
        w.jobs.push_back(Job{Job::Kind::Release, 0.0, p.lock_id});
        break;
    }
  }

  /// Refills the worker's job queue from its phase list or the task pool.
  /// Marks the worker Done when no work remains.
  void refill(Worker& w, Seconds now) {
    while (w.jobs.empty()) {
      if (w.phases != nullptr && w.phase_idx < w.phases->size()) {
        expand_phase(w, (*w.phases)[w.phase_idx++]);
        continue;
      }
      if (pool_ != nullptr && next_task_ < pool_->size()) {
        w.phases = &(*pool_)[next_task_++].phases();
        w.phase_idx = 0;
        // Pulling from the shared queue costs one lock round-trip.
        if (cfg_.lock_seconds() > 0.0)
          w.jobs.push_back(Job{Job::Kind::Overhead, cfg_.lock_seconds()});
        continue;
      }
      w.status = Worker::Status::Done;
      w.finish = now;
      return;
    }
  }

  /// Advances the worker past instantaneous jobs until it has a timed job,
  /// blocks, or finishes. May wake other workers (lock hand-off).
  void settle(int wi, Seconds now) {
    // Workers to settle, first in first out; a lock hand-off appends.
    settle_queue_.assign(1, wi);
    for (std::size_t head = 0; head < settle_queue_.size(); ++head) {
      const int idx = settle_queue_[head];
      Worker& w = workers_[static_cast<std::size_t>(idx)];
      while (w.status == Worker::Status::Run) {
        if (w.jobs.empty()) {
          refill(w, now);
          if (w.status == Worker::Status::Done) {
            ++tally_.threads_finished;
            if (obs_.sink != nullptr)
              obs_.sink->end(obs::Category::Sched, "worker", now * 1e6,
                             obs_.pid, static_cast<std::uint64_t>(idx));
            break;
          }
        }
        Job& job = w.jobs.front();
        switch (job.kind) {
          case Job::Kind::Sleep:
          case Job::Kind::Overhead:
          case Job::Kind::Cpu:
          case Job::Kind::Mem:
            if (job.amount > kDoneEps) goto settled;
            w.jobs.pop_front();
            break;
          case Job::Kind::Grab: {
            LockState& lk = locks_[static_cast<std::size_t>(job.lock_id)];
            if (lk.owner < 0) {
              lk.owner = idx;
              ++tally_.lock_acquires;
              if (obs_.sink != nullptr)
                obs_.sink->instant(obs::Category::Sync, "lock_acquire",
                                   now * 1e6, obs_.pid,
                                   static_cast<std::uint64_t>(idx));
              w.jobs.pop_front();
            } else {
              lk.waiters.push_back(idx);
              w.status = Worker::Status::Blocked;
              ++tally_.lock_contended;
              if (obs_.sink != nullptr)
                obs_.sink->begin(obs::Category::Sync, "lock_wait", now * 1e6,
                                 obs_.pid, static_cast<std::uint64_t>(idx));
            }
            break;
          }
          case Job::Kind::Release: {
            LockState& lk = locks_[static_cast<std::size_t>(job.lock_id)];
            TC3I_ASSERT(lk.owner == idx);
            w.jobs.pop_front();
            ++tally_.lock_releases;
            if (obs_.sink != nullptr)
              obs_.sink->instant(obs::Category::Sync, "lock_release",
                                 now * 1e6, obs_.pid,
                                 static_cast<std::uint64_t>(idx));
            if (lk.waiters.empty()) {
              lk.owner = -1;
            } else {
              const int next = lk.waiters.front();
              lk.waiters.pop_front();
              lk.owner = next;
              Worker& nw = workers_[static_cast<std::size_t>(next)];
              TC3I_ASSERT(nw.status == Worker::Status::Blocked);
              TC3I_ASSERT(!nw.jobs.empty() &&
                          nw.jobs.front().kind == Job::Kind::Grab);
              nw.jobs.pop_front();
              nw.status = Worker::Status::Run;
              ++tally_.lock_acquires;
              if (obs_.sink != nullptr) {
                obs_.sink->end(obs::Category::Sync, "lock_wait", now * 1e6,
                               obs_.pid, static_cast<std::uint64_t>(next));
                obs_.sink->instant(obs::Category::Sync, "lock_acquire",
                                   now * 1e6, obs_.pid,
                                   static_cast<std::uint64_t>(next));
              }
              settle_queue_.push_back(next);
            }
            break;
          }
        }
      }
    settled:;
    }
  }

  /// Resamples the piecewise-constant activity record onto the timeline
  /// store's fixed simulated-cycle grid (seconds -> cycles via clock_hz) so
  /// SMP timelines line up with MTA ones and are --jobs-independent.
  void export_timeline(const std::vector<TimelineSample>& samples,
                       Seconds elapsed);

  /// The run's event counts, added to the registry when run() ends.
  struct Tally {
    std::uint64_t threads_spawned = 0;
    std::uint64_t threads_finished = 0;
    std::uint64_t lock_acquires = 0;
    std::uint64_t lock_contended = 0;
    std::uint64_t lock_releases = 0;
    std::uint64_t water_fills = 0;
    std::uint64_t saturated_fills = 0;
  };

  const SmpConfig& cfg_;
  const ObsHooks& obs_;
  Tally tally_;
  std::vector<Worker> workers_;
  std::vector<LockState> locks_;
  const std::vector<ThreadTrace>* pool_ = nullptr;
  std::size_t next_task_ = 0;
  std::vector<int> settle_queue_;  ///< settle()'s work list, reused
};

void Engine::export_timeline(const std::vector<TimelineSample>& samples,
                             Seconds elapsed) {
  const std::uint64_t period = obs_.timeline->sample_period_cycles();
  const double cps = cfg_.clock_hz;
  const auto total_cycles =
      static_cast<std::uint64_t>(std::llround(elapsed * cps));
  const std::size_t buckets =
      static_cast<std::size_t>(total_cycles / period) +
      (total_cycles % period != 0 ? 1 : 0);
  std::vector<double> bus(buckets, 0.0);
  std::vector<double> running(buckets, 0.0);
  std::vector<double> blocked(buckets, 0.0);
  for (const TimelineSample& s : samples) {
    const double c0 = s.start * cps;
    const double c1 =
        std::min((s.start + s.duration) * cps, static_cast<double>(total_cycles));
    if (c1 <= c0) continue;
    auto k = static_cast<std::size_t>(c0 / static_cast<double>(period));
    for (; k < buckets; ++k) {
      const double lo =
          std::max(c0, static_cast<double>(k) * static_cast<double>(period));
      const double hi = std::min(
          c1, static_cast<double>(k + 1) * static_cast<double>(period));
      if (hi <= lo) break;
      bus[k] += (hi - lo) * s.bus_fraction;
      running[k] += (hi - lo) * static_cast<double>(s.running_threads);
      blocked[k] += (hi - lo) * static_cast<double>(s.blocked_threads);
    }
  }
  obs::MachineTimeline tl;
  tl.model = "smp";
  tl.name = cfg_.name.empty() ? "smp" : cfg_.name;
  tl.sample_period_cycles = period;
  obs::TimelineSeries bus_s{"bus_occupancy", {}};
  obs::TimelineSeries run_s{"running_threads", {}};
  obs::TimelineSeries blk_s{"blocked_threads", {}};
  for (std::size_t k = 0; k < buckets; ++k) {
    const std::uint64_t end =
        std::min((static_cast<std::uint64_t>(k) + 1) * period, total_cycles);
    const auto width =
        static_cast<double>(end - static_cast<std::uint64_t>(k) * period);
    bus_s.points.push_back({end, bus[k] / width});
    run_s.points.push_back({end, running[k] / width});
    blk_s.points.push_back({end, blocked[k] / width});
  }
  tl.series.push_back(std::move(bus_s));
  tl.series.push_back(std::move(run_s));
  tl.series.push_back(std::move(blk_s));
  obs_.timeline->add(std::move(tl));
}

RunResult Engine::run() {
  Seconds now = 0.0;
  double ops_done = 0.0;
  double bytes_done = 0.0;
  std::vector<TimelineSample> timeline;

  if (obs_.sink != nullptr)
    for (std::size_t i = 0; i < workers_.size(); ++i)
      obs_.sink->begin(obs::Category::Sched, "worker", 0.0, obs_.pid, i);

  for (std::size_t i = 0; i < workers_.size(); ++i)
    settle(static_cast<int>(i), now);

  std::vector<double> mem_caps;
  std::vector<double> mem_rates;
  std::vector<double> rates(workers_.size(), 0.0);

  for (;;) {
    // Count running workers and collect the memory-stage demanders.
    int running = 0;
    int done = 0;
    mem_caps.clear();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = workers_[i];
      if (w.status == Worker::Status::Done) {
        ++done;
      } else if (w.status == Worker::Status::Run) {
        ++running;
        TC3I_ASSERT(!w.jobs.empty());
        if (w.jobs.front().kind == Job::Kind::Mem)
          mem_caps.push_back(cfg_.mem_bw_single);
      }
    }
    if (done == static_cast<int>(workers_.size())) break;
    TC3I_ASSERT(running > 0 && "deadlock: all unfinished workers blocked");

    const double cpu_share =
        std::min(1.0, static_cast<double>(cfg_.num_processors) /
                          static_cast<double>(running));
    ++tally_.water_fills;
    if (sim::water_fill(cfg_.mem_bw_total, mem_caps, mem_rates))
      ++tally_.saturated_fills;

    // Per-worker progress rate in its current job's unit.
    std::size_t mem_cursor = 0;
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      rates[i] = 0.0;
      if (w.status != Worker::Status::Run) continue;
      const Job& job = w.jobs.front();
      switch (job.kind) {
        case Job::Kind::Sleep:
          rates[i] = 1.0;
          break;
        case Job::Kind::Overhead:
          rates[i] = cpu_share;
          break;
        case Job::Kind::Cpu:
          rates[i] = cfg_.compute_rate_ips * cpu_share;
          break;
        case Job::Kind::Mem:
          rates[i] = mem_rates[mem_cursor++];
          break;
        default:
          TC3I_ASSERT(false && "instantaneous job survived settle()");
      }
      TC3I_ASSERT(rates[i] > 0.0);
      dt = std::min(dt, job.amount / rates[i]);
    }
    TC3I_ASSERT(std::isfinite(dt));

    if (obs_.sink != nullptr || obs_.timeline != nullptr) {
      TimelineSample sample;
      sample.start = now;
      sample.duration = dt;
      double bus_rate = 0.0;
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        const Worker& w = workers_[i];
        if (w.status == Worker::Status::Blocked) {
          ++sample.blocked_threads;
        } else if (w.status == Worker::Status::Run) {
          ++sample.running_threads;
          if (w.jobs.front().kind == Job::Kind::Mem) bus_rate += rates[i];
        }
      }
      sample.bus_fraction = bus_rate / cfg_.mem_bw_total;
      if (obs_.sink != nullptr) {
        obs_.sink->counter(obs::Category::Memory, "bus_fraction", now * 1e6,
                           obs_.pid, sample.bus_fraction);
        obs_.sink->counter(obs::Category::Sched, "running_threads", now * 1e6,
                           obs_.pid,
                           static_cast<double>(sample.running_threads));
      }
      if (obs_.timeline != nullptr) timeline.push_back(sample);
    }

    // Advance everything by dt; jobs whose completion defined dt snap to 0.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      if (w.status == Worker::Status::Blocked) {
        w.lock_wait += dt;
        continue;
      }
      if (w.status != Worker::Status::Run) continue;
      Job& job = w.jobs.front();
      const double progress = rates[i] * dt;
      if (job.kind == Job::Kind::Cpu) ops_done += progress;
      if (job.kind == Job::Kind::Mem) bytes_done += progress;
      if (job.kind != Job::Kind::Sleep) w.busy += dt;
      if (job.amount <= progress * (1.0 + 1e-12))
        job.amount = 0.0;
      else
        job.amount -= progress;
    }
    now += dt;

    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      if (w.status == Worker::Status::Run && w.jobs.front().amount <= kDoneEps)
        settle(static_cast<int>(i), now);
    }
  }

  RunResult result;
  result.elapsed = now;
  result.ops_executed = static_cast<Instructions>(ops_done + 0.5);
  result.bytes_transferred = static_cast<Bytes>(bytes_done + 0.5);
  result.bus_utilization =
      (now > 0.0) ? bytes_done / (now * cfg_.mem_bw_total) : 0.0;
  for (const Worker& w : workers_) {
    result.lock_wait_total += w.lock_wait;
    result.thread_busy.push_back(w.busy);
    result.thread_finish.push_back(w.finish);
  }
  if (obs_.timeline != nullptr) export_timeline(timeline, now);

  if (obs_.records != nullptr) {
    obs::RunRecord rec;
    rec.model = "smp";
    rec.name = cfg_.name.empty() ? "smp" : cfg_.name;
    rec.processors = cfg_.num_processors;
    rec.threads = workers_.size();
    rec.elapsed_seconds = now;
    rec.bus_utilization = result.bus_utilization;
    const double capacity =
        now * cfg_.compute_rate_ips * static_cast<double>(cfg_.num_processors);
    rec.utilization = capacity > 0.0 ? ops_done / capacity : 0.0;
    rec.lock_wait_share =
        now > 0.0 ? result.lock_wait_total /
                        (now * static_cast<double>(cfg_.num_processors))
                  : 0.0;
    obs_.records->add(std::move(rec));
  }

  const std::pair<const char*, std::uint64_t> counts[] = {
      {"smp.runs", 1},
      {"smp.threads.spawned", tally_.threads_spawned},
      {"smp.threads.finished", tally_.threads_finished},
      {"smp.lock.acquires", tally_.lock_acquires},
      {"smp.lock.contended", tally_.lock_contended},
      {"smp.lock.releases", tally_.lock_releases},
      {"smp.ops_executed", result.ops_executed},
      {"smp.bytes_transferred", result.bytes_transferred},
      {"sim.fluid.water_fill.calls", tally_.water_fills},
      {"sim.fluid.water_fill.saturated", tally_.saturated_fills},
  };
  obs::CounterRegistry& reg = obs::default_registry();
  for (const auto& [name, n] : counts) reg.counter(name).add(n);
  return result;
}

}  // namespace

Machine::Machine(SmpConfig config) : config_(std::move(config)) {
  const std::string err = config_.validate();
  if (!err.empty())
    contract_failure("SmpConfig", err.c_str(), __FILE__, __LINE__);

  obs_.sink = obs::global_sink();
  obs_.records = obs::active_run_records();
  obs_.timeline = obs::active_timeline();
  if (obs_.sink != nullptr)
    obs_.pid = obs_.sink->register_track(
        config_.name.empty() ? "smp" : config_.name);
}

RunResult Machine::run_sequential(const sim::ThreadTrace& trace) const {
  Engine engine(config_, obs_, 1, 0, nullptr);
  engine.assign(0, trace);
  return engine.run();
}

RunResult Machine::run(const sim::WorkloadTrace& workload) const {
  const std::string err = workload.validate();
  if (!err.empty())
    contract_failure("WorkloadTrace", err.c_str(), __FILE__, __LINE__);
  TC3I_EXPECTS(!workload.threads.empty());
  Engine engine(config_, obs_, static_cast<int>(workload.threads.size()),
                workload.num_locks, nullptr);
  for (std::size_t i = 0; i < workload.threads.size(); ++i)
    engine.assign(static_cast<int>(i), workload.threads[i]);
  engine.add_spawn_stagger();
  return engine.run();
}

RunResult Machine::run_pool(const PoolWorkload& workload) const {
  const std::string err = workload.validate();
  if (!err.empty())
    contract_failure("PoolWorkload", err.c_str(), __FILE__, __LINE__);
  Engine engine(config_, obs_, workload.num_workers, workload.num_locks,
                &workload.tasks);
  engine.add_spawn_stagger();
  return engine.run();
}

}  // namespace tc3i::smp
