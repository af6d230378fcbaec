#include "smp/machine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "core/contracts.hpp"
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
      obs_.threads_spawned->add();
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
    std::deque<int> work{wi};
    while (!work.empty()) {
      const int idx = work.front();
      work.pop_front();
      Worker& w = workers_[static_cast<std::size_t>(idx)];
      while (w.status == Worker::Status::Run) {
        if (w.jobs.empty()) {
          refill(w, now);
          if (w.status == Worker::Status::Done) {
            obs_.threads_finished->add();
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
              obs_.lock_acquires->add();
              if (obs_.sink != nullptr)
                obs_.sink->instant(obs::Category::Sync, "lock_acquire",
                                   now * 1e6, obs_.pid,
                                   static_cast<std::uint64_t>(idx));
              w.jobs.pop_front();
            } else {
              lk.waiters.push_back(idx);
              w.status = Worker::Status::Blocked;
              obs_.lock_contended->add();
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
            obs_.lock_releases->add();
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
              obs_.lock_acquires->add();
              if (obs_.sink != nullptr) {
                obs_.sink->end(obs::Category::Sync, "lock_wait", now * 1e6,
                               obs_.pid, static_cast<std::uint64_t>(next));
                obs_.sink->instant(obs::Category::Sync, "lock_acquire",
                                   now * 1e6, obs_.pid,
                                   static_cast<std::uint64_t>(next));
              }
              work.push_back(next);
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

  const SmpConfig& cfg_;
  const ObsHooks& obs_;
  std::vector<Worker> workers_;
  std::vector<LockState> locks_;
  const std::vector<ThreadTrace>* pool_ = nullptr;
  std::size_t next_task_ = 0;
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
  std::vector<int> mem_workers;
  std::vector<double> rates(workers_.size(), 0.0);

  for (;;) {
    // Count running workers and collect the memory-stage demanders.
    int running = 0;
    int done = 0;
    mem_caps.clear();
    mem_workers.clear();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = workers_[i];
      if (w.status == Worker::Status::Done) {
        ++done;
      } else if (w.status == Worker::Status::Run) {
        ++running;
        TC3I_ASSERT(!w.jobs.empty());
        if (w.jobs.front().kind == Job::Kind::Mem) {
          mem_workers.push_back(static_cast<int>(i));
          mem_caps.push_back(cfg_.mem_bw_single);
        }
      }
    }
    if (done == static_cast<int>(workers_.size())) break;
    TC3I_ASSERT(running > 0 && "deadlock: all unfinished workers blocked");

    const double cpu_share =
        std::min(1.0, static_cast<double>(cfg_.num_processors) /
                          static_cast<double>(running));
    const std::vector<double> mem_rates =
        sim::water_fill(cfg_.mem_bw_total, mem_caps);

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

  obs_.ops_executed->add(result.ops_executed);
  obs_.bytes_transferred->add(result.bytes_transferred);
  obs_.run_elapsed_seconds->record(result.elapsed);
  obs_.lock_wait_seconds->record(result.lock_wait_total);
  obs_.last_bus_utilization->set(result.bus_utilization);
  return result;
}

}  // namespace

Machine::Machine(SmpConfig config) : config_(std::move(config)) {
  const std::string err = config_.validate();
  if (!err.empty())
    contract_failure("SmpConfig", err.c_str(), __FILE__, __LINE__);

  obs::CounterRegistry& reg = obs::default_registry();
  obs_.runs = &reg.counter("smp.runs");
  obs_.threads_spawned = &reg.counter("smp.threads.spawned");
  obs_.threads_finished = &reg.counter("smp.threads.finished");
  obs_.lock_acquires = &reg.counter("smp.lock.acquires");
  obs_.lock_contended = &reg.counter("smp.lock.contended");
  obs_.lock_releases = &reg.counter("smp.lock.releases");
  obs_.ops_executed = &reg.counter("smp.ops_executed");
  obs_.bytes_transferred = &reg.counter("smp.bytes_transferred");
  obs_.run_elapsed_seconds = &reg.histogram("smp.run.elapsed_seconds");
  obs_.lock_wait_seconds = &reg.histogram("smp.run.lock_wait_seconds");
  obs_.last_bus_utilization = &reg.gauge("smp.last.bus_utilization");
  obs_.sink = obs::global_sink();
  obs_.records = obs::active_run_records();
  obs_.timeline = obs::active_timeline();
  if (obs_.sink != nullptr)
    obs_.pid = obs_.sink->register_track(
        config_.name.empty() ? "smp" : config_.name);
}

RunResult Machine::run_sequential(const sim::ThreadTrace& trace) const {
  obs_.runs->add();
  Engine engine(config_, obs_, 1, 0, nullptr);
  engine.assign(0, trace);
  return engine.run();
}

RunResult Machine::run(const sim::WorkloadTrace& workload) const {
  const std::string err = workload.validate();
  if (!err.empty())
    contract_failure("WorkloadTrace", err.c_str(), __FILE__, __LINE__);
  TC3I_EXPECTS(!workload.threads.empty());
  obs_.runs->add();
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
  obs_.runs->add();
  Engine engine(config_, obs_, workload.num_workers, workload.num_locks,
                &workload.tasks);
  engine.add_spawn_stagger();
  return engine.run();
}

}  // namespace tc3i::smp
