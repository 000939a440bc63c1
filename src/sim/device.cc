#include "sim/device.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace davinci {

Device::Device(ArchConfig arch, CostModel cost)
    : arch_(arch), cost_(cost) {
  DV_CHECK_GE(arch_.num_cores, 1);
  cores_.reserve(static_cast<std::size_t>(arch_.num_cores));
  for (int i = 0; i < arch_.num_cores; ++i) {
    cores_.push_back(std::make_unique<AiCore>(i, arch_, cost_));
  }
}

Device::RunResult Device::run(
    std::int64_t num_blocks,
    const std::function<void(AiCore&, std::int64_t)>& fn, bool parallel) {
  if (resilience_) {
    ResilienceOptions opts = *resilience_;
    opts.parallel = opts.parallel && parallel;
    return run_resilient(num_blocks, fn, opts);
  }

  DV_CHECK_GE(num_blocks, 0);
  const std::int64_t t0 = now_ns();
  const int cores_used =
      static_cast<int>(std::min<std::int64_t>(num_blocks, num_cores()));

  for (int c = 0; c < num_cores(); ++c) cores_[c]->reset_stats();

  // Every worker failure is recorded, not just the first: a multi-core
  // failure (e.g. a tiling bug that overflows UB on all 32 cores at once)
  // is reported with per-core context instead of one arbitrary winner.
  struct WorkerFailure {
    int core;
    std::int64_t block;
    std::string what;
  };
  std::vector<WorkerFailure> failures;
  std::mutex failures_mutex;

  // One lane per simulated core: the lane executes that core's blocks in
  // increasing order (BlockOrder invariant in device.h), regardless of
  // which pool worker picks the lane up.
  auto run_core = [&](int c) {
    AiCore& core = *cores_[static_cast<std::size_t>(c)];
    core.launch(cost_.core_launch_cycles);
    bool lane_failed = false;
    BlockOrder::for_core(c, num_blocks, num_cores(), [&](std::int64_t b) {
      if (lane_failed) return;
      core.reset_scratch();
      try {
        fn(core, b);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back({c, b, e.what()});
        lane_failed = true;
      } catch (...) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back({c, b, "unknown exception"});
        lane_failed = true;
      }
    });
  };

  if (parallel && cores_used > 1) {
    pool_.run(cores_used, run_core);
    if (!failures.empty()) {
      std::sort(failures.begin(), failures.end(),
                [](const WorkerFailure& a, const WorkerFailure& b) {
                  return a.core < b.core;
                });
      std::ostringstream os;
      os << failures.size() << " core(s) failed during Device::run:";
      for (const WorkerFailure& f : failures) {
        os << "\n  core " << f.core << " at block " << f.block << ": "
           << f.what;
      }
      throw Error(os.str());
    }
  } else {
    // Serial path (deterministic debugging): the first failure aborts,
    // annotated with the same "core C at block B" context as the parallel
    // path but keeping the original exception type (callers dispatch on
    // the Error hierarchy).
    auto context = [](int c, std::int64_t b, const char* what) {
      return "core " + std::to_string(c) + " at block " + std::to_string(b) +
             ": " + what;
    };
    for (int c = 0; c < cores_used; ++c) {
      AiCore& core = *cores_[static_cast<std::size_t>(c)];
      core.launch(cost_.core_launch_cycles);
      BlockOrder::for_core(c, num_blocks, num_cores(), [&](std::int64_t b) {
        core.reset_scratch();
        try {
          fn(core, b);
        } catch (const TransientFault& e) {
          throw TransientFault(context(c, b, e.what()));
        } catch (const CoreFailed& e) {
          throw CoreFailed(e.core(), context(c, b, e.what()));
        } catch (const RetryExhausted& e) {
          throw RetryExhausted(context(c, b, e.what()));
        } catch (const Error& e) {
          throw Error(context(c, b, e.what()));
        } catch (const std::exception& e) {
          throw Error(context(c, b, e.what()));
        }
      });
    }
  }

  RunResult result = collect_result(cores_used);
  result.host_ns = now_ns() - t0;
  result.host_execute_ns = result.host_ns;
  return result;
}

Device::RunResult Device::collect_result(int cores_used) {
  RunResult result;
  result.cores_used = cores_used;
  result.core_cycles.resize(static_cast<std::size_t>(cores_used));
  std::vector<const PipeScheduler*> scheds;
  scheds.reserve(static_cast<std::size_t>(cores_used));
  for (int c = 0; c < cores_used; ++c) {
    AiCore& core = *cores_[static_cast<std::size_t>(c)];
    const CycleStats& s = core.stats();
    const std::int64_t makespan = core.sched().makespan();
    result.core_cycles[static_cast<std::size_t>(c)] = makespan;
    result.aggregate += s;
    result.profile += core.profile();
    result.device_cycles = std::max(result.device_cycles, makespan);
    result.device_cycles_serial =
        std::max(result.device_cycles_serial, s.total_cycles());
    result.device_cycles_pipelined =
        std::max(result.device_cycles_pipelined, s.pipelined_cycles());
    result.busiest_unit_cycles = std::max(
        result.busiest_unit_cycles, core.sched().busiest_unit_busy());
    scheds.push_back(&core.sched());
  }
  result.attribution = attribute_cores(scheds);

  // Hand the captured launch timeline to the attached instruction-stream
  // VM: the stream shifts the whole launch onto its cross-launch tracks
  // and returns the scheduled start. Launch outputs are not registered:
  // serving outputs are never re-read by a later launch, and a recycled
  // arena address must not alias a retired buffer, so no later launch
  // could ever match an output id -- recording one per launch would only
  // grow the stream's buffer table without bound.
  if (vm_stream_ != nullptr) {
    vm::VmLaunch launch;
    launch.label = std::move(vm_label_);
    vm_label_.clear();
    launch.reads = std::move(vm_reads_);
    vm_reads_.clear();
    launch.makespan = result.device_cycles;
    const bool capture = vm_stream_->options().capture;
    launch.cores.reserve(static_cast<std::size_t>(cores_used));
    for (int c = 0; c < cores_used; ++c) {
      const PipeScheduler& sched = cores_[static_cast<std::size_t>(c)]->sched();
      vm::CoreWork cw;
      cw.core = c;
      cw.makespan = sched.makespan();
      for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
        const Pipe p = static_cast<Pipe>(pi);
        cw.pipes[pi] = {sched.busy(p), sched.flag(p), sched.first_busy(p),
                        sched.last_busy(p)};
      }
      if (capture) {
        cw.intervals = sched.intervals();
        cw.tile_marks = sched.tile_marks();
      }
      launch.cores.push_back(std::move(cw));
    }
    result.vm_start = vm_stream_->enqueue(std::move(launch));
    result.vm_end = result.vm_start + result.device_cycles;
  }
  return result;
}

// Shared scheduling state of one resilient run. All fields are guarded by
// `m`; per-core fault state is touched only by its own worker.
struct Device::Sched {
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::deque<std::int64_t>> queue;  // per launched worker
  std::vector<int> execs;                       // per-block executions
  std::vector<char> quarantined;                // per launched worker
  std::int64_t blocks_done = 0;
  std::int64_t num_blocks = 0;
  int rr = 0;  // round-robin cursor for redistribution
  bool failed = false;
  bool exhausted = false;  // failure is a retry/quarantine exhaustion
  std::string failure;
  FaultStats run_stats;  // quarantine / redispatch counters
};

bool Device::process_block(
    int c, std::int64_t block, Sched& s,
    const std::function<void(AiCore&, std::int64_t)>& fn,
    const ResilienceOptions& opts, CoreFaultState& st) {
  AiCore& core = *cores_[static_cast<std::size_t>(c)];
  // Budget: each of the (max_retries + 1) allowed attempts is one
  // execution, or a redundant pair under verification.
  const int exec_budget = (opts.max_retries + 1) * (opts.verify ? 2 : 1);
  // CRCs of completed executions of this block; the block is accepted as
  // soon as two of them agree (majority vote over attempts).
  std::vector<std::uint64_t> seen_crcs;

  while (true) {
    int exec_no = 0;
    {
      std::lock_guard<std::mutex> lk(s.m);
      if (s.failed) return false;
      if (s.execs[static_cast<std::size_t>(block)] >= exec_budget) {
        s.failed = true;
        s.exhausted = true;
        s.failure =
            "retry budget exhausted: block " + std::to_string(block) +
            " still unverified after " +
            std::to_string(s.execs[static_cast<std::size_t>(block)]) +
            " execution(s) (max_retries=" + std::to_string(opts.max_retries) +
            ", last core " + std::to_string(c) + ")";
        s.cv.notify_all();
        return false;
      }
      s.execs[static_cast<std::size_t>(block)] += 1;
      exec_no = s.execs[static_cast<std::size_t>(block)];
    }
    if (!seen_crcs.empty()) st.stats().verification_runs += 1;

    try {
      if (opts.verify) {
        // Scrub with an attempt-varying pattern: otherwise a truncated
        // reload is masked by the previous attempt's identical stale data
        // and two faulty executions can agree on the same wrong output.
        core.scrub_scratch(
            static_cast<std::byte>(0xA5u ^ static_cast<unsigned>(exec_no * 17)));
      }
      core.reset_scratch();
      st.begin_execution(block, opts.verify);
      st.check_core_alive(block);
      fn(core, block);
    } catch (const CoreFailed&) {
      // Hard failure: quarantine this core and hand the current block plus
      // everything left in its queue to the healthy cores, round-robin in
      // block order (deterministic given the quarantine point).
      core.sched().abandon_stage();
      std::lock_guard<std::mutex> lk(s.m);
      st.stats().faults_detected += 1;
      s.run_stats.cores_quarantined += 1;
      s.quarantined[static_cast<std::size_t>(c)] = 1;
      std::deque<std::int64_t> moved;
      moved.push_back(block);
      for (std::int64_t x : s.queue[static_cast<std::size_t>(c)]) {
        moved.push_back(x);
      }
      s.queue[static_cast<std::size_t>(c)].clear();
      const int launched = static_cast<int>(s.queue.size());
      for (std::int64_t x : moved) {
        int target = -1;
        for (int tries = 0; tries < launched; ++tries) {
          const int cand = s.rr;
          s.rr = (s.rr + 1) % launched;
          if (!s.quarantined[static_cast<std::size_t>(cand)]) {
            target = cand;
            break;
          }
        }
        if (target < 0) {
          s.failed = true;
          s.exhausted = true;
          s.failure = "all " + std::to_string(launched) +
                      " core(s) quarantined with " +
                      std::to_string(s.num_blocks - s.blocks_done) +
                      " block(s) unfinished";
          break;
        }
        s.queue[static_cast<std::size_t>(target)].push_back(x);
        s.run_stats.blocks_redispatched += 1;
      }
      s.cv.notify_all();
      return false;
    } catch (const TransientFault&) {
      // Detected transient: same core retries with fresh scratch. The
      // aborted execution contributes no CRC vote.
      core.sched().abandon_stage();
      st.stats().faults_detected += 1;
      st.stats().retries += 1;
      continue;
    } catch (const std::exception& e) {
      // A genuine kernel/scheduling error, not an injected fault: retrying
      // cannot help, abort the run with context.
      std::lock_guard<std::mutex> lk(s.m);
      if (!s.failed) {
        s.failed = true;
        s.failure = "core " + std::to_string(c) + " failed at block " +
                    std::to_string(block) + ": " + e.what();
      }
      s.cv.notify_all();
      return false;
    }

    if (!opts.verify) {
      st.accept_execution();
      break;
    }
    const std::uint64_t crc = st.crc();
    const bool confirmed =
        std::find(seen_crcs.begin(), seen_crcs.end(), crc) != seen_crcs.end();
    if (confirmed) {
      st.accept_execution();
      break;
    }
    if (!seen_crcs.empty()) {
      // Executions disagree: at least one was silently corrupted.
      st.stats().faults_detected += 1;
      st.stats().retries += 1;
    }
    seen_crcs.push_back(crc);
  }

  {
    std::lock_guard<std::mutex> lk(s.m);
    s.blocks_done += 1;
    if (s.blocks_done == s.num_blocks) s.cv.notify_all();
  }
  return true;
}

Device::RunResult Device::run_resilient(
    std::int64_t num_blocks,
    const std::function<void(AiCore&, std::int64_t)>& fn,
    const ResilienceOptions& opts) {
  DV_CHECK_GE(num_blocks, 0);
  DV_CHECK_GE(opts.max_retries, 0);
  const std::int64_t t0 = now_ns();
  for (const CoreFailTrigger& t : opts.plan.core_failures) {
    DV_CHECK(t.core >= 0 && t.core < num_cores())
        << "core_fail trigger targets core " << t.core << " but the device "
        << "has " << num_cores() << " cores";
  }
  const int cores_used =
      static_cast<int>(std::min<std::int64_t>(num_blocks, num_cores()));

  for (int c = 0; c < num_cores(); ++c) cores_[c]->reset_stats();

  // Arm one deterministic fault stream per core; detach on every exit
  // path so a later plain run() pays zero overhead.
  std::vector<std::unique_ptr<CoreFaultState>> states;
  states.reserve(cores_.size());
  for (int c = 0; c < num_cores(); ++c) {
    states.push_back(std::make_unique<CoreFaultState>(opts.plan, c));
    cores_[static_cast<std::size_t>(c)]->set_fault_state(states.back().get());
  }
  struct Disarm {
    Device* dev;
    ~Disarm() {
      for (int c = 0; c < dev->num_cores(); ++c) {
        dev->cores_[static_cast<std::size_t>(c)]->set_fault_state(nullptr);
      }
    }
  } disarm{this};

  Sched s;
  s.num_blocks = num_blocks;
  s.queue.resize(static_cast<std::size_t>(cores_used));
  s.execs.assign(static_cast<std::size_t>(num_blocks), 0);
  s.quarantined.assign(static_cast<std::size_t>(cores_used), 0);
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    // Identical initial assignment to run(): the BlockOrder home core.
    s.queue[static_cast<std::size_t>(BlockOrder::home_core(b, num_cores()))]
        .push_back(b);
  }

  auto worker = [&](int c) {
    AiCore& core = *cores_[static_cast<std::size_t>(c)];
    CoreFaultState& st = *states[static_cast<std::size_t>(c)];
    core.launch(cost_.core_launch_cycles);
    while (true) {
      std::int64_t b;
      {
        std::unique_lock<std::mutex> lk(s.m);
        s.cv.wait(lk, [&] {
          return s.failed || s.quarantined[static_cast<std::size_t>(c)] ||
                 !s.queue[static_cast<std::size_t>(c)].empty() ||
                 s.blocks_done == s.num_blocks;
        });
        if (s.failed || s.quarantined[static_cast<std::size_t>(c)]) return;
        if (s.queue[static_cast<std::size_t>(c)].empty()) return;  // done
        b = s.queue[static_cast<std::size_t>(c)].front();
        s.queue[static_cast<std::size_t>(c)].pop_front();
      }
      if (!process_block(c, b, s, fn, opts, st)) return;
    }
  };

  if (opts.parallel && cores_used > 1) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(cores_used));
    for (int c = 0; c < cores_used; ++c) workers.emplace_back(worker, c);
    for (auto& w : workers) w.join();
  } else if (cores_used > 0) {
    // Serial scheduler: drain per-core queues in repeated passes so
    // redistributed blocks still execute. Per-core order -- and therefore
    // every fault stream -- matches the parallel path.
    for (int c = 0; c < cores_used; ++c) {
      cores_[static_cast<std::size_t>(c)]->launch(cost_.core_launch_cycles);
    }
    bool progress = true;
    while (!s.failed && s.blocks_done < num_blocks && progress) {
      progress = false;
      for (int c = 0; c < cores_used && !s.failed; ++c) {
        if (s.quarantined[static_cast<std::size_t>(c)]) continue;
        while (!s.queue[static_cast<std::size_t>(c)].empty()) {
          const std::int64_t b = s.queue[static_cast<std::size_t>(c)].front();
          s.queue[static_cast<std::size_t>(c)].pop_front();
          progress = true;
          if (!process_block(c, b, s, fn, opts,
                             *states[static_cast<std::size_t>(c)])) {
            break;
          }
        }
      }
    }
    if (!s.failed && s.blocks_done < num_blocks) {
      s.failed = true;
      s.failure = "internal: serial resilient scheduler stalled";
    }
  }

  FaultStats total = s.run_stats;
  for (int c = 0; c < num_cores(); ++c) {
    total += states[static_cast<std::size_t>(c)]->stats();
  }

  if (s.failed) {
    const std::string msg = s.failure + " | fault stats: " + total.summary() +
                            " | plan: " + opts.plan.to_string();
    if (s.exhausted) throw RetryExhausted(msg);
    throw Error(msg);
  }

  RunResult result = collect_result(cores_used);
  result.faults = total;
  result.host_ns = now_ns() - t0;
  result.host_execute_ns = result.host_ns;
  return result;
}

}  // namespace davinci
