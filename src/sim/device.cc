#include "sim/device.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>

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

// One used core's state within a run. During a round only the core's own
// lane touches it; between rounds only the scheduler does (the pool's
// join orders the two).
struct Device::Lane {
  std::vector<std::int64_t> todo;     // blocks to run in the next round
  std::vector<std::int64_t> orphans;  // left unfinished by a hard failure
  std::optional<CoreFaultState> faults;  // armed in resilient runs only
  bool quarantined = false;
  bool exhausted = false;  // `failure` is an exhausted retry budget
  std::string failure;     // "core C at block B: ..." once the lane failed

  void fail(int c, std::int64_t b, const std::string& what) {
    failure = "core " + std::to_string(c) + " at block " +
              std::to_string(b) + ": " + what;
  }
};

Device::RunResult Device::run(std::int64_t num_blocks, const BlockFn& fn) {
  DV_CHECK_GE(num_blocks, 0);
  const ResilienceOptions* opts = resilience_ ? &*resilience_ : nullptr;
  if (opts != nullptr) {
    DV_CHECK_GE(opts->max_retries, 0);
    for (const CoreFailTrigger& t : opts->plan.core_failures) {
      DV_CHECK(t.core >= 0 && t.core < num_cores())
          << "core_fail trigger targets core " << t.core << " but the "
          << "device has " << num_cores() << " cores";
    }
  }
  const std::int64_t t0 = now_ns();
  const int cores_used =
      static_cast<int>(std::min<std::int64_t>(num_blocks, num_cores()));

  for (int c = 0; c < num_cores(); ++c) cores_[c]->reset_stats();

  std::vector<Lane> lanes(static_cast<std::size_t>(cores_used));
  std::vector<int> execs;  // executions per block (resilient runs)
  // Arm one deterministic fault stream per core; detach on every exit
  // path so a later plain run pays zero overhead.
  struct Disarm {
    Device* dev;
    int cores;
    ~Disarm() {
      for (int c = 0; c < cores; ++c) dev->cores_[c]->set_fault_state(nullptr);
    }
  } disarm{this, opts != nullptr ? cores_used : 0};
  if (opts != nullptr) {
    execs.assign(static_cast<std::size_t>(num_blocks), 0);
    for (int c = 0; c < cores_used; ++c) {
      Lane& l = lanes[static_cast<std::size_t>(c)];
      cores_[c]->set_fault_state(&l.faults.emplace(opts->plan, c));
      BlockOrder::for_core(c, num_blocks, num_cores(), [&](std::int64_t b) {
        l.todo.push_back(b);
        return true;
      });
    }
  }

  int round = 0;
  std::vector<int> next;  // lanes of the next round (rounds >= 1)
  auto run_lane = [&](int task) {
    const int c = round == 0 ? task : next[static_cast<std::size_t>(task)];
    Lane& l = lanes[static_cast<std::size_t>(c)];
    AiCore& core = *cores_[static_cast<std::size_t>(c)];
    if (round == 0) core.launch(cost_.core_launch_cycles);
    if (opts == nullptr) {
      BlockOrder::for_core(c, num_blocks, num_cores(), [&](std::int64_t b) {
        core.reset_scratch();
        try {
          fn(core, b);
          return true;
        } catch (const std::exception& e) {
          l.fail(c, b, e.what());
        } catch (...) {
          l.fail(c, b, "unknown exception");
        }
        return false;
      });
      return;
    }
    for (std::size_t i = 0; i < l.todo.size(); ++i) {
      process_block(c, l.todo[i], l, fn, *opts, execs);
      if (l.quarantined) {
        l.orphans.assign(l.todo.begin() + static_cast<std::ptrdiff_t>(i),
                         l.todo.end());
      }
      if (l.quarantined || !l.failure.empty()) break;
    }
    l.todo.clear();
  };

  FaultStats faults;  // the scheduler's redispatch count, then the cores'
  std::string lost;   // set when no healthy core is left
  int rr = 0;         // round-robin cursor over the lanes
  for (int lanes_to_run = cores_used; lanes_to_run > 0;
       lanes_to_run = static_cast<int>(next.size()), ++round) {
    pool_.run(lanes_to_run, run_lane);
    if (opts == nullptr) break;
    next.clear();
    std::int64_t orphaned = 0;
    bool failed = false;
    bool healthy = false;
    for (const Lane& l : lanes) {
      orphaned += static_cast<std::int64_t>(l.orphans.size());
      failed = failed || !l.failure.empty();
      healthy = healthy || !l.quarantined;
    }
    if (failed || orphaned == 0) break;
    if (!healthy) {
      lost = "all " + std::to_string(cores_used) +
             " core(s) quarantined with " + std::to_string(orphaned) +
             " block(s) unfinished";
      break;
    }
    // Hand the unfinished blocks out in core-id order, round-robin over
    // the healthy cores.
    for (Lane& from : lanes) {
      for (std::int64_t b : from.orphans) {
        int to = rr;
        while (lanes[static_cast<std::size_t>(to)].quarantined) {
          to = (to + 1) % cores_used;
        }
        rr = (to + 1) % cores_used;
        auto& todo = lanes[static_cast<std::size_t>(to)].todo;
        if (todo.empty()) next.push_back(to);
        todo.push_back(b);
        faults.blocks_redispatched += 1;
      }
      from.orphans.clear();
    }
  }

  std::string detail;      // one line per failed lane, in core order
  int failed = 0;
  bool exhausted = true;   // every failure is an exhausted retry budget
  for (Lane& l : lanes) {
    if (l.faults) faults += l.faults->stats();
    if (l.failure.empty()) continue;
    failed += 1;
    exhausted = exhausted && l.exhausted;
    detail += "\n  " + l.failure;
  }
  if (failed > 0 || !lost.empty()) {
    std::string msg = failed == 0 ? lost
                                  : std::to_string(failed) +
                                        " core(s) failed during Device::run:" +
                                        detail;
    if (opts == nullptr) throw Error(msg);
    msg += " | fault stats: " + faults.summary() +
           " | plan: " + opts->plan.to_string();
    if (exhausted) throw RetryExhausted(msg);
    throw Error(msg);
  }

  RunResult result = collect_result(cores_used);
  result.faults = faults;
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

void Device::process_block(int c, std::int64_t block, Lane& l,
                           const BlockFn& fn, const ResilienceOptions& opts,
                           std::vector<int>& execs) {
  AiCore& core = *cores_[static_cast<std::size_t>(c)];
  CoreFaultState& st = *l.faults;
  // Budget: each of the (max_retries + 1) allowed attempts is one
  // execution, or a redundant pair under verification. A block's count
  // follows it when it is handed to another core.
  const int exec_budget = (opts.max_retries + 1) * (opts.verify ? 2 : 1);
  int& exec_no = execs[static_cast<std::size_t>(block)];
  // CRCs of completed executions of this block; the block is accepted as
  // soon as two of them agree (majority vote over attempts).
  std::vector<std::uint64_t> seen_crcs;

  while (true) {
    if (exec_no >= exec_budget) {
      l.exhausted = true;
      l.fail(c, block,
             "retry budget exhausted: still unverified after " +
                 std::to_string(exec_no) + " execution(s) (max_retries=" +
                 std::to_string(opts.max_retries) + ")");
      return;
    }
    exec_no += 1;
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
      // Hard failure: quarantine this core; the scheduler hands this
      // block and the rest of the lane to the healthy cores.
      core.sched().abandon_stage();
      st.stats().faults_detected += 1;
      st.stats().cores_quarantined += 1;
      l.quarantined = true;
      return;
    } catch (const TransientFault&) {
      // Detected transient: same core retries with fresh scratch. The
      // aborted execution contributes no CRC vote.
      core.sched().abandon_stage();
      st.stats().faults_detected += 1;
      st.stats().retries += 1;
      continue;
    } catch (const std::exception& e) {
      // A genuine kernel/scheduling error, not an injected fault: retrying
      // cannot help, fail the run with context.
      l.fail(c, block, e.what());
      return;
    } catch (...) {
      l.fail(c, block, "unknown exception");
      return;
    }

    if (!opts.verify) {
      st.accept_execution();
      return;
    }
    const std::uint64_t crc = st.crc();
    if (std::find(seen_crcs.begin(), seen_crcs.end(), crc) !=
        seen_crcs.end()) {
      st.accept_execution();
      return;
    }
    if (!seen_crcs.empty()) {
      // Executions disagree: at least one was silently corrupted.
      st.stats().faults_detected += 1;
      st.stats().retries += 1;
    }
    seen_crcs.push_back(crc);
  }
}

}  // namespace davinci
