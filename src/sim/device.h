// The Ascend-910-like device: 32 AI Cores sharing global memory.
//
// The paper parallelizes pooling by splitting the outer loops (mainly C1)
// across AI Cores; each core computes a share of the output ("the outer
// loops are parallelized between the AI Cores available on the target
// device", Section IV-A). The simulator distributes tile blocks
// round-robin over the cores and executes them on a real thread pool --
// blocks must write disjoint regions of global memory, which all kernels
// in this repository guarantee by construction.
//
// The device-level time of a kernel is the *maximum* per-core cycle count
// (cores run concurrently) plus a per-core launch overhead. Per-core time
// is the makespan of the core's pipe-overlap schedule
// (sim/pipe_schedule.h); for kernels that never open a stage it equals
// the serial cycle sum, which stays reported as device_cycles_serial.
//
// One block scheduler runs every launch, plain or fault-tolerant:
//   * lanes -- each used core is one lane on the device's own
//     WorkStealingPool (sim/executor.h); a lane runs its core's blocks in
//     order on one host thread, so which pool worker picks the lane up
//     never changes what it computes or charges;
//   * rounds -- round 0 runs block b on core (b mod num_cores)
//     (BlockOrder), in increasing block order. Under a resilience policy
//     a core that fails hard stops, and between rounds the blocks it left
//     unfinished are handed out in core-id order, round-robin over the
//     healthy cores; the next round runs only the lanes that received
//     blocks. The schedule is a function of the fault plan alone, never
//     of host thread timing, so outputs, per-core cycles and fault stats
//     replay bit for bit, whatever the number of failures;
//   * each used core is charged its launch overhead once per run.
//
// Resilient execution (set_resilience) adds the RAS layer a production
// fleet needs on top of that: deterministic fault injection
// (sim/fault.h), bounded per-block retry, quarantine of hard-failed cores
// with redistribution of their remaining blocks, and optional
// redundant-execution verification of each block's global-memory stores.
// Blocks must be idempotent -- recompute their output region from inputs
// rather than accumulate into it -- which every kernel here already
// satisfies (a retried block simply overwrites its region).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "sim/ai_core.h"
#include "sim/executor.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/stats.h"
#include "sim/vm/stream.h"

namespace davinci {

// The canonical block -> core accounting rule of round 0 (see above).
struct BlockOrder {
  // Invokes fn(block) for the blocks of `core`, in execution order, until
  // fn returns false.
  template <typename Fn>
  static void for_core(int core, std::int64_t num_blocks, int num_cores,
                       Fn&& fn) {
    for (std::int64_t b = core; b < num_blocks; b += num_cores) {
      if (!fn(b)) return;
    }
  }
};

class Device {
 public:
  explicit Device(ArchConfig arch = ArchConfig::ascend910(),
                  CostModel cost = CostModel::calibrated());

  int num_cores() const { return static_cast<int>(cores_.size()); }
  AiCore& core(int i) { return *cores_.at(static_cast<std::size_t>(i)); }
  const ArchConfig& arch() const { return arch_; }
  const CostModel& cost() const { return cost_; }

  struct RunResult {
    std::int64_t device_cycles = 0;       // max over used cores of the
                                          // modeled overlapped makespan
                                          // (== serial for unstaged code)
    std::int64_t device_cycles_serial = 0;  // max over used cores of the
                                            // strictly serial cycle sum
    std::int64_t device_cycles_pipelined = 0;  // optimistic pipe-overlap
                                               // bound (see CycleStats)
    std::int64_t busiest_unit_cycles = 0;  // max over used cores of the
                                           // busiest single unit's busy
                                           // time (sandwich lower bound)
    // Host wall-clock of the whole launch, split into attribution
    // buckets. Device::run fills host_execute_ns (the simulation itself);
    // the kernel drivers (kernels/) add what they spend around it --
    // tensor allocation, tiling-plan computation, descriptor/shape
    // validation -- and keep host_ns the exact bucket sum. Invariant
    // (asserted by tests, serialized in metrics schema v4):
    //   host_alloc_ns + host_plan_ns + host_validate_ns +
    //   host_execute_ns == host_ns.
    std::int64_t host_ns = 0;
    std::int64_t host_alloc_ns = 0;     // output-tensor construction
    std::int64_t host_plan_ns = 0;      // akg::plan_fwd / plan_bwd
    std::int64_t host_validate_ns = 0;  // descriptor/shape checks
    std::int64_t host_execute_ns = 0;   // inside Device::run
    CycleStats aggregate;                 // sum over used cores
    std::vector<std::int64_t> core_cycles;  // per-core overlapped makespan
    int cores_used = 0;
    FaultStats faults;                    // all-zero outside resilient runs
    // Per-pipe busy/wait/flag/idle buckets and the critical core's
    // bounding chain (sim/metrics.h); attribution.horizon == device_cycles.
    DeviceAttribution attribution;
    // When a VmStream is attached (set_vm_stream), the launch's scheduled
    // span on the cross-launch stream timeline; vm_end == 0 means the
    // launch was not stream-placed.
    std::int64_t vm_start = 0;
    std::int64_t vm_end = 0;
  };

  using BlockFn = std::function<void(AiCore&, std::int64_t)>;

  // Executes blocks [0, num_blocks) with `fn(core, block_index)` on the
  // block scheduler above. Scratch is reset before every block and core
  // stats are reset before the run.
  //
  // Every lane failure is recorded -- not just the first -- and the
  // rethrown Error lists (core id, block index, message) for each failed
  // core, in core order. Under a resilience policy the message also
  // carries the fault report, and a run that only ran out of retries or
  // healthy cores throws RetryExhausted.
  RunResult run(std::int64_t num_blocks, const BlockFn& fn);

  // Installs a resilience policy under which every subsequent run() (and
  // therefore every kernel executed on this device) is fault-tolerant:
  //  * the fault plan is armed on every core for the duration of a run;
  //  * a block whose execution throws a detected fault (TransientFault) is
  //    retried on the same core with fresh scratch;
  //  * a core that throws CoreFailed is quarantined and its unfinished
  //    blocks are handed to the healthy cores for the next round, so the
  //    run completes with fewer cores and honestly larger device_cycles;
  //  * with opts.verify, each block's global-memory stores are checksummed
  //    on the MTE store path and the block re-executed until two
  //    executions agree (majority vote over attempts) -- silent
  //    corruption becomes a detected-and-retried fault;
  //  * every block has a bounded execution budget,
  //    (max_retries + 1) * (verify ? 2 : 1); exhausting it, or running
  //    out of healthy cores, throws RetryExhausted with the fault report
  //    in the message.
  //
  // With an empty plan and verification off, the result (output bits,
  // per-core cycles, device_cycles) is identical to a run without a
  // policy -- the resilience layer costs nothing when disabled. See
  // docs/RESILIENCE.md for the replay guarantees.
  void set_resilience(const ResilienceOptions& opts) { resilience_ = opts; }
  void clear_resilience() { resilience_.reset(); }
  const std::optional<ResilienceOptions>& resilience() const {
    return resilience_;
  }

  // Ping-pong (double) buffering policy consulted by the tiled kernels:
  // on (the default), they plan two UB tile slots when the budget allows
  // and issue their tile loops as overlapping stages; off, they run the
  // strictly serial single-buffer schedule (device_cycles then equals
  // device_cycles_serial). Outputs are bit-identical either way.
  void set_double_buffer(bool on) { double_buffer_ = on; }
  bool double_buffer() const { return double_buffer_; }

  // --- Async instruction-stream VM (sim/vm/, docs/ASYNC_VM.md) ----------
  // With a stream attached, every completed launch's captured per-core
  // pipe timeline is enqueued on it: the stream schedules launches to
  // overlap across batch boundaries, so the *stream's* makespan models
  // the trace's device time while each RunResult keeps its own per-launch
  // makespan. Functional execution is untouched -- outputs are
  // bit-identical with and without a stream. The stream pointer and the
  // staged annotation are driven by a single launcher thread (the serving
  // worker); they are intentionally not synchronized.
  void set_vm_stream(vm::VmStream* stream) { vm_stream_ = stream; }
  vm::VmStream* vm_stream() const { return vm_stream_; }

  // Stages the next launch's identity for the stream: a display label and
  // the input buffers it reads (dependency tracking). Consumed by the
  // next collect_result; kernels::PoolLaunch::run stages this
  // automatically when a stream is attached.
  void annotate_vm_launch(std::string label, std::vector<vm::BufferId> reads) {
    vm_label_ = std::move(label);
    vm_reads_ = std::move(reads);
  }

 private:
  struct Lane;  // one used core's state within a run

  // The resilient block body: runs `block` on lane `c` with retries and
  // verification per `opts`. A hard failure quarantines the lane and an
  // unrecoverable one records the lane's failure; either stops the lane.
  void process_block(int c, std::int64_t block, Lane& lane,
                     const BlockFn& fn, const ResilienceOptions& opts,
                     std::vector<int>& execs);

  // Collects per-core results into a RunResult.
  RunResult collect_result(int cores_used);

  ArchConfig arch_;
  CostModel cost_;
  std::vector<std::unique_ptr<AiCore>> cores_;
  std::optional<ResilienceOptions> resilience_;
  bool double_buffer_ = true;
  vm::VmStream* vm_stream_ = nullptr;
  std::string vm_label_;
  std::vector<vm::BufferId> vm_reads_;
  // Runs every lane of every run; started lazily on the first run, its
  // workers persist for the Device's lifetime (see sim/executor.h).
  WorkStealingPool pool_;
};

}  // namespace davinci
