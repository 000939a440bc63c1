// Multi-device cluster: N simulated devices behind a placement router
// (docs/CLUSTER.md).
//
// A Cluster owns N identical Devices and routes each pooling launch
// across them, sharding over one axis of the NC1HWC0 layout:
//
//   Placement::kData   shards the batch axis N (each device computes a
//                      contiguous run of whole images);
//   Placement::kModel  shards the channel-block axis C1 (each device
//                      computes a contiguous run of channel groups of
//                      every image).
//
// Both placements are bit-identical to a single-device run because every
// pooling kernel computes one block per (N, C1) slice from that slice's
// input data alone -- splitting either axis only changes which device a
// block lands on, never its value (the OneFlow "boxing" observation).
// Nothing is sliced or pasted on the host: a launch is one
// kernels::PoolLaunch whose outputs are allocated once, and each shard
// runs a block range of it (an image range under kData, a channel-group
// range under kModel), reading its inputs in place and writing straight
// into those outputs.
//
// Requests ingress on device 0, so a shard that runs on device d != 0
// pays an explicit, modeled redistribution step: its input slice crosses
// the 0 -> d link before compute and its output slice crosses d -> 0
// after. The slice volumes are charged, not copied.
// Transfer cycles are charged through the existing MTE cost model --
// CostModel::mte_copy with the link's bandwidth/latency substituted for
// the core-local MTE path -- and every transfer lands in per-link
// byte/cycle counters (surfaced in the schema-v7 "cluster" metrics
// object). Scatter transfers ride different links concurrently, so a
// launch's modeled time is
//
//   max over links(scatter) + max over shards(compute) + max(gather)
//
// while the trace-level bound is roofline-style: compute makespan on the
// busiest device vs. cumulative busy time of the busiest link (the
// serving session takes the max; docs/CLUSTER.md).
//
// A one-device Cluster is the identity: one block range covering the
// whole launch, no link charges -- launch results are bit- and
// cycle-identical to calling kernels::run_pool on a bare Device. This is what keeps the CI serving
// baselines gated at zero cycle tolerance across the Session API change.
//
// Thread safety: run_pool must be driven by one thread at a time (the
// serving worker); stats()/cluster_json() may be called concurrently
// from any thread.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "kernels/pooling.h"
#include "sim/device.h"

namespace davinci::serve {

// Which NC1HWC0 axis the router shards a launch over.
enum class Placement : std::uint8_t {
  kData,   // batch axis N: whole images per device
  kModel,  // channel-block axis C1: channel groups per device
};

const char* to_string(Placement p);

struct ClusterOptions {
  int devices = 1;
  Placement placement = Placement::kData;
  // Every device is built from the same architecture and cost model.
  ArchConfig arch = ArchConfig::ascend910();
  CostModel cost = CostModel::calibrated();
  // Inter-device link model, charged through CostModel::mte_copy with
  // these parameters in place of the core-local MTE path: one transfer
  // of B bytes costs link_latency_cycles + ceil(B / link_bytes_per_cycle)
  // + 1 cycles. The default models an HCCS-like interconnect at 8x a
  // single core's 128 B/cycle GM path.
  std::int64_t link_bytes_per_cycle = 1024;
  std::int64_t link_latency_cycles = 512;
};

class Cluster {
 public:
  // One directed inter-device link's cumulative transfer counters.
  struct LinkStats {
    std::int64_t transfers = 0;
    std::int64_t bytes = 0;
    std::int64_t cycles = 0;  // serial busy time of this link
  };

  // Per-device share of the cluster's work.
  struct DeviceStats {
    std::int64_t launches = 0;  // shard launches run on this device
    std::int64_t blocks = 0;    // (N, C1) blocks computed
    std::int64_t cycles = 0;    // sum of shard device_cycles
    std::int64_t inflight_shards = 0;  // dispatched, not yet completed
  };

  struct Stats {
    std::vector<DeviceStats> devices;
    std::vector<LinkStats> links;  // row-major [src * devices + dst]
    std::int64_t launches = 0;          // cluster-level launches
    std::int64_t sharded_launches = 0;  // split over >= 2 devices
    std::int64_t redistribution_transfers = 0;
    std::int64_t redistribution_bytes = 0;
    std::int64_t redistribution_cycles = 0;
    // Cumulative busy time of the busiest link -- the communication leg
    // of the cluster roofline (compute leg: the busiest device's VM
    // makespan, tracked by the session).
    std::int64_t link_busy_cycles = 0;
  };

  // One routed launch. `result.run` aggregates the shard runs: cycle
  // fields model redistribution + the slowest shard, host/fault/traffic
  // counters are summed, attribution comes from the slowest shard, and
  // vm_start/vm_end span the shards' per-device stream placements.
  struct Launch {
    kernels::PoolResult result;
    std::int64_t cycles = 0;  // redistribution + max shard compute
    std::int64_t redistribution_bytes = 0;
    std::int64_t redistribution_cycles = 0;
    int shards = 1;
  };

  explicit Cluster(ClusterOptions opts = {});

  // Movable (the session takes its cluster by value); the stats mutex
  // is per-object, so moving is only safe while no other thread touches
  // the source -- the construction-time handoff into Session.
  Cluster(Cluster&& other) noexcept;
  Cluster& operator=(Cluster&& other) noexcept;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_devices() const { return static_cast<int>(devices_.size()); }
  Device& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }
  const Device& device(int i) const {
    return *devices_.at(static_cast<std::size_t>(i));
  }
  const ClusterOptions& options() const { return opts_; }
  Placement placement() const { return opts_.placement; }
  // Total AI cores across the cluster (devices are identical).
  int total_cores() const;

  // Cluster-wide device policy (the session applies its options here).
  void set_double_buffer(bool on);
  void set_resilience(const ResilienceOptions& opts);
  // Attaches a per-device VM stream (one stream per device; the session
  // owns them).
  void set_vm_stream(int device, vm::VmStream* stream);

  // Routes one launch. pin < 0 shards `in` over the placement axis
  // across all devices (one device, or an axis shorter than the device
  // count, resolves to fewer shards). pin >= 0 runs the whole launch on
  // that device; pin >= num_devices() throws Error. A coalesced `in`
  // (PoolInputs::members) returns its outputs in result.parts.
  // Shard failures (CoreFailed, RetryExhausted, kernel errors)
  // propagate; a launch only lands in the stats when every shard
  // completed.
  Launch run_pool(const kernels::PoolOp& op, const kernels::PoolInputs& in,
                  int pin = -1);

  Stats stats() const;
  void reset_stats();

 private:
  struct Shard {
    int device = 0;
    std::int64_t begin = 0;  // first index on the placement axis
    std::int64_t length = 0;
  };

  std::vector<Shard> plan_shards(std::int64_t axis_len, int pin) const;
  std::int64_t link_cycles(std::int64_t bytes) const;

  ClusterOptions opts_;
  std::vector<std::unique_ptr<Device>> devices_;
  // The link's MTE-shaped cost model: opts_.cost with the interconnect
  // bandwidth/latency substituted in.
  CostModel link_cost_;

  // Stats have their own leaf mutex: run_pool is single-threaded (the
  // serving worker) but stats() scrapes from telemetry threads.
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace davinci::serve
