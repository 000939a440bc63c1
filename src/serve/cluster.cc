#include "serve/cluster.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace davinci::serve {

namespace {

using kernels::BlockRange;
using kernels::PoolInputs;
using kernels::PoolOp;

}  // namespace

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kData:
      return "data";
    case Placement::kModel:
      return "model";
  }
  return "?";
}

Cluster::Cluster(ClusterOptions opts) : opts_(opts), link_cost_(opts.cost) {
  DV_CHECK_GE(opts_.devices, 1);
  DV_CHECK_GE(opts_.link_bytes_per_cycle, 1);
  DV_CHECK_GE(opts_.link_latency_cycles, 0);
  for (int d = 0; d < opts_.devices; ++d) {
    devices_.push_back(std::make_unique<Device>(opts_.arch, opts_.cost));
  }
  link_cost_.mte_bytes_per_cycle = opts_.link_bytes_per_cycle;
  link_cost_.mte_startup_cycles = opts_.link_latency_cycles;
  stats_.devices.resize(static_cast<std::size_t>(opts_.devices));
  stats_.links.resize(
      static_cast<std::size_t>(opts_.devices) *
      static_cast<std::size_t>(opts_.devices));
}

Cluster::Cluster(Cluster&& other) noexcept
    : opts_(std::move(other.opts_)),
      devices_(std::move(other.devices_)),
      link_cost_(other.link_cost_),
      stats_(std::move(other.stats_)) {}

Cluster& Cluster::operator=(Cluster&& other) noexcept {
  opts_ = std::move(other.opts_);
  devices_ = std::move(other.devices_);
  link_cost_ = other.link_cost_;
  stats_ = std::move(other.stats_);
  return *this;
}

int Cluster::total_cores() const {
  return num_devices() * devices_.front()->num_cores();
}

void Cluster::set_double_buffer(bool on) {
  for (auto& d : devices_) d->set_double_buffer(on);
}

void Cluster::set_resilience(const ResilienceOptions& opts) {
  for (auto& d : devices_) d->set_resilience(opts);
}

void Cluster::set_vm_stream(int device, vm::VmStream* stream) {
  devices_.at(static_cast<std::size_t>(device))->set_vm_stream(stream);
}

std::int64_t Cluster::link_cycles(std::int64_t bytes) const {
  return link_cost_.mte_copy(bytes);
}

std::vector<Cluster::Shard> Cluster::plan_shards(std::int64_t axis_len,
                                                 int pin) const {
  std::vector<Shard> shards;
  if (pin >= 0) {
    shards.push_back(Shard{pin, 0, axis_len});
    return shards;
  }
  const std::int64_t devices = num_devices();
  const std::int64_t base = axis_len / devices;
  const std::int64_t rem = axis_len % devices;
  std::int64_t begin = 0;
  for (std::int64_t d = 0; d < devices; ++d) {
    const std::int64_t len = base + (d < rem ? 1 : 0);
    if (len == 0) continue;
    shards.push_back(Shard{static_cast<int>(d), begin, len});
    begin += len;
  }
  return shards;
}

Cluster::Launch Cluster::run_pool(const PoolOp& op, const PoolInputs& in,
                                  int pin) {
  if (pin >= num_devices()) {
    throw Error("cluster: shard " + std::to_string(pin) +
                " out of range [0, " + std::to_string(num_devices()) + ")");
  }
  // One launch for every shard: its outputs are allocated once, and each
  // shard runs a range of the launch's blocks straight into them. The
  // devices share their architecture and policies, so the launch is
  // planned and allocated for device 0.
  kernels::PoolLaunch pl(device(0), op, in);
  const int axis = opts_.placement == Placement::kData ? 0 : 1;
  const std::vector<Shard> shards =
      plan_shards(axis == 0 ? pl.images() : pl.c1(), pin);
  DV_CHECK_GE(shards.size(), 1u);

  Launch launch;
  launch.shards = static_cast<int>(shards.size());

  struct ShardRun {
    Shard shard;
    BlockRange range;
    Device::RunResult run;
    std::int64_t in_bytes = 0;
    std::int64_t out_bytes = 0;
  };
  std::vector<ShardRun> runs;
  runs.reserve(shards.size());

  for (const Shard& shard : shards) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.devices[static_cast<std::size_t>(shard.device)]
          .inflight_shards += 1;
    }
    struct InflightScope {
      Cluster* c;
      int device;
      ~InflightScope() {
        std::lock_guard<std::mutex> lock(c->mu_);
        c->stats_.devices[static_cast<std::size_t>(device)].inflight_shards -=
            1;
      }
    } scope{this, shard.device};
    ShardRun r;
    r.shard = shard;
    r.range = axis == 0 ? BlockRange{shard.begin, shard.length, 0, pl.c1()}
                        : BlockRange{0, pl.images(), shard.begin,
                                     shard.length};
    r.run = pl.run(device(shard.device), r.range);
    if (shard.device != 0) {
      r.in_bytes = pl.input_bytes(r.range);
      r.out_bytes = pl.output_bytes(r.range);
    }
    runs.push_back(std::move(r));
  }

  // Redistribution accounting: scatter transfers (0 -> d) ride distinct
  // links concurrently, as do the gathers (d -> 0), so each leg costs
  // the slowest single transfer while every link's busy time accrues its
  // own transfers serially.
  std::int64_t scatter_leg = 0, gather_leg = 0;
  std::int64_t redist_transfers = 0;
  for (const ShardRun& r : runs) {
    if (r.shard.device == 0) continue;
    if (r.in_bytes > 0) {
      scatter_leg = std::max(scatter_leg, link_cycles(r.in_bytes));
      redist_transfers += 1;
    }
    if (r.out_bytes > 0) {
      gather_leg = std::max(gather_leg, link_cycles(r.out_bytes));
      redist_transfers += 1;
    }
    launch.redistribution_bytes += r.in_bytes + r.out_bytes;
  }
  launch.redistribution_cycles = scatter_leg + gather_leg;

  // The slowest shard bounds the compute leg; its run carries the
  // launch's attribution while summable counters aggregate over all
  // shards.
  std::size_t critical = 0;
  std::int64_t compute_max = 0, serial_max = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Device::RunResult& rr = runs[i].run;
    if (rr.device_cycles > compute_max) {
      compute_max = rr.device_cycles;
      critical = i;
    }
    serial_max = std::max(serial_max, rr.device_cycles_serial);
  }
  launch.cycles = launch.redistribution_cycles + compute_max;

  Device::RunResult agg = runs[critical].run;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i == critical) continue;
    const Device::RunResult& rr = runs[i].run;
    agg.aggregate += rr.aggregate;
    agg.faults += rr.faults;
    agg.host_ns += rr.host_ns;
    agg.host_alloc_ns += rr.host_alloc_ns;
    agg.host_plan_ns += rr.host_plan_ns;
    agg.host_validate_ns += rr.host_validate_ns;
    agg.host_execute_ns += rr.host_execute_ns;
    agg.cores_used += rr.cores_used;
    agg.busiest_unit_cycles =
        std::max(agg.busiest_unit_cycles, rr.busiest_unit_cycles);
    if (rr.vm_end > 0) {
      agg.vm_start = agg.vm_end > 0 ? std::min(agg.vm_start, rr.vm_start)
                                    : rr.vm_start;
      agg.vm_end = std::max(agg.vm_end, rr.vm_end);
    }
  }
  agg.device_cycles = launch.cycles;
  agg.device_cycles_serial = launch.redistribution_cycles + serial_max;
  pl.add_setup_ns(agg);
  launch.result = pl.take_outputs();
  launch.result.run = std::move(agg);

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.launches += 1;
    if (runs.size() >= 2) stats_.sharded_launches += 1;
    stats_.redistribution_transfers += redist_transfers;
    stats_.redistribution_bytes += launch.redistribution_bytes;
    stats_.redistribution_cycles += launch.redistribution_cycles;
    const std::size_t d_count = static_cast<std::size_t>(num_devices());
    for (const ShardRun& r : runs) {
      DeviceStats& ds = stats_.devices[static_cast<std::size_t>(
          r.shard.device)];
      ds.launches += 1;
      ds.blocks += r.range.blocks();
      ds.cycles += r.run.device_cycles;
      if (r.shard.device != 0) {
        if (r.in_bytes > 0) {
          LinkStats& fwd =
              stats_.links[0 * d_count +
                           static_cast<std::size_t>(r.shard.device)];
          fwd.transfers += 1;
          fwd.bytes += r.in_bytes;
          fwd.cycles += link_cycles(r.in_bytes);
        }
        if (r.out_bytes > 0) {
          LinkStats& back =
              stats_.links[static_cast<std::size_t>(r.shard.device) *
                               d_count +
                           0];
          back.transfers += 1;
          back.bytes += r.out_bytes;
          back.cycles += link_cycles(r.out_bytes);
        }
      }
    }
  }
  return launch;
}

Cluster::Stats Cluster::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  for (const LinkStats& l : s.links) {
    s.link_busy_cycles = std::max(s.link_busy_cycles, l.cycles);
  }
  return s;
}

void Cluster::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t devices = stats_.devices.size();
  const std::size_t links = stats_.links.size();
  stats_ = {};
  stats_.devices.resize(devices);
  stats_.links.resize(links);
}

}  // namespace davinci::serve
