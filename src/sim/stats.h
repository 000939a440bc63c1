// Cycle and instruction accounting, per AI Core.
//
// The paper's only obtainable metric on the Ascend 910 was the hardware
// cycle counter; the simulator's equivalent is CycleStats::total_cycles.
// Per-pipe breakdowns and instruction counts are extra observability the
// benches use to explain *why* an implementation wins (issue counts and
// mask saturation, the quantities Section V reasons about).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "arch/arch_config.h"
#include "arch/cost_model.h"

namespace davinci {

// Bytes moved per architectural route, charged at the same sites as the
// cycle costs (Mte::charge by src/dst buffer kind, Scu for the fractal
// payloads Im2Col produces / Col2Im consumes, VectorUnit for UB operand
// traffic). Feeds the roofline classification in sim/metrics.h: achieved
// bytes/cycle on each route vs the arch_config.h peak, and arithmetic
// intensity = vector slots / bytes moved.
struct MemTraffic {
  std::int64_t gm_to_l1 = 0;   // MTE inbound, feature-map loads
  std::int64_t gm_to_ub = 0;   // MTE inbound, direct-to-UB loads
  std::int64_t l1_to_ub = 0;   // MTE L1 -> UB staging
  std::int64_t l1_to_l0 = 0;   // MTE L1 -> L0A/L0B cube staging
  std::int64_t ub_to_l1 = 0;   // MTE UB -> L1 write-back
  std::int64_t ub_to_gm = 0;   // MTE outbound stores
  std::int64_t l1_to_gm = 0;   // MTE outbound from L1
  std::int64_t l0c_to_ub = 0;  // cube accumulator drain
  std::int64_t ub_to_l0c = 0;  // accumulator preload
  std::int64_t im2col_bytes = 0;  // fractal bytes Im2Col wrote (L1 -> UB)
  std::int64_t col2im_bytes = 0;  // fractal bytes Col2Im read (UB -> UB)
  std::int64_t ub_vector_bytes = 0;  // UB elements the Vector Unit touched

  // All MTE-route bytes (the SCU/vector counters overlap routes above and
  // are reported separately, not summed here).
  std::int64_t mte_total() const {
    return gm_to_l1 + gm_to_ub + l1_to_ub + l1_to_l0 + ub_to_l1 + ub_to_gm +
           l1_to_gm + l0c_to_ub + ub_to_l0c;
  }
  // Bytes crossing the GM boundary in either direction -- the roofline's
  // traffic denominator.
  std::int64_t gm_total() const {
    return gm_to_l1 + gm_to_ub + ub_to_gm + l1_to_gm;
  }

  MemTraffic& operator+=(const MemTraffic& o) {
    gm_to_l1 += o.gm_to_l1;
    gm_to_ub += o.gm_to_ub;
    l1_to_ub += o.l1_to_ub;
    l1_to_l0 += o.l1_to_l0;
    ub_to_l1 += o.ub_to_l1;
    ub_to_gm += o.ub_to_gm;
    l1_to_gm += o.l1_to_gm;
    l0c_to_ub += o.l0c_to_ub;
    ub_to_l0c += o.ub_to_l0c;
    im2col_bytes += o.im2col_bytes;
    col2im_bytes += o.col2im_bytes;
    ub_vector_bytes += o.ub_vector_bytes;
    return *this;
  }
};

struct CycleStats {
  // Histogram buckets of the per-instruction active-lane count (see
  // vector_lane_hist).
  static constexpr int kLaneBuckets = 8;

  // Cycles by pipe. The simulator executes a single in-order timeline, so
  // total_cycles is the sum of the pipe cycles plus barrier costs; the
  // breakdown attributes each instruction to the unit that executed it.
  std::int64_t vector_cycles = 0;
  std::int64_t scalar_cycles = 0;
  std::int64_t mte_cycles = 0;
  std::int64_t scu_cycles = 0;
  std::int64_t cube_cycles = 0;
  std::int64_t barrier_cycles = 0;
  std::int64_t launch_cycles = 0;

  // Instruction counts.
  std::int64_t vector_instrs = 0;
  std::int64_t vector_repeats = 0;       // total repeat iterations executed
  std::int64_t vector_active_lanes = 0;  // sum of active mask lanes / repeat
  std::int64_t vector_saturated_instrs = 0;  // issued with a full mask
  // Vector instructions by active-lane count, in eight 16-lane buckets:
  // bucket 0 counts 1..16 active lanes, bucket 7 counts 113..128.
  std::int64_t vector_lane_hist[kLaneBuckets] = {};
  std::int64_t mte_transfers = 0;
  std::int64_t mte_bytes = 0;
  // Cycles the MTE spent moving payload: mte_cycles minus the startup and
  // per-burst costs (each transfer's bytes / bandwidth, rounded up).
  std::int64_t mte_payload_cycles = 0;
  std::int64_t im2col_instrs = 0;
  std::int64_t im2col_fractals = 0;
  std::int64_t im2col_saturated_instrs = 0;  // carrying max_repeat fractals
  std::int64_t col2im_instrs = 0;
  std::int64_t col2im_fractals = 0;
  std::int64_t col2im_saturated_instrs = 0;  // carrying max_repeat fractals
  std::int64_t cube_instrs = 0;
  std::int64_t cube_fractal_macs = 0;

  // Bytes moved per route (see MemTraffic above).
  MemTraffic traffic;

  // Counts one Vector Unit instruction of `repeat` iterations with `lanes`
  // of the unit's `total_lanes` active.
  void count_vector_instr(int lanes, int total_lanes, std::int64_t repeat) {
    const std::int64_t active = static_cast<std::int64_t>(lanes) * repeat;
    vector_instrs += 1;
    vector_repeats += repeat;
    vector_active_lanes += active;
    // UB operand traffic: two bytes per active lane per repeat iteration --
    // the roofline's compute-side byte count.
    traffic.ub_vector_bytes += active * 2;
    if (lanes == total_lanes) vector_saturated_instrs += 1;
    if (lanes > 0) {
      vector_lane_hist[std::min((lanes - 1) / 16, kLaneBuckets - 1)] += 1;
    }
  }

  std::int64_t total_cycles() const {
    return vector_cycles + scalar_cycles + mte_cycles + scu_cycles +
           cube_cycles + barrier_cycles + launch_cycles;
  }

  // Optimistic pipe-overlap bound: real DaVinci pipes (Vector+Scalar,
  // MTE, SCU, Cube) run concurrently between synchronization points, so
  // a perfectly double-buffered schedule is bounded below by the busiest
  // pipe. Device::RunResult reports its per-core maximum as
  // device_cycles_pipelined (the bench rows' pipelined_bound).
  std::int64_t pipelined_cycles() const {
    const std::int64_t compute = vector_cycles + scalar_cycles;
    std::int64_t busiest = compute;
    if (mte_cycles > busiest) busiest = mte_cycles;
    if (scu_cycles > busiest) busiest = scu_cycles;
    if (cube_cycles > busiest) busiest = cube_cycles;
    return busiest + barrier_cycles + launch_cycles;
  }

  // Average fraction of the 128 vector lanes doing useful work -- the
  // paper's "vector mask saturation".
  double lane_utilization() const {
    if (vector_repeats == 0) return 0.0;
    return static_cast<double>(vector_active_lanes) /
           (128.0 * static_cast<double>(vector_repeats));
  }

  CycleStats& operator+=(const CycleStats& o) {
    vector_cycles += o.vector_cycles;
    scalar_cycles += o.scalar_cycles;
    mte_cycles += o.mte_cycles;
    scu_cycles += o.scu_cycles;
    cube_cycles += o.cube_cycles;
    barrier_cycles += o.barrier_cycles;
    launch_cycles += o.launch_cycles;
    vector_instrs += o.vector_instrs;
    vector_repeats += o.vector_repeats;
    vector_active_lanes += o.vector_active_lanes;
    vector_saturated_instrs += o.vector_saturated_instrs;
    for (int i = 0; i < kLaneBuckets; ++i) {
      vector_lane_hist[i] += o.vector_lane_hist[i];
    }
    mte_transfers += o.mte_transfers;
    mte_bytes += o.mte_bytes;
    mte_payload_cycles += o.mte_payload_cycles;
    im2col_instrs += o.im2col_instrs;
    im2col_fractals += o.im2col_fractals;
    im2col_saturated_instrs += o.im2col_saturated_instrs;
    col2im_instrs += o.col2im_instrs;
    col2im_fractals += o.col2im_fractals;
    col2im_saturated_instrs += o.col2im_saturated_instrs;
    cube_instrs += o.cube_instrs;
    cube_fractal_macs += o.cube_fractal_macs;
    traffic += o.traffic;
    return *this;
  }

  std::string summary() const {
    std::string s;
    s += "cycles=" + std::to_string(total_cycles());
    s += " (vec=" + std::to_string(vector_cycles);
    s += " scalar=" + std::to_string(scalar_cycles);
    s += " mte=" + std::to_string(mte_cycles);
    s += " scu=" + std::to_string(scu_cycles);
    s += " cube=" + std::to_string(cube_cycles);
    s += " barrier=" + std::to_string(barrier_cycles);
    s += " launch=" + std::to_string(launch_cycles) + ")";
    s += " vinstr=" + std::to_string(vector_instrs);
    s += " lane_util=" + std::to_string(lane_utilization());
    return s;
  }
};

// How full each issue of one execution unit was relative to what the unit
// could have done in the same issue. The slot currency is unit-specific
// (see Profile); slots_used / slots_capacity is always "fraction of the
// unit's capacity doing useful work".
struct UnitOccupancy {
  std::int64_t instrs = 0;           // instructions issued
  std::int64_t slots_used = 0;       // occupied slots, summed over instrs
  std::int64_t slots_capacity = 0;   // available slots, summed over instrs
  std::int64_t saturated_instrs = 0; // instrs issued at full occupancy

  // Mean fraction of the unit's slots doing useful work (0 when idle).
  double occupancy() const {
    if (slots_capacity == 0) return 0.0;
    return static_cast<double>(slots_used) /
           static_cast<double>(slots_capacity);
  }

  // Fraction of instructions issued at full occupancy (0 when idle).
  double saturation() const {
    if (instrs == 0) return 0.0;
    return static_cast<double>(saturated_instrs) /
           static_cast<double>(instrs);
  }
};

// Per-unit occupancy of a run, read off its CycleStats (one core's, or a
// launch's aggregate). This is the paper's Section V evidence in counter
// form: direct pooling issues Oh*Ow*Kh vector instructions at 16 of 128
// lanes, the Im2col formulation issues Kh*Kw at 128 of 128 -- `vec`
// measures exactly that. Slot currencies:
//
//   vec     lanes: used = active mask lanes per repeat iteration,
//           capacity = vector_lanes per repeat iteration; saturated =
//           full mask.
//   im2col/ fractals: used = fractals covered, capacity = max_repeat per
//   col2im  instruction; saturated = instruction carrying max_repeat
//           fractals (the repeat parameter fully absorbing the loop).
//   cube    busy cycles: used = fractal-MAC cycles, capacity = charged
//           cycles including issue overhead (amortization; no
//           architectural full mark, saturated stays 0).
//   mte     busy cycles: used = payload bandwidth cycles, capacity =
//           charged cycles including startup and per-burst costs
//           (achieved-bandwidth fraction; saturated stays 0).
//
// `arch` and `cost` must be the configuration the counters were charged
// under: they fix the capacity of one issue.
struct Profile {
  UnitOccupancy vec;
  UnitOccupancy im2col;
  UnitOccupancy col2im;
  UnitOccupancy cube;
  UnitOccupancy mte;

  Profile(const CycleStats& s, const ArchConfig& arch, const CostModel& cost)
      : vec{s.vector_instrs, s.vector_active_lanes,
            arch.vector_lanes * s.vector_repeats, s.vector_saturated_instrs},
        im2col{s.im2col_instrs, s.im2col_fractals,
               arch.max_repeat * s.im2col_instrs, s.im2col_saturated_instrs},
        col2im{s.col2im_instrs, s.col2im_fractals,
               arch.max_repeat * s.col2im_instrs, s.col2im_saturated_instrs},
        cube{s.cube_instrs,
             s.cube_fractal_macs * cost.cube_cycles_per_fractal_mac,
             s.cube_cycles, 0},
        mte{s.mte_transfers, s.mte_payload_cycles, s.mte_cycles, 0} {}

  // The paper's headline metric: mean fraction of the vector lanes doing
  // useful work per repeat iteration.
  double vec_lane_utilization() const { return vec.occupancy(); }

  std::string summary() const {
    auto pct = [](double v) {
      return std::to_string(static_cast<int>(v * 100.0 + 0.5)) + "%";
    };
    std::string s;
    s += "vec=" + pct(vec.occupancy()) + " (sat " + pct(vec.saturation()) +
         " of " + std::to_string(vec.instrs) + " instr)";
    s += " im2col=" + pct(im2col.occupancy());
    s += " col2im=" + pct(col2im.occupancy());
    s += " cube=" + pct(cube.occupancy());
    s += " mte=" + pct(mte.occupancy());
    return s;
  }
};

}  // namespace davinci
