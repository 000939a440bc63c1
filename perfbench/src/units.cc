// Per-unit host cost: each simulated unit's instruction timed alone on a
// fixed span sized to the Unified Buffer, so a change to one unit's host
// implementation shows up here without a profiler build. Every call is
// timed individually and the per-unit cost is the median over calls.
#include <algorithm>
#include <functional>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "bench.h"
#include "common/prng.h"
#include "sim/ai_core.h"
#include "sim/scu.h"

namespace perfbench {
namespace {

// Median nanoseconds of `op` over calls spread across `budget_s`, divided
// by the units of work one call performs. `reset` runs untimed before
// every call.
double ns_per_unit(double units_per_call, double budget_s,
                   const std::function<void()>& op,
                   const std::function<void()>& reset) {
  std::vector<double> ns;
  const auto t0 = Clock::now();
  while (ns.size() < 16 || (seconds_since(t0) < budget_s && ns.size() < 20000)) {
    reset();
    const auto s = Clock::now();
    op();
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - s).count());
  }
  return median(std::move(ns)) / units_per_call;
}

void fill_ints(dv::Span<dv::Float16> s, std::uint64_t seed) {
  dv::Xoshiro256 rng(seed);
  for (std::int64_t i = 0; i < s.size(); ++i) {
    s.at(i) = dv::Float16(static_cast<float>(rng.next_below(17)) - 8.0f);
  }
}

}  // namespace

UnitCosts measure_unit_costs(double budget_s) {
  UnitCosts u;
  const double each = budget_s / 5.0;
  dv::AiCore core(0, dv::ArchConfig::ascend910(), dv::CostModel::calibrated());
  const auto no_reset = [] {};

  {
    // Three operands of 40960 lanes fill 240 KiB of the 256 KiB UB.
    const std::int64_t n = 40960;
    auto a = core.ub().alloc<dv::Float16>(n);
    auto b = core.ub().alloc<dv::Float16>(n);
    auto d = core.ub().alloc<dv::Float16>(n);
    fill_ints(a, 1);
    fill_ints(b, 2);
    u.vadd_ns_per_lane = ns_per_unit(
        static_cast<double>(n), each,
        [&] { core.vbin_flat(dv::VecOp::kAdd, d, a, b, n); }, no_reset);
    u.vmax_ns_per_lane = ns_per_unit(
        static_cast<double>(n), each,
        [&] { core.vbin_flat(dv::VecOp::kMax, d, a, b, n); }, no_reset);
    core.reset_scratch();
  }

  dv::Im2colArgs args;
  args.window = dv::Window2d::pool(3, 2);
  args.ih = 33;
  args.iw = 33;
  const double fractals = static_cast<double>(
      args.window.kh * args.window.kw * args.patch_fractals());
  {
    auto src = core.l1().alloc<dv::Float16>(args.input_elems());
    auto dst = core.ub().alloc<dv::Float16>(args.output_elems());
    fill_ints(src, 3);
    u.im2col_ns_per_fractal = ns_per_unit(
        fractals, each, [&] { core.scu().im2col_load(dst, src, args); },
        no_reset);
    core.reset_scratch();
  }
  {
    // Col2Im accumulates into its output, so the output is re-zeroed
    // (untimed) before every call to keep the values bounded.
    auto src = core.ub().alloc<dv::Float16>(args.output_elems());
    auto out = core.ub().alloc<dv::Float16>(args.input_elems());
    fill_ints(src, 4);
    u.col2im_ns_per_fractal = ns_per_unit(
        fractals, each, [&] { core.scu().col2im(out, src, args); },
        [&] { std::fill(out.data(), out.data() + out.size(), dv::Float16()); });
    core.reset_scratch();
  }
  {
    // A GM -> UB load of half the Unified Buffer.
    const std::int64_t n = 65536;
    std::vector<dv::Float16> host(static_cast<std::size_t>(n));
    auto gm = dv::gm_span(host.data(), n);
    fill_ints(gm, 5);
    auto ub = core.ub().alloc<dv::Float16>(n);
    u.mte_ns_per_kb = ns_per_unit(static_cast<double>(n) * 2.0 / 1024.0, each,
                                  [&] { core.mte().copy(ub, gm, n); }, no_reset);
    core.reset_scratch();
  }
  return u;
}

}  // namespace perfbench
