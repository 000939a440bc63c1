// End-to-end tests of double-buffered pipe-overlap execution: the
// sandwich bound (busiest unit <= overlapped makespan <= serial cycles)
// for every pooling kernel, single-buffer == serial equivalence, and
// bit-identical outputs with double buffering on vs off. The paper's
// InceptionV3 (35,35,288) Im2col forward must genuinely overlap
// (strictly faster than serial) -- that is the point of the scheduler.
#include <gtest/gtest.h>

#include "akg/tiling.h"
#include "kernels/conv2d.h"
#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using akg::PoolImpl;
using kernels::MergeImpl;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::run_pool;

constexpr PoolImpl kAllImpls[] = {PoolImpl::kDirect, PoolImpl::kIm2col,
                                  PoolImpl::kExpansion, PoolImpl::kXYSplit};

// Backward inputs: the square (h, h) input of two channel groups and its
// window. 64x64 k3 s2 overlaps windows; 150x150 k3 s2 p1 is H-tiled with
// padded edge tiles and seams; 200x200 k2 s3 (Sh > Kh) leaves input rows
// no window reaches, which no tile stores.
struct BwdCase {
  std::int64_t h;
  Window2d w;
};
const BwdCase kBwdCases[] = {
    {64, Window2d::pool(3, 2)},
    {150, Window2d{3, 3, 2, 2, 1, 1, 1, 1}},
    {200, Window2d::pool(2, 3)},
};

// The tensors one backward case runs on, seeded from `seed`.
struct BwdInputs {
  std::int64_t h;
  TensorF16 mask, grad;
  PoolInputs max_in() const {
    return {.mask = &mask, .grad = &grad, .ih = h, .iw = h};
  }
  PoolInputs avg_in() const { return {.grad = &grad, .ih = h, .iw = h}; }
};

BwdInputs make_bwd_inputs(const BwdCase& c, std::uint64_t seed) {
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, c.h, c.h, seed);
  BwdInputs b{c.h, ref::maxpool_argmax_mask(in, c.w),
              TensorF16(Shape{1, 2, c.w.out_h(c.h), c.w.out_w(c.h), kC0})};
  b.grad.fill_random_ints(seed + 1, 0, 5);
  return b;
}

std::string case_name(const BwdCase& c, MergeImpl merge) {
  return std::to_string(c.h) + "x" + std::to_string(c.h) + " " +
         c.w.to_string() + " " + kernels::to_string(merge);
}

void expect_sandwich(const Device::RunResult& run, const std::string& what) {
  EXPECT_GE(run.device_cycles, run.busiest_unit_cycles) << what;
  EXPECT_LE(run.device_cycles, run.device_cycles_serial) << what;
  EXPECT_GT(run.device_cycles, 0) << what;
}

TEST(Pipelining, SandwichBoundAllForwardImpls) {
  Device dev;
  // Large enough to H-tile so the ping-pong path is exercised.
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 64, 64, 201);
  const Window2d w = Window2d::pool(3, 2);
  for (PoolImpl impl : kAllImpls) {
    const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl};
    auto r = run_pool(dev, op, PoolInputs{.in = &in});
    expect_sandwich(r.run, akg::to_string(impl));
  }
}

TEST(Pipelining, SandwichBoundBothBackwardMerges) {
  Device dev;
  for (const BwdCase& c : kBwdCases) {
    const BwdInputs b = make_bwd_inputs(c, 202);
    for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
      const PoolOp max_bwd{.kind = PoolOpKind::kMaxBwd, .window = c.w,
                           .merge = merge};
      const PoolOp avg_bwd{.kind = PoolOpKind::kAvgBwd, .window = c.w,
                           .merge = merge};
      auto mr = run_pool(dev, max_bwd, b.max_in());
      expect_sandwich(mr.run, "maxpool_bwd " + case_name(c, merge));
      auto ar = run_pool(dev, avg_bwd, b.avg_in());
      expect_sandwich(ar.run, "avgpool_bwd " + case_name(c, merge));
    }
  }
}

TEST(Pipelining, SingleBufferEqualsSerial) {
  // With double buffering off the kernels run the legacy serial schedule:
  // the overlapped makespan IS the serial cycle count.
  Device dev;
  dev.set_double_buffer(false);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 64, 64, 204);
  const Window2d w = Window2d::pool(3, 2);
  for (PoolImpl impl : kAllImpls) {
    const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl};
    auto r = run_pool(dev, op, PoolInputs{.in = &in});
    EXPECT_EQ(r.run.device_cycles, r.run.device_cycles_serial)
        << akg::to_string(impl);
  }
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 2, w.out_h(64), w.out_w(64), kC0});
  grad.fill_random_ints(205, 0, 5);
  const PoolInputs max_in{.mask = &mask, .grad = &grad, .ih = 64, .iw = 64};
  const PoolInputs avg_in{.grad = &grad, .ih = 64, .iw = 64};
  for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    const PoolOp max_bwd{.kind = PoolOpKind::kMaxBwd, .window = w,
                         .merge = merge};
    const PoolOp avg_bwd{.kind = PoolOpKind::kAvgBwd, .window = w,
                         .merge = merge};
    auto mr = run_pool(dev, max_bwd, max_in);
    EXPECT_EQ(mr.run.device_cycles, mr.run.device_cycles_serial)
        << kernels::to_string(merge);
    auto ar = run_pool(dev, avg_bwd, avg_in);
    EXPECT_EQ(ar.run.device_cycles, ar.run.device_cycles_serial)
        << kernels::to_string(merge);
  }
}

TEST(Pipelining, ForwardOutputsBitIdenticalDoubleBufferedVsSerial) {
  Device db_dev;   // double buffering on (default)
  Device sb_dev;
  sb_dev.set_double_buffer(false);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 64, 64, 206);
  const Window2d w = Window2d::pool(3, 2);
  for (PoolImpl impl : kAllImpls) {
    const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl};
    auto got = run_pool(db_dev, op, PoolInputs{.in = &in});
    auto want = run_pool(sb_dev, op, PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want.out, akg::to_string(impl));
  }
}

TEST(Pipelining, BackwardOutputsBitIdenticalDoubleBufferedVsSerial) {
  Device db_dev;
  Device sb_dev;
  sb_dev.set_double_buffer(false);
  for (const BwdCase& c : kBwdCases) {
    const BwdInputs b = make_bwd_inputs(c, 207);
    if (c.h > 64) {  // the padded and gapped cases H-tile in both modes
      for (const Device* dev : {&db_dev, &sb_dev}) {
        EXPECT_TRUE(akg::plan_bwd(dev->arch(), c.w, c.h, c.h,
                                  dev->double_buffer())
                        .tiled())
            << c.h;
      }
    }
    for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
      const std::string what = case_name(c, merge);
      const PoolOp max_bwd{.kind = PoolOpKind::kMaxBwd, .window = c.w,
                           .merge = merge};
      const PoolOp avg_bwd{.kind = PoolOpKind::kAvgBwd, .window = c.w,
                           .merge = merge};
      auto gm = run_pool(db_dev, max_bwd, b.max_in());
      auto wm = run_pool(sb_dev, max_bwd, b.max_in());
      testutil::expect_equal_f16(gm.grad_in, wm.grad_in, what.c_str());
      auto ga = run_pool(db_dev, avg_bwd, b.avg_in());
      auto wa = run_pool(sb_dev, avg_bwd, b.avg_in());
      testutil::expect_equal_f16(ga.grad_in, wa.grad_in, what.c_str());
    }
  }
}

TEST(Pipelining, SeamKernelsStillMatchReference) {
  // Overlapping windows (Kh > Sh) exercise the cross-tile seam RAW path;
  // verify against the reference under double buffering. K(2,2) keeps the
  // 1/(Kh*Kw) scale and all partial sums exact in fp16, so the check is
  // bit-exact regardless of accumulation order.
  Device dev;
  const Window2d w = Window2d::pool(2, 1);  // kh=2 > sh=1 -> 1 seam row
  TensorF16 grad(Shape{1, 1, w.out_h(95), w.out_w(95), kC0});
  grad.fill_random_ints(209, 0, 5);
  for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    const PoolOp op{.kind = PoolOpKind::kAvgBwd, .window = w, .merge = merge};
    auto got = run_pool(dev, op, PoolInputs{.grad = &grad, .ih = 95, .iw = 95});
    const TensorF16 want = ref::avgpool_bwd(grad, w, 95, 95);
    testutil::expect_equal_f16(got.grad_in, want, kernels::to_string(merge));
  }
}

TEST(Pipelining, InceptionShapeIm2colOverlapsStrictly) {
  // Acceptance criterion: on the paper's (35,35,288) InceptionV3 layer the
  // double-buffered Im2col forward's makespan is strictly below its serial
  // cycle count and at least the busiest single unit's busy time.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 18, 35, 35, 210);
  const Window2d w = Window2d::pool(3, 2);
  auto r = run_pool(dev,
                    PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
                           .fwd = PoolImpl::kIm2col},
                    PoolInputs{.in = &in});
  EXPECT_LT(r.run.device_cycles, r.run.device_cycles_serial);
  EXPECT_GE(r.run.device_cycles, r.run.busiest_unit_cycles);
  // And the result is still bit-exact.
  testutil::expect_equal_f16(r.out, ref::maxpool_fwd(in, w), "im2col 35x35");
}

TEST(Pipelining, PlannerKeepsSlotsWithinUbBudget) {
  // When the planner grants two slots, twice the per-tile footprint must
  // fit the UB (that is the carving rule it enforces).
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const auto plan =
      akg::plan_fwd(PoolImpl::kIm2col, dev.arch(), w, 147, 147,
                    /*with_mask=*/false, /*double_buffer=*/true);
  EXPECT_GE(plan.ub_slots, 1);
  EXPECT_LE(plan.ub_slots, 2);
  if (plan.num_h_tiles > 1) {
    EXPECT_TRUE(plan.double_buffered());
  }
}

TEST(Pipelining, DoubleBufferOffMatchesLegacyCycleCounts) {
  // The db-off schedule is the pre-scheduler serial schedule; its cycle
  // counts must agree between two fresh devices (determinism).
  Device a;
  a.set_double_buffer(false);
  Device b;
  b.set_double_buffer(false);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 3, 40, 40, 211);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = PoolImpl::kIm2col};
  auto ra = run_pool(a, op, PoolInputs{.in = &in});
  auto rb = run_pool(b, op, PoolInputs{.in = &in});
  EXPECT_EQ(ra.run.device_cycles, rb.run.device_cycles);
  EXPECT_EQ(ra.run.device_cycles_serial, rb.run.device_cycles_serial);
}

// Every core's pipe timeline and its counters come from the same booking
// call, so the unit pipes partition the counters exactly: the Vector pipe
// carries vector and scalar cycles, SCU the Im2Col/Col2Im cycles, the two
// MTE pipes the transfer cycles and Cube the mmad cycles.
void expect_pipes_partition_ledger(Device& dev, const Device::RunResult& run,
                                   const std::string& what) {
  ASSERT_GT(run.cores_used, 0) << what;
  for (int c = 0; c < run.cores_used; ++c) {
    AiCore& core = dev.core(c);
    const CycleStats& s = core.stats();
    const PipeScheduler& p = core.sched();
    EXPECT_EQ(p.busy(Pipe::kVector), s.vector_cycles + s.scalar_cycles)
        << what << " core " << c;
    EXPECT_EQ(p.busy(Pipe::kScu), s.scu_cycles) << what << " core " << c;
    EXPECT_EQ(p.busy(Pipe::kMteIn) + p.busy(Pipe::kMteOut), s.mte_cycles)
        << what << " core " << c;
    EXPECT_EQ(p.busy(Pipe::kCube), s.cube_cycles) << what << " core " << c;
  }
}

// Every pooling kind with every lowering it accepts on `w`: padding is
// Im2col-only, AvgPool and the mask forward lower direct or Im2col, and
// the backward kinds take either merge.
std::vector<PoolOp> all_pool_ops(const Window2d& w) {
  const bool padded = w.pt + w.pb + w.pl + w.pr > 0;
  std::vector<PoolOp> ops;
  for (PoolOpKind kind : {PoolOpKind::kMaxFwd, PoolOpKind::kMinFwd,
                          PoolOpKind::kAvgFwd, PoolOpKind::kMaxMaskFwd}) {
    const bool any_impl =
        kind == PoolOpKind::kMaxFwd || kind == PoolOpKind::kMinFwd;
    for (PoolImpl impl : kAllImpls) {
      if (padded && impl != PoolImpl::kIm2col) continue;
      if (!any_impl && impl != PoolImpl::kDirect &&
          impl != PoolImpl::kIm2col) {
        continue;
      }
      ops.push_back({.kind = kind, .window = w, .fwd = impl});
    }
  }
  ops.push_back({.kind = PoolOpKind::kGlobalAvg});
  for (PoolOpKind kind : {PoolOpKind::kMaxBwd, PoolOpKind::kAvgBwd}) {
    for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
      ops.push_back({.kind = kind, .window = w, .merge = merge});
    }
  }
  return ops;
}

TEST(Pipelining, UnitPipesPartitionTheLedger) {
  for (bool db : {true, false}) {
    Device dev;
    dev.set_double_buffer(db);
    const std::string mode = db ? "double-buffered " : "serial ";
    for (const BwdCase& c : kBwdCases) {
      const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, c.h, c.h, 31);
      const BwdInputs b = make_bwd_inputs(c, 32);
      for (const PoolOp& op : all_pool_ops(c.w)) {
        PoolInputs inputs{.in = &in};
        if (op.kind == PoolOpKind::kMaxBwd) inputs = b.max_in();
        if (op.kind == PoolOpKind::kAvgBwd) inputs = b.avg_in();
        const std::string what =
            mode + std::to_string(c.h) + " " + op.to_string();
        expect_pipes_partition_ledger(dev, run_pool(dev, op, inputs).run,
                                      what);
      }
    }
    const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 20, 20, 33);
    TensorF32 weights(Shape{32, 32, 3, 3});
    weights.fill_random_ints(34, -2, 2);
    expect_pipes_partition_ledger(
        dev, kernels::conv2d_cube(dev, in, weights, Window2d::pool(3, 1)).run,
        mode + "conv2d_cube");
  }
}

}  // namespace
}  // namespace davinci
