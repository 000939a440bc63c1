// End-to-end tests of double-buffered pipe-overlap execution: the
// sandwich bound (busiest unit <= overlapped makespan <= serial cycles)
// for every pooling kernel, single-buffer == serial equivalence, and
// bit-identical outputs with double buffering on vs off. The paper's
// InceptionV3 (35,35,288) Im2col forward must genuinely overlap
// (strictly faster than serial) -- that is the point of the scheduler.
#include <gtest/gtest.h>

#include "akg/tiling.h"
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

void expect_sandwich(const Device::RunResult& run, const char* what) {
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
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 64, 64, 202);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 2, w.out_h(64), w.out_w(64), kC0});
  grad.fill_random_ints(203, 0, 5);
  const PoolInputs max_in{.mask = &mask, .grad = &grad, .ih = 64, .iw = 64};
  const PoolInputs avg_in{.grad = &grad, .ih = 64, .iw = 64};
  for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    const PoolOp max_bwd{.kind = PoolOpKind::kMaxBwd, .window = w,
                         .merge = merge};
    const PoolOp avg_bwd{.kind = PoolOpKind::kAvgBwd, .window = w,
                         .merge = merge};
    auto mr = run_pool(dev, max_bwd, max_in);
    expect_sandwich(mr.run, kernels::to_string(merge));
    auto ar = run_pool(dev, avg_bwd, avg_in);
    expect_sandwich(ar.run, kernels::to_string(merge));
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
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 64, 64, 207);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 2, w.out_h(64), w.out_w(64), kC0});
  grad.fill_random_ints(208, 0, 5);
  const PoolInputs max_in{.mask = &mask, .grad = &grad, .ih = 64, .iw = 64};
  const PoolInputs avg_in{.grad = &grad, .ih = 64, .iw = 64};
  for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    const PoolOp max_bwd{.kind = PoolOpKind::kMaxBwd, .window = w,
                         .merge = merge};
    const PoolOp avg_bwd{.kind = PoolOpKind::kAvgBwd, .window = w,
                         .merge = merge};
    auto gm = run_pool(db_dev, max_bwd, max_in);
    auto wm = run_pool(sb_dev, max_bwd, max_in);
    testutil::expect_equal_f16(gm.grad_in, wm.grad_in,
                               kernels::to_string(merge));
    auto ga = run_pool(db_dev, avg_bwd, avg_in);
    auto wa = run_pool(sb_dev, avg_bwd, avg_in);
    testutil::expect_equal_f16(ga.grad_in, wa.grad_in,
                               kernels::to_string(merge));
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

}  // namespace
}  // namespace davinci
