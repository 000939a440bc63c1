// Randomized differential sweep: many seeds through the complete
// operator set on a fixed mid-size configuration, checking all
// implementations against the references and against each other. This is
// the "fuzz" layer on top of the structured property grids.
#include <gtest/gtest.h>

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

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, FullOperatorSetAgrees) {
  const std::uint64_t seed = GetParam();
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t h = 13, iw = 17;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, h, iw, seed);

  // Forward: all four implementations.
  const TensorF16 want_fwd = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                        PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl};
    auto got = run_pool(dev, op, PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want_fwd, akg::to_string(impl));
  }

  // Forward with mask (both), then backward (both) fed from each mask.
  PoolOp mask_op{.kind = PoolOpKind::kMaxMaskFwd, .window = w};
  mask_op.fwd = PoolImpl::kDirect;
  auto fd = run_pool(dev, mask_op, PoolInputs{.in = &in});
  mask_op.fwd = PoolImpl::kIm2col;
  auto fi = run_pool(dev, mask_op, PoolInputs{.in = &in});
  TensorF16 grad(Shape{1, 2, w.out_h(h), w.out_w(iw), kC0});
  grad.fill_random_ints(seed ^ 0x9E3779B9u, 0, 6);
  const TensorF16 want_bwd = ref::maxpool_bwd(fi.mask, grad, w, h, iw);
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    const PoolOp op{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = m};
    auto a = run_pool(dev, op, PoolInputs{.mask = &fd.mask, .grad = &grad,
                                          .ih = h, .iw = iw});
    auto b = run_pool(dev, op, PoolInputs{.mask = &fi.mask, .grad = &grad,
                                          .ih = h, .iw = iw});
    testutil::expect_equal_f16(a.grad_in, want_bwd, "bwd from direct mask");
    testutil::expect_equal_f16(b.grad_in, want_bwd, "bwd from im2col mask");
  }

  // AvgPool forward and backward.
  const TensorF16 want_avg = ref::avgpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    const PoolOp op{.kind = PoolOpKind::kAvgFwd, .window = w, .fwd = impl};
    auto got = run_pool(dev, op, PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want_avg, "avg fwd");
  }
  const TensorF16 want_avgb = ref::avgpool_bwd(grad, w, h, iw);
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    const PoolOp op{.kind = PoolOpKind::kAvgBwd, .window = w, .merge = m};
    auto got = run_pool(dev, op, PoolInputs{.grad = &grad, .ih = h, .iw = iw});
    testutil::expect_equal_f16(got.grad_in, want_avgb, "avg bwd");
  }

  // MinPool and global average pooling.
  auto mn = run_pool(dev,
                     PoolOp{.kind = PoolOpKind::kMinFwd, .window = w,
                            .fwd = PoolImpl::kIm2col},
                     PoolInputs{.in = &in});
  testutil::expect_equal_f16(mn.out, ref::minpool_fwd(in, w), "min");
  auto gap = run_pool(dev, PoolOp{.kind = PoolOpKind::kGlobalAvg},
                      PoolInputs{.in = &in});
  testutil::expect_equal_f16(gap.out, ref::global_avgpool(in), "gap");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace davinci
