// Internal: the kernel drivers behind PoolLaunch::run. Each runs the
// blocks of one BlockRange of a launch, reading and writing every image
// through the launch's ImageTable, and returns the device run. Inputs and
// geometry were validated, and the tiling plan chosen, when the
// PoolLaunch was built (the serving layer's plan cache supplies the plan
// through PoolOp::plan, so planning runs once per descriptor).
#pragma once

#include "akg/tiling.h"
#include "kernels/pooling.h"
#include "sim/vector_unit.h"

namespace davinci::kernels {

// Forward driver for the MaxPool, MinPool and AvgPool forward kinds
// (maxpool_fwd.cc), one tile pipeline per akg::PoolImpl; `op`/`init`
// select the reduction, `scale` (if not 1) is applied to the output tile
// before the store. akg::lower_and_run also runs DSL programs through it.
Device::RunResult pooling_forward_impl(Device& dev, const ImageTable& t,
                                       const BlockRange& r, const Window2d& w,
                                       akg::PoolImpl impl, VecOp op,
                                       Float16 init, Float16 scale,
                                       const akg::PoolPlan& plan);

// MaxPool forward + Argmax mask, kDirect or kIm2col (maxpool_mask.cc):
// the mask is one vcmpv_eq of each patch against its maximum.
Device::RunResult maxpool_mask_fwd_impl(Device& dev, const ImageTable& t,
                                        const BlockRange& r,
                                        const Window2d& w, akg::PoolImpl impl,
                                        const akg::PoolPlan& plan);

// MaxPool and AvgPool backward (pooling_bwd.cc): `kind` (kMaxBwd or
// kAvgBwd) selects how the patch gradients are formed, `merge` how they
// are scattered back.
Device::RunResult pooling_backward_impl(Device& dev, const ImageTable& t,
                                        const BlockRange& r,
                                        const Window2d& w, PoolOpKind kind,
                                        MergeImpl merge,
                                        const akg::PoolPlan& plan);

// Global average pooling (extra_pooling.cc); tiles rows against UB
// directly, so it takes no akg plan.
Device::RunResult global_avgpool_impl(Device& dev, const ImageTable& t,
                                      const BlockRange& r);

}  // namespace davinci::kernels
