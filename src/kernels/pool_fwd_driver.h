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

// Shared forward driver (maxpool_fwd.cc) used by the MaxPool, MinPool and
// AvgPool forward kinds; `op`/`init` select the reduction, `scale` (if
// not 1) is applied to the output tile before the store.
Device::RunResult pooling_forward_impl(Device& dev, const ImageTable& t,
                                       const BlockRange& r, const Window2d& w,
                                       akg::PoolImpl impl, VecOp op,
                                       Float16 init, Float16 scale,
                                       const akg::PoolPlan& plan);

// MaxPool forward + Argmax mask (maxpool_mask.cc).
Device::RunResult maxpool_mask_fwd_impl(Device& dev, const ImageTable& t,
                                        const BlockRange& r,
                                        const Window2d& w, akg::PoolImpl impl,
                                        const akg::PoolPlan& plan);

// MaxPool backward (maxpool_bwd.cc).
Device::RunResult maxpool_bwd_impl(Device& dev, const ImageTable& t,
                                   const BlockRange& r, const Window2d& w,
                                   MergeImpl merge,
                                   const akg::PoolPlan& plan);

// AvgPool backward (avgpool.cc).
Device::RunResult avgpool_bwd_impl(Device& dev, const ImageTable& t,
                                   const BlockRange& r, const Window2d& w,
                                   MergeImpl merge,
                                   const akg::PoolPlan& plan);

// Global average pooling (extra_pooling.cc); tiles rows against UB
// directly, so it takes no akg plan.
Device::RunResult global_avgpool_impl(Device& dev, const ImageTable& t,
                                      const BlockRange& r);

}  // namespace davinci::kernels
