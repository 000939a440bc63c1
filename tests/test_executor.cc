// Tests of the persistent work-stealing pool (sim/executor.h) and of the
// Device invariant it must preserve: host scheduling is a free variable,
// so repeated runs produce identical outputs and accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "sim/executor.h"
#include "test_util.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::run_pool;

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce) {
  WorkStealingPool pool;
  std::vector<std::atomic<int>> hits(64);
  pool.run(64, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkStealingPool, StartsLazilyAndPersists) {
  WorkStealingPool pool;
  EXPECT_EQ(pool.num_threads(), 0);
  std::atomic<int> count{0};
  pool.run(8, [&](int) { count++; });
  const int threads = pool.num_threads();
  EXPECT_GT(threads, 0);
  // Reuse: the worker count is stable across runs.
  pool.run(8, [&](int) { count++; });
  EXPECT_EQ(pool.num_threads(), threads);
  EXPECT_EQ(count.load(), 16);
}

TEST(WorkStealingPool, HandlesUnevenLaneDurations) {
  // Lanes with wildly different costs must all complete (stealing or not).
  WorkStealingPool pool;
  std::vector<std::atomic<std::int64_t>> sums(16);
  pool.run(16, [&](int i) {
    std::int64_t s = 0;
    const std::int64_t reps = (i % 4 == 0) ? 200000 : 100;
    for (std::int64_t k = 0; k < reps; ++k) s += k;
    sums[static_cast<std::size_t>(i)] = s;
  });
  for (int i = 0; i < 16; ++i) {
    const std::int64_t reps = (i % 4 == 0) ? 200000 : 100;
    EXPECT_EQ(sums[static_cast<std::size_t>(i)].load(),
              reps * (reps - 1) / 2);
  }
}

TEST(WorkStealingPool, MoreTasksThanWorkers) {
  WorkStealingPool pool;
  std::atomic<int> count{0};
  pool.run(1000, [&](int) { count++; });
  EXPECT_EQ(count.load(), 1000);
}

TEST(WorkStealingPool, ZeroAndSingleTask) {
  WorkStealingPool pool;
  std::atomic<int> count{0};
  pool.run(0, [&](int) { count++; });
  EXPECT_EQ(count.load(), 0);
  pool.run(1, [&](int i) { count += i + 1; });
  EXPECT_EQ(count.load(), 1);
}

TEST(WorkStealingPool, DeviceKernelRepeatsBitIdentically) {
  // The end the pool serves: two runs of the same kernel on one device,
  // whose lanes land on whichever pool workers pick them up, give
  // identical outputs and cycle accounting, and match the reference. A
  // real kernel (tiled, double-buffered) exercises the heterogeneous-lane
  // case: block 0's core has more H-tiles than the rest.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 8, 64, 64, 301);
  const Window2d w = Window2d::pool(3, 2);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w,
                  .fwd = akg::PoolImpl::kIm2col};
  auto first = run_pool(dev, op, PoolInputs{.in = &in});
  auto again = run_pool(dev, op, PoolInputs{.in = &in});
  EXPECT_EQ(first.run.device_cycles, again.run.device_cycles);
  EXPECT_EQ(first.run.device_cycles_serial, again.run.device_cycles_serial);
  testutil::expect_equal_f16(first.out, again.out, "repeat run");
  testutil::expect_equal_f16(first.out, ref::maxpool_fwd(in, w), "reference");
}

}  // namespace
}  // namespace davinci
