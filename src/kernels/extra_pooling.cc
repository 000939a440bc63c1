// Pooling operators beyond the paper's MaxPool/AvgPool: global average
// pooling. (MinPool rides the shared forward driver and is dispatched
// directly by run_pool in pooling.cc.)
#include "akg/tiling.h"
#include "kernels/detail.h"
#include "kernels/pool_fwd_driver.h"
#include "kernels/pooling.h"

namespace davinci::kernels {

Device::RunResult global_avgpool_impl(Device& dev, const ImageTable& t,
                                      const BlockRange& r) {
  const std::int64_t ih = t.ih, iw = t.iw;
  const std::int64_t lanes = dev.arch().vector_lanes;
  const Float16 inv(1.0f / static_cast<float>(ih * iw));

  // Row tiling against the Unified Buffer (input tile + the 128-lane
  // accumulator).
  const std::int64_t row_elems = iw * kC0;
  std::int64_t rows_per_tile =
      (dev.arch().ub_bytes - 1024) / (row_elems * 2);
  DV_CHECK_GE(rows_per_tile, 1) << "a single input row does not fit UB";
  if (rows_per_tile > ih) rows_per_tile = ih;
  const std::int64_t num_tiles = ceil_div(ih, rows_per_tile);

  auto run = dev.run(r.blocks(), [&](AiCore& core, std::int64_t b) {
    const std::int64_t q = r.q0 + b % r.c1;
    const std::int64_t bn = r.n0 + b / r.c1;
    // The accumulator lives across tile iterations; the tile buffer is
    // allocated once at its maximum size and reused (the scratch bump
    // allocator cannot free individual regions mid-kernel).
    auto acc = core.ub().alloc<Float16>(lanes);
    core.vdup_flat(acc, Float16(), lanes);
    auto tile_buf = core.ub().alloc<Float16>(rows_per_tile * row_elems);

    for (std::int64_t ti = 0; ti < num_tiles; ++ti) {
      const std::int64_t r0 = ti * rows_per_tile;
      const std::int64_t r1 = r0 + rows_per_tile < ih ? r0 + rows_per_tile
                                                      : ih;
      const std::int64_t n_t = (r1 - r0) * row_elems;
      auto tile = tile_buf.sub(0, n_t);
      core.mte().copy(tile,
                      t.in.image(bn).sub((q * ih + r0) * row_elems, n_t), n_t);
      core.pipe_barrier();

      // Running accumulation: acc[j] += chunk[j] for each 128-element
      // chunk, via the repeat idiom with a zero destination stride.
      const std::int64_t full = n_t / lanes;
      std::int64_t done = 0;
      std::int64_t instrs = 0;
      while (done < full) {
        const int rep = static_cast<int>(
            full - done > dev.arch().max_repeat ? dev.arch().max_repeat
                                                : full - done);
        VecConfig cfg;
        cfg.repeat = rep;
        cfg.dst_rep_stride = 0;
        cfg.src0_rep_stride = 0;
        cfg.src1_rep_stride = lanes;
        core.vec().binary(VecOp::kAdd, acc, acc,
                          tile.drop_front(done * lanes), cfg);
        done += rep;
        ++instrs;
      }
      const int tail = static_cast<int>(n_t % lanes);
      if (tail > 0) {
        VecConfig cfg;
        cfg.mask = VecMask::first_n(tail);
        core.vec().binary(VecOp::kAdd, acc, acc,
                          tile.drop_front(full * lanes), cfg);
        ++instrs;
      }
      if (instrs > 1) core.scalar_loop(instrs - 1);
    }

    // Lane-halving reduction tree: 128 -> 64 -> 32 -> 16 partial sums.
    for (std::int64_t width = lanes / 2; width >= kC0; width /= 2) {
      VecConfig cfg;
      cfg.mask = VecMask::first_n(static_cast<int>(width));
      core.vec().binary(VecOp::kAdd, acc, acc, acc.drop_front(width), cfg);
      core.scalar_loop(1);
    }

    // Mean and store.
    VecConfig cfg;
    cfg.mask = VecMask::first_n(static_cast<int>(kC0));
    core.vec().muls(acc, acc, inv, cfg);
    core.pipe_barrier();
    core.mte().copy(t.out.image(bn).sub(q * kC0, kC0), acc, kC0);
  });

  return run;
}

}  // namespace davinci::kernels
