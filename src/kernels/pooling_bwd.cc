// Pooling backward kernels (Sections V-B and V-C / Figure 7c): one driver
// for MaxPool and AvgPool.
//
// Both passes scatter every patch's gradient back over the input window
// the patch came from. They differ only in how the patch gradients are
// formed:
//
//  * MaxPool: the Argmax mask, stored in the Im2Col shape
//    (N, C1, Kh, Kw, PP, C0), times the incoming gradients
//    (N, C1, Oh, Ow, C0) -- one full-mask vmul per (kh, kw) plane, which
//    "works well" per the paper.
//  * AvgPool: no mask ("the equivalent mask for Avgpool contains 1 in all
//    its positions"): the gradient tile, scaled once by 1/(Kh*Kw), is the
//    patch gradient of every plane.
//
// The merge step is exactly the Col2im operation:
//
//  * kVadd: per-patch scatter adds into the (Ih, Iw, C0) output, 16 of 128
//    lanes, no repetition -- the baseline's "very poor usage of the
//    Vector Unit".
//  * kCol2im: the Col2Im instruction loads, accumulates and stores one
//    16xC0 fractal at a time and repeats over all patch fractals of a
//    (kh, kw) plane, so only Kh*Kw instruction sequences are issued.
//    AvgPool first materializes its one scaled tile as the Kh*Kw planes
//    Col2Im reads (vector copies).
//
// Scheduling: one block per (N, C1) slice ("tiling the computation on
// C1"); slices larger than the Unified Buffer are processed in H-tiles
// sequentially on the same core, with the seam rows (Kh - Sh rows shared
// between adjacent tiles when windows overlap) accumulated through a
// read-modify-write of global memory. Phases are issued through
// detail::staged: with the device's double-buffer policy on, tile t+1's
// loads overlap tile t's multiply/merge, and the seam read-modify-write
// carries an explicit cross-tile dependency on the previous tile's store
// (the RAW through global memory that makes the overlap safe).
#include <algorithm>
#include <vector>

#include "akg/tiling.h"
#include "kernels/detail.h"
#include "kernels/drivers.h"
#include "kernels/pooling.h"
#include "sim/scu.h"

namespace davinci::kernels {

namespace {

using detail::staged;
using detail::TileGeom;
using Event = PipeScheduler::Event;

// One ping-pong slot of the backward pipeline (see FwdSlot in
// maxpool_fwd.cc for the event convention).
struct BwdSlot {
  Span<Float16> grad;    // incoming gradient tile (AvgPool: scaled in place)
  Span<Float16> planes;  // Kh*Kw patch-gradient planes: the mask, then
                         // mask*grad (MaxPool); the materialized scaled
                         // tile (AvgPool, kCol2im only)
  Span<Float16> out;     // (in_rows, Iw, C0) output tile
  Span<Float16> prev;    // seam rows re-read from GM
  Event grad_free = 0;
  Event planes_free = 0;
  Event out_free = 0;
  Event prev_free = 0;
};

// Baseline merge: one 16-lane vadd per (kh, kw, patch), no repetition
// (Section V-B). Plane (kh, kw)'s patch gradients start at
// src[(kh * Kw + kw) * plane_stride]; a stride of 0 reads one tile for
// every plane.
void vadd_scatter(AiCore& core, Span<Float16> out, Span<Float16> src,
                  std::int64_t plane_stride, const TileGeom& g) {
  for (std::int64_t kh = 0; kh < g.w.kh; ++kh) {
    for (std::int64_t kw = 0; kw < g.w.kw; ++kw) {
      const std::int64_t pbase = (kh * g.w.kw + kw) * plane_stride;
      for (std::int64_t p = 0; p < g.tile_patches(); ++p) {
        const std::int64_t y = (p / g.ow) * g.w.sh + kh - g.w.pt;
        const std::int64_t x = (p % g.ow) * g.w.sw + kw - g.w.pl;
        if (y < 0 || y >= g.in_rows || x < 0 || x >= g.iw) continue;
        VecConfig cfg;
        cfg.mask = VecMask::first_n(static_cast<int>(kC0));
        auto dst = out.sub((y * g.iw + x) * kC0, kC0);
        core.vec().binary(VecOp::kAdd, dst, dst,
                          src.sub(pbase + p * kC0, kC0), cfg);
        core.scalar_loop(1);
      }
    }
  }
}

}  // namespace

Device::RunResult pooling_backward_impl(Device& dev, const ImageTable& t,
                                        const BlockRange& r,
                                        const Window2d& w, PoolOpKind kind,
                                        MergeImpl merge,
                                        const akg::PoolPlan& plan) {
  DV_CHECK(is_backward(kind)) << to_string(kind) << " is not a backward kind";
  const bool max = kind == PoolOpKind::kMaxBwd;
  const bool col2im = merge == MergeImpl::kCol2im;
  const std::int64_t ih = t.ih, iw = t.iw;
  const std::int64_t ow = w.out_w(iw);
  const std::int64_t planes = w.kh * w.kw;
  const Float16 inv(1.0f / static_cast<float>(planes));

  const bool db = dev.double_buffer();
  const std::int64_t seam = w.kh > w.sh ? w.kh - w.sh : 0;

  // Worst-case (interior) tile dimensions for the slot buffers.
  const std::int64_t in_rows_max =
      std::min(ih, (plan.oh_tile - 1) * w.sh + w.kh);
  const std::int64_t tp_max = plan.oh_tile * ow;
  const std::int64_t pp_max = round_up(tp_max, kFractalRows);

  auto run = dev.run(r.blocks(), [&](AiCore& core, std::int64_t b) {
    const std::int64_t q = r.q0 + b % r.c1;
    const std::int64_t bn = r.n0 + b / r.c1;
    const Span<Float16> img_mask = max ? t.mask.image(bn) : Span<Float16>();
    const Span<Float16> img_grad = t.grad.image(bn);
    const Span<Float16> img_out = t.grad_in.image(bn);
    core.reset_scratch();
    std::vector<BwdSlot> slots(static_cast<std::size_t>(plan.ub_slots));
    for (auto& sl : slots) {
      sl.grad = core.ub().alloc<Float16>(tp_max * kC0);
      if (max || col2im) {
        sl.planes = core.ub().alloc<Float16>(planes * pp_max * kC0);
      }
      sl.out = core.ub().alloc<Float16>(in_rows_max * iw * kC0);
      if (seam > 0) sl.prev = core.ub().alloc<Float16>(seam * iw * kC0);
    }
    Event last_store = 0;  // previous tile's GM store (seam RAW)

    for (std::int64_t ti = 0; ti < plan.num_h_tiles; ++ti) {
      BwdSlot& sl = slots[static_cast<std::size_t>(ti) % slots.size()];
      const TileGeom g(w, ih, iw, plan, ti);
      const std::int64_t n_grad = g.out_elems();
      const std::int64_t n_out = g.in_elems();
      const std::int64_t plane = g.plane();
      auto gm_grad = g.out_slice(img_grad, q);
      auto gm_out_tile = g.in_slice(img_out, q);
      auto grad = sl.grad.sub(0, n_grad);
      auto pl = sl.planes.empty() ? Span<Float16>()
                                  : sl.planes.sub(0, planes * plane);
      auto out = sl.out.sub(0, n_out);

      // Form the patch gradients: MaxPool's Kh*Kw mask*grad planes, or
      // AvgPool's one scaled gradient tile.
      Event load_done = 0, formed = 0;
      if (max) {
        load_done = staged(
            core, db, Pipe::kMteIn, std::max(sl.grad_free, sl.planes_free),
            [&] {
              core.mte().copy(grad, gm_grad, n_grad);
              core.mte().copy_2d(pl, plane, g.mask_slice(img_mask, q),
                                 g.mask_plane_elems(), planes, n_grad);
            });
        if (!db) core.pipe_barrier();
        // vmul: mask plane x gradient tile, full mask (Listing 3's
        // computation), in place.
        formed = staged(core, db, Pipe::kVector, load_done, [&] {
          for (std::int64_t k = 0; k < planes; ++k) {
            core.vbin_flat(VecOp::kMul, pl.sub(k * plane, n_grad),
                           pl.sub(k * plane, n_grad), grad, n_grad);
            core.scalar_loop(1);
          }
        });
        sl.grad_free = formed;
      } else {
        load_done = staged(core, db, Pipe::kMteIn, sl.grad_free,
                           [&] { core.mte().copy(grad, gm_grad, n_grad); });
        if (!db) core.pipe_barrier();
        formed = staged(core, db, Pipe::kVector, load_done,
                        [&] { core.vmuls_flat(grad, grad, inv, n_grad); });
      }

      const Event init_done =
          staged(core, db, Pipe::kVector, sl.out_free,
                 [&] { core.vdup_flat(out, Float16(), n_out); });
      if (!db) core.pipe_barrier();

      Event merge_done = 0;
      if (col2im) {
        if (!max) {
          // Col2Im reads Kh*Kw whole planes: materialize the scaled tile
          // as each of them (all-ones mask times gradient).
          formed = staged(core, db, Pipe::kVector,
                          std::max(formed, sl.planes_free), [&] {
                            for (std::int64_t k = 0; k < planes; ++k) {
                              core.vadds_flat(pl.sub(k * plane, n_grad),
                                              grad, Float16(), n_grad);
                              core.scalar_loop(1);
                            }
                          });
          sl.grad_free = formed;
          if (!db) core.pipe_barrier();
        }
        merge_done =
            staged(core, db, Pipe::kScu, std::max(formed, init_done),
                   [&] { core.scu().col2im(out, pl, g.im2col_args()); });
        sl.planes_free = merge_done;
      } else {
        // AvgPool's one tile serves every plane (plane stride 0).
        merge_done =
            staged(core, db, Pipe::kVector, std::max(formed, init_done), [&] {
              vadd_scatter(core, out, max ? pl : grad, max ? plane : 0, g);
            });
        (max ? sl.planes_free : sl.grad_free) = merge_done;
      }

      // Seam accumulation: re-read the rows this tile shares with the
      // previous one and add them in -- a RAW through GM, hence the
      // dependency on the previous tile's store.
      const std::int64_t seam_rows =
          ti > 0 ? std::min(seam, g.in_rows) : 0;
      Event ready_to_store = merge_done;
      if (seam_rows > 0) {
        const std::int64_t n_seam = seam_rows * iw * kC0;
        auto prev = sl.prev.sub(0, n_seam);
        const Event prev_done =
            staged(core, db, Pipe::kMteIn,
                   std::max(sl.prev_free, last_store),
                   [&] { core.mte().copy(prev, gm_out_tile, n_seam); });
        if (!db) core.pipe_barrier();
        const Event add_done =
            staged(core, db, Pipe::kVector,
                   std::max(prev_done, merge_done), [&] {
                     core.vbin_flat(VecOp::kAdd, out, out, prev, n_seam);
                   });
        sl.prev_free = add_done;
        ready_to_store = add_done;
      }
      last_store = detail::store_tile(core, db, load_done, ready_to_store,
                                      gm_out_tile, out, n_out);
      sl.out_free = last_store;
    }
  });

  return run;
}

}  // namespace davinci::kernels
