// MaxPool backward kernels (Section V-B / Figure 7c).
//
// Inputs: the Argmax mask in the Im2Col shape (N, C1, Kh, Kw, PP, C0) and
// the incoming gradients (N, C1, Oh, Ow, C0). Both implementations share
// the multiplication step -- one full-mask vmul per (kh, kw) plane, which
// "works well" per the paper -- and differ only in the merge step, which
// is exactly the Col2im operation:
//
//  * kVadd: per-patch scatter adds into the (Ih, Iw, C0) output, 16 of 128
//    mask lanes, no repetition -- the baseline's "very poor usage of the
//    Vector Unit".
//  * kCol2im: the Col2Im instruction loads, accumulates and stores one
//    16xC0 fractal at a time and repeats over all patch fractals of a
//    (kh, kw) plane, so only Kh*Kw instruction sequences are issued.
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
#include "kernels/pool_fwd_driver.h"
#include "kernels/pooling.h"
#include "sim/scu.h"

namespace davinci::kernels {

namespace {

using akg::HTile;
using detail::staged;
using Event = PipeScheduler::Event;

struct BwdTileCtx {
  Window2d wt;  // per-tile window (effective paddings)
  std::int64_t in_rows, iw, oh_t, ow, tp, pp, plane;
};

// One ping-pong slot of the backward pipeline (see FwdSlot in
// maxpool_fwd.cc for the event convention).
struct BwdSlot {
  Span<Float16> grad;  // incoming gradient tile
  Span<Float16> mg;    // mask (later mask*grad) planes
  Span<Float16> out;   // (in_rows, Iw, C0) output tile
  Span<Float16> prev;  // seam rows re-read from GM
  Event grad_free = 0;
  Event mg_free = 0;
  Event out_free = 0;
  Event prev_free = 0;
};

}  // namespace

Device::RunResult maxpool_bwd_impl(Device& dev, const ImageTable& t,
                                   const BlockRange& r, const Window2d& w,
                                   MergeImpl merge,
                                   const akg::PoolPlan& plan) {
  const std::int64_t ih = t.ih, iw = t.iw;
  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);
  const std::int64_t ppg = round_up(oh * ow, kFractalRows);

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
    const Span<Float16> img_mask = t.mask.image(bn);
    const Span<Float16> img_grad = t.grad.image(bn);
    const Span<Float16> img_out = t.grad_in.image(bn);
    core.reset_scratch();
    std::vector<BwdSlot> slots(static_cast<std::size_t>(plan.ub_slots));
    for (auto& sl : slots) {
      sl.grad = core.ub().alloc<Float16>(tp_max * kC0);
      sl.mg = core.ub().alloc<Float16>(w.kh * w.kw * pp_max * kC0);
      sl.out = core.ub().alloc<Float16>(in_rows_max * iw * kC0);
      if (seam > 0) sl.prev = core.ub().alloc<Float16>(seam * iw * kC0);
    }
    Event last_store = 0;  // previous tile's GM store (seam RAW)

    for (std::int64_t ti = 0; ti < plan.num_h_tiles; ++ti) {
      BwdSlot& sl = slots[static_cast<std::size_t>(ti) % slots.size()];
      const HTile ht = akg::h_tile(w, ih, oh, plan.oh_tile, ti);

      BwdTileCtx c;
      c.wt = w;
      c.wt.pt = ht.pt_eff;
      c.wt.pb = ht.pb_eff;
      c.in_rows = ht.in_rows();
      c.iw = iw;
      c.oh_t = ht.out_rows();
      c.ow = ow;
      c.tp = c.oh_t * ow;
      c.pp = round_up(c.tp, kFractalRows);
      c.plane = c.pp * kC0;
      const std::int64_t p0 = ht.o0 * ow;

      auto gm_grad =
          img_grad.sub((q * oh + ht.o0) * ow * kC0, c.tp * kC0);
      auto gm_mask_slice =
          img_mask.sub(q * w.kh * w.kw * ppg * kC0 + p0 * kC0,
                       ((w.kh * w.kw - 1) * ppg + c.tp) * kC0);
      auto gm_out_tile =
          img_out.sub((q * ih + ht.y0) * iw * kC0, c.in_rows * iw * kC0);

      auto grad_t = sl.grad.sub(0, c.tp * kC0);
      auto mg = sl.mg.sub(0, w.kh * w.kw * c.plane);
      auto out = sl.out.sub(0, c.in_rows * iw * kC0);

      // Load the gradient tile and the mask planes.
      const Event load_done =
          staged(core, db, Pipe::kMteIn, std::max(sl.grad_free, sl.mg_free),
                 [&] {
                   core.mte().copy(grad_t, gm_grad, c.tp * kC0);
                   core.mte().copy_2d(mg, c.plane, gm_mask_slice, ppg * kC0,
                                      c.wt.kh * c.wt.kw, c.tp * kC0);
                 });
      if (!db) core.pipe_barrier();
      // vmul: mask plane x gradient tile, full mask (Listing 3's
      // computation), in place in mg.
      const Event mul_done =
          staged(core, db, Pipe::kVector, load_done, [&] {
            for (std::int64_t k = 0; k < c.wt.kh * c.wt.kw; ++k) {
              core.vbin_flat(VecOp::kMul, mg.sub(k * c.plane, c.tp * kC0),
                             mg.sub(k * c.plane, c.tp * kC0), grad_t,
                             c.tp * kC0);
              core.scalar_loop(1);
            }
          });
      sl.grad_free = mul_done;

      const Event init_done =
          staged(core, db, Pipe::kVector, sl.out_free, [&] {
            core.vdup_flat(out, Float16(), c.in_rows * iw * kC0);
          });
      if (!db) core.pipe_barrier();

      Event merge_done;
      if (merge == MergeImpl::kCol2im) {
        Im2colArgs args;
        args.window = c.wt;
        args.ih = c.in_rows;
        args.iw = iw;
        DV_CHECK_EQ(args.patches(), c.tp);
        merge_done =
            staged(core, db, Pipe::kScu, std::max(mul_done, init_done),
                   [&] { core.scu().col2im(out, mg, args); });
      } else {
        // Baseline merge: one 16-lane vadd per (kh, kw, patch), no
        // repetition (Section V-B).
        merge_done = staged(
            core, db, Pipe::kVector, std::max(mul_done, init_done), [&] {
              for (std::int64_t kh = 0; kh < w.kh; ++kh) {
                for (std::int64_t kw = 0; kw < w.kw; ++kw) {
                  const std::int64_t pbase = (kh * w.kw + kw) * c.plane;
                  for (std::int64_t p = 0; p < c.tp; ++p) {
                    const std::int64_t y = (p / ow) * w.sh + kh - c.wt.pt;
                    const std::int64_t x = (p % ow) * w.sw + kw - c.wt.pl;
                    if (y < 0 || y >= c.in_rows || x < 0 || x >= iw) continue;
                    VecConfig cfg;
                    cfg.mask = VecMask::first_n(static_cast<int>(kC0));
                    auto dst = out.sub((y * iw + x) * kC0, kC0);
                    core.vec().binary(VecOp::kAdd, dst, dst,
                                      mg.sub(pbase + p * kC0, kC0), cfg);
                    core.scalar_loop(1);
                  }
                }
              }
            });
      }
      sl.mg_free = merge_done;

      // Seam accumulation: re-read the rows this tile shares with the
      // previous one and add them in -- a RAW through GM, hence the
      // dependency on the previous tile's store.
      const std::int64_t seam_rows =
          ti > 0 ? (seam < c.in_rows ? seam : c.in_rows) : 0;
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
      if (!db) core.pipe_barrier();
      const Event store_done =
          staged(core, db, Pipe::kMteOut, ready_to_store, [&] {
            core.mte().copy(gm_out_tile, out, c.in_rows * iw * kC0);
          });
      sl.out_free = store_done;
      last_store = store_done;
      if (db) {
        core.sched().note_tile(load_done, +1);
        core.sched().note_tile(store_done, -1);
      }
    }
  });

  return run;
}

}  // namespace davinci::kernels
