// AvgPool backward kernel (Section V-C).
//
// Forward mirrors MaxPool with vadd instead of vmax plus an element-wise
// multiplication by 1/(Kh*Kw) before the store; it is dispatched straight
// to the shared forward driver by run_pool (pooling.cc), so this file
// holds only the backward pass.
//
// Backward needs no Argmax mask ("the equivalent mask for Avgpool contains
// 1 in all its positions"): the incoming gradients are scaled by
// 1/(Kh*Kw) and merged back with Col2im semantics. The kVadd baseline
// scatters the scaled gradient per patch; the kCol2im version materializes
// the scaled plane per kernel position (vector copies) and issues Col2Im.
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

// One ping-pong slot of the backward pipeline (see FwdSlot in
// maxpool_fwd.cc for the event convention).
struct AvgBwdSlot {
  Span<Float16> sg;    // scaled gradient tile
  Span<Float16> cols;  // materialized planes (kCol2im only)
  Span<Float16> out;   // (in_rows, Iw, C0) output tile
  Span<Float16> prev;  // seam rows re-read from GM
  Event sg_free = 0;
  Event cols_free = 0;
  Event out_free = 0;
  Event prev_free = 0;
};

}  // namespace

Device::RunResult avgpool_bwd_impl(Device& dev, const ImageTable& t,
                                   const BlockRange& r, const Window2d& w,
                                   MergeImpl merge,
                                   const akg::PoolPlan& plan) {
  const std::int64_t ih = t.ih, iw = t.iw;
  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);
  const Float16 inv(1.0f / static_cast<float>(w.kh * w.kw));

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
    const Span<Float16> img_grad = t.grad.image(bn);
    const Span<Float16> img_out = t.grad_in.image(bn);
    core.reset_scratch();
    std::vector<AvgBwdSlot> slots(static_cast<std::size_t>(plan.ub_slots));
    for (auto& sl : slots) {
      sl.sg = core.ub().alloc<Float16>(tp_max * kC0);
      if (merge == MergeImpl::kCol2im) {
        sl.cols = core.ub().alloc<Float16>(w.kh * w.kw * pp_max * kC0);
      }
      sl.out = core.ub().alloc<Float16>(in_rows_max * iw * kC0);
      if (seam > 0) sl.prev = core.ub().alloc<Float16>(seam * iw * kC0);
    }
    Event last_store = 0;  // previous tile's GM store (seam RAW)

    for (std::int64_t ti = 0; ti < plan.num_h_tiles; ++ti) {
      AvgBwdSlot& sl = slots[static_cast<std::size_t>(ti) % slots.size()];
      const HTile ht = akg::h_tile(w, ih, oh, plan.oh_tile, ti);

      Window2d wt = w;
      wt.pt = ht.pt_eff;
      wt.pb = ht.pb_eff;
      const std::int64_t in_rows = ht.in_rows();
      const std::int64_t oh_t = ht.out_rows();
      const std::int64_t tp = oh_t * ow;
      const std::int64_t pp = round_up(tp, kFractalRows);
      const std::int64_t plane = pp * kC0;

      auto gm_grad = img_grad.sub((q * oh + ht.o0) * ow * kC0, tp * kC0);
      auto gm_out_tile =
          img_out.sub((q * ih + ht.y0) * iw * kC0, in_rows * iw * kC0);

      auto sg = sl.sg.sub(0, tp * kC0);
      auto out = sl.out.sub(0, in_rows * iw * kC0);

      // Scale the gradient tile once: sg = grad * 1/(Kh*Kw).
      const Event load_done =
          staged(core, db, Pipe::kMteIn, sl.sg_free,
                 [&] { core.mte().copy(sg, gm_grad, tp * kC0); });
      if (!db) core.pipe_barrier();
      const Event scale_done =
          staged(core, db, Pipe::kVector, load_done,
                 [&] { core.vmuls_flat(sg, sg, inv, tp * kC0); });
      const Event init_done =
          staged(core, db, Pipe::kVector, sl.out_free, [&] {
            core.vdup_flat(out, Float16(), in_rows * iw * kC0);
          });
      if (!db) core.pipe_barrier();

      Event merge_done;
      if (merge == MergeImpl::kCol2im) {
        // Materialize the scaled plane per kernel position (all-ones mask
        // times gradient), then let Col2Im do the whole merge.
        auto cols = sl.cols.sub(0, w.kh * w.kw * plane);
        const Event mat_done =
            staged(core, db, Pipe::kVector,
                   std::max(scale_done, sl.cols_free), [&] {
                     for (std::int64_t k = 0; k < w.kh * w.kw; ++k) {
                       core.vadds_flat(cols.sub(k * plane, tp * kC0), sg,
                                       Float16(), tp * kC0);
                       core.scalar_loop(1);
                     }
                   });
        sl.sg_free = mat_done;
        if (!db) core.pipe_barrier();
        Im2colArgs args;
        args.window = wt;
        args.ih = in_rows;
        args.iw = iw;
        DV_CHECK_EQ(args.patches(), tp);
        merge_done =
            staged(core, db, Pipe::kScu, std::max(mat_done, init_done),
                   [&] { core.scu().col2im(out, cols, args); });
        sl.cols_free = merge_done;
      } else {
        merge_done = staged(
            core, db, Pipe::kVector, std::max(scale_done, init_done), [&] {
              for (std::int64_t kh = 0; kh < w.kh; ++kh) {
                for (std::int64_t kw = 0; kw < w.kw; ++kw) {
                  for (std::int64_t p = 0; p < tp; ++p) {
                    const std::int64_t y = (p / ow) * w.sh + kh - wt.pt;
                    const std::int64_t x = (p % ow) * w.sw + kw - wt.pl;
                    if (y < 0 || y >= in_rows || x < 0 || x >= iw) continue;
                    VecConfig cfg;
                    cfg.mask = VecMask::first_n(static_cast<int>(kC0));
                    auto dst = out.sub((y * iw + x) * kC0, kC0);
                    core.vec().binary(VecOp::kAdd, dst, dst,
                                      sg.sub(p * kC0, kC0), cfg);
                    core.scalar_loop(1);
                  }
                }
              }
            });
        sl.sg_free = merge_done;
      }

      // Seam accumulation: RAW through GM on the previous tile's store.
      const std::int64_t seam_rows =
          ti > 0 ? (seam < in_rows ? seam : in_rows) : 0;
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
            core.mte().copy(gm_out_tile, out, in_rows * iw * kC0);
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
