// MaxPool forward with Argmax-mask production (Section V-A / Figure 7b).
//
// Training needs the Argmax mask: the position of the maximum of each
// patch, obtained "by comparing each patch of the input with its maximum
// value". The mask is stored in the Im2Col output shape
// (N, C1, Kh, Kw, PP, C0) because that shape keeps overlapping patches
// separated and feeds the Col2Im-based backward directly.
//
//  * kIm2col variant: the comparison is one full-mask vcmpv_eq per
//    (kh, kw) plane against the already-reduced output tile.
//  * kDirect variant (baseline): the input is in its original layout, so
//    each comparison covers one patch row with only the C0 lanes active --
//    issued Oh*Ow*Kh times like the direct reduction itself.
#include "akg/tiling.h"
#include "kernels/detail.h"
#include "kernels/pool_fwd_driver.h"
#include "kernels/pooling.h"
#include "sim/scu.h"

namespace davinci::kernels {

namespace {

using akg::HTile;
using akg::PoolImpl;

}  // namespace

Device::RunResult maxpool_mask_fwd_impl(Device& dev, const ImageTable& t,
                                        const BlockRange& r,
                                        const Window2d& w, akg::PoolImpl impl,
                                        const akg::PoolPlan& plan) {
  const std::int64_t ih = t.ih, iw = t.iw;
  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);
  const std::int64_t ppg = round_up(oh * ow, kFractalRows);


  // One block per (N, C1) slice; H-tiles run sequentially on the core.
  auto run = dev.run(r.blocks(), [&](AiCore& core, std::int64_t b) {
    const std::int64_t q = r.q0 + b % r.c1;
    const std::int64_t bn = r.n0 + b / r.c1;
    const Span<Float16> img_in = t.in.image(bn);
    const Span<Float16> img_out = t.out.image(bn);
    const Span<Float16> img_mask = t.mask.image(bn);
    for (std::int64_t ti = 0; ti < plan.num_h_tiles; ++ti) {
      core.reset_scratch();
      const HTile ht = akg::h_tile(w, ih, oh, plan.oh_tile, ti);

      Window2d wt = w;
      wt.pt = ht.pt_eff;
      wt.pb = ht.pb_eff;
      const std::int64_t in_rows = ht.in_rows();
      const std::int64_t oh_t = ht.out_rows();
      const std::int64_t tp = oh_t * ow;          // valid tile patches
      const std::int64_t pp = round_up(tp, kFractalRows);
      const std::int64_t plane = pp * kC0;
      const std::int64_t p0 = ht.o0 * ow;         // first global patch index

      auto gm_in = img_in.sub((q * ih + ht.y0) * iw * kC0, in_rows * iw * kC0);
      auto gm_out = img_out.sub((q * oh + ht.o0) * ow * kC0, tp * kC0);
      // Slice of the mask covering all (kh, kw) planes of this (n, c1),
      // positioned at this tile's first patch.
      auto gm_mask = img_mask.sub(q * w.kh * w.kw * ppg * kC0 + p0 * kC0,
                                  ((w.kh * w.kw - 1) * ppg + tp) * kC0);

      const std::int64_t n_in = in_rows * iw * kC0;

      if (impl == PoolImpl::kIm2col) {
        auto l1 = core.l1().alloc<Float16>(n_in);
        core.mte().copy(l1, gm_in, n_in);

        Im2colArgs args;
        args.window = wt;
        args.ih = in_rows;
        args.iw = iw;
        DV_CHECK_EQ(args.patches(), tp);

        auto cols = core.ub().alloc<Float16>(args.output_elems());
        core.scu().im2col_load(cols, l1, args);
        auto acc = core.ub().alloc<Float16>(plane);
        core.vdup_flat(acc, Float16::lowest(), plane);
        core.pipe_barrier();
        detail::reduce_planes(core, VecOp::kMax, acc, cols, w.kh * w.kw, plane);

        // One saturated-mask comparison per (kh, kw) plane.
        auto msk = core.ub().alloc<Float16>(w.kh * w.kw * plane);
        for (std::int64_t k = 0; k < w.kh * w.kw; ++k) {
          core.vcmpv_eq_flat(msk.sub(k * plane, plane),
                             cols.sub(k * plane, plane), acc, plane);
          core.scalar_loop(1);
        }
        core.pipe_barrier();
        core.mte().copy(gm_out, acc, tp * kC0);
        core.mte().copy_2d(gm_mask, ppg * kC0, msk, plane, w.kh * w.kw,
                           tp * kC0);
      } else {
        auto ubin = core.ub().alloc<Float16>(n_in);
        core.mte().copy(ubin, gm_in, n_in);
        auto acc = core.ub().alloc<Float16>(tp * kC0);
        core.vdup_flat(acc, Float16::lowest(), tp * kC0);
        core.pipe_barrier();

        // Direct reduction: Oh*Ow*Kh issues, 16 active lanes, repeat = Kw.
        for (std::int64_t i = 0; i < oh_t; ++i) {
          for (std::int64_t j = 0; j < ow; ++j) {
            auto dst = acc.sub((i * ow + j) * kC0, kC0);
            for (std::int64_t kh = 0; kh < w.kh; ++kh) {
              VecConfig cfg;
              cfg.mask = VecMask::first_n(static_cast<int>(kC0));
              cfg.repeat = static_cast<int>(w.kw);
              cfg.dst_rep_stride = 0;
              cfg.src0_rep_stride = 0;
              cfg.src1_rep_stride = kC0;
              auto src = ubin.sub(((i * w.sh + kh) * iw + j * w.sw) * kC0,
                                  w.kw * kC0);
              core.vec().binary(VecOp::kMax, dst, dst, src, cfg);
              core.scalar_loop(1);
            }
          }
        }
        core.pipe_barrier();

        // Mask production against the original layout: one comparison per
        // (oh, ow, kh) with repeat over Kw; the destinations for the Kw
        // repeats are strided across whole (kh, kw) planes.
        auto msk = core.ub().alloc<Float16>(w.kh * w.kw * plane);
        for (std::int64_t i = 0; i < oh_t; ++i) {
          for (std::int64_t j = 0; j < ow; ++j) {
            const std::int64_t p = i * ow + j;
            auto maxv = acc.sub(p * kC0, kC0);
            for (std::int64_t kh = 0; kh < w.kh; ++kh) {
              VecConfig cfg;
              cfg.mask = VecMask::first_n(static_cast<int>(kC0));
              cfg.repeat = static_cast<int>(w.kw);
              cfg.dst_rep_stride = plane;  // consecutive kw -> next plane
              cfg.src0_rep_stride = kC0;
              cfg.src1_rep_stride = 0;
              auto dst = msk.sub((kh * w.kw * pp + p) * kC0,
                                 ((w.kw - 1) * pp + 1) * kC0);
              auto src = ubin.sub(((i * w.sh + kh) * iw + j * w.sw) * kC0,
                                  w.kw * kC0);
              core.vec().cmpv_eq(dst, src, maxv, cfg);
              core.scalar_loop(1);
            }
          }
        }
        core.pipe_barrier();
        core.mte().copy(gm_out, acc, tp * kC0);
        core.mte().copy_2d(gm_mask, ppg * kC0, msk, plane, w.kh * w.kw,
                           tp * kC0);
      }
    }
  });

  return run;
}

}  // namespace davinci::kernels
