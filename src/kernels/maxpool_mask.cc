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
#include "kernels/drivers.h"
#include "kernels/pooling.h"
#include "sim/scu.h"

namespace davinci::kernels {

namespace {

using akg::PoolImpl;
using detail::TileGeom;

}  // namespace

Device::RunResult maxpool_mask_fwd_impl(Device& dev, const ImageTable& t,
                                        const BlockRange& r,
                                        const Window2d& w, akg::PoolImpl impl,
                                        const akg::PoolPlan& plan) {
  // One block per (N, C1) slice; H-tiles run sequentially on the core.
  auto run = dev.run(r.blocks(), [&](AiCore& core, std::int64_t b) {
    const std::int64_t q = r.q0 + b % r.c1;
    const std::int64_t bn = r.n0 + b / r.c1;
    const Span<Float16> img_in = t.in.image(bn);
    const Span<Float16> img_out = t.out.image(bn);
    const Span<Float16> img_mask = t.mask.image(bn);
    for (std::int64_t ti = 0; ti < plan.num_h_tiles; ++ti) {
      core.reset_scratch();
      const TileGeom g(w, t.ih, t.iw, plan, ti);
      const std::int64_t tp = g.tile_patches();
      const std::int64_t pp = g.padded_patches();
      const std::int64_t plane = g.plane();
      const std::int64_t n_in = g.in_elems();
      auto gm_in = g.in_slice(img_in, q);
      auto gm_out = g.out_slice(img_out, q);
      auto gm_mask = g.mask_slice(img_mask, q);

      Span<Float16> acc;  // the reduced output tile
      Span<Float16> msk;  // the tile's mask planes
      if (impl == PoolImpl::kIm2col) {
        auto l1 = core.l1().alloc<Float16>(n_in);
        core.mte().copy(l1, gm_in, n_in);

        const Im2colArgs args = g.im2col_args();
        auto cols = core.ub().alloc<Float16>(args.output_elems());
        core.scu().im2col_load(cols, l1, args);
        acc = core.ub().alloc<Float16>(plane);
        core.vdup_flat(acc, Float16::lowest(), plane);
        core.pipe_barrier();
        detail::reduce_planes(core, VecOp::kMax, acc, cols, w.kh * w.kw, plane);

        // One saturated-mask comparison per (kh, kw) plane.
        msk = core.ub().alloc<Float16>(w.kh * w.kw * plane);
        for (std::int64_t k = 0; k < w.kh * w.kw; ++k) {
          core.vcmpv_eq_flat(msk.sub(k * plane, plane),
                             cols.sub(k * plane, plane), acc, plane);
          core.scalar_loop(1);
        }
      } else {
        auto ubin = core.ub().alloc<Float16>(n_in);
        core.mte().copy(ubin, gm_in, n_in);
        acc = core.ub().alloc<Float16>(tp * kC0);
        core.vdup_flat(acc, Float16::lowest(), tp * kC0);
        core.pipe_barrier();

        // Direct reduction: Oh*Ow*Kh issues, 16 active lanes, repeat = Kw.
        detail::masked_window_reduce(core, VecOp::kMax, acc, ubin, g);
        core.pipe_barrier();

        // Mask production against the original layout: one comparison per
        // (oh, ow, kh) with repeat over Kw; the destinations for the Kw
        // repeats are strided across whole (kh, kw) planes.
        msk = core.ub().alloc<Float16>(w.kh * w.kw * plane);
        for (std::int64_t i = 0; i < g.oh_t; ++i) {
          for (std::int64_t j = 0; j < g.ow; ++j) {
            const std::int64_t p = i * g.ow + j;
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
              auto src = ubin.sub(((i * w.sh + kh) * g.iw + j * w.sw) * kC0,
                                  w.kw * kC0);
              core.vec().cmpv_eq(dst, src, maxv, cfg);
              core.scalar_loop(1);
            }
          }
        }
      }
      core.pipe_barrier();
      core.mte().copy(gm_out, acc, tp * kC0);
      core.mte().copy_2d(gm_mask, g.mask_plane_elems(), msk, plane,
                         w.kh * w.kw, tp * kC0);
    }
  });

  return run;
}

}  // namespace davinci::kernels
