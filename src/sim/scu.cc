#include "sim/scu.h"

#include <algorithm>
#include <cstring>

#include "common/f16_simd.h"

namespace davinci {

namespace {

// The (xk, yk) -> (y, x) source-coordinate mapping shared by both Im2Col
// iteration orders and Col2Im: patch p's (xk, yk) element comes from input
// position (p / Ow * Sh + xk - pad_top, p % Ow * Sw + yk - pad_left), and
// positions outside the input image are the virtual zero-padding border.
struct PatchCoords {
  explicit PatchCoords(const Im2colArgs& args)
      : w(args.window), ow(args.ow()), ih(args.ih), iw(args.iw) {}

  // Returns true (and the source position) when patch p's (xk, yk)
  // element lies inside the input image, false when it falls into the
  // padding border.
  bool source(std::int64_t p, std::int64_t xk, std::int64_t yk,
              std::int64_t* y, std::int64_t* x) const {
    *y = (p / ow) * w.sh + xk - w.pt;
    *x = (p % ow) * w.sw + yk - w.pl;
    return *y >= 0 && *y < ih && *x >= 0 && *x < iw;
  }

  const Window2d& w;
  std::int64_t ow;
  std::int64_t ih;
  std::int64_t iw;
};

}  // namespace

void Scu::maybe_fault_result(Span<Float16> dst, std::int64_t elems) {
  if (!fault_ || elems <= 0) return;
  // SCU datapath corruption is its own site (scu_err); the bitflip sites
  // model upsets on MTE-landed data and do not double-dip here.
  auto* bytes = reinterpret_cast<std::byte*>(dst.data());
  fault_->on_scu_result(bytes, elems * 2);
}

void Scu::charge(TraceKind kind, const char* label, std::int64_t runs,
                 std::int64_t run_fractals, std::int64_t bytes) {
  const std::int64_t instrs = runs * ceil_div(run_fractals, arch_.max_repeat);
  const std::int64_t fractals = runs * run_fractals;
  const std::int64_t saturated = runs * (run_fractals / arch_.max_repeat);
  CycleStats& s = ledger_.stats;
  const bool load = kind == TraceKind::kIm2col;
  (load ? s.im2col_instrs : s.col2im_instrs) += instrs;
  (load ? s.im2col_fractals : s.col2im_fractals) += fractals;
  (load ? s.im2col_saturated_instrs : s.col2im_saturated_instrs) += saturated;
  (load ? s.traffic.im2col_bytes : s.traffic.col2im_bytes) += bytes;
  const std::int64_t cycles = load ? cost_.im2col(instrs, fractals)
                                   : cost_.col2im(instrs, fractals);
  ledger_.book(s.scu_cycles, Pipe::kScu, cycles, kind, fractals,
               instrs * arch_.max_repeat, [&] {
                 return std::string(label) + "instrs=" +
                        std::to_string(instrs) +
                        " fractals=" + std::to_string(fractals);
               });
}

void Scu::im2col_load(Span<Float16> dst, Span<Float16> src,
                      const Im2colArgs& args) {
  args.validate();
  DV_CHECK(src.kind() == BufferKind::kL1)
      << "Im2Col loads from L1, got " << to_string(src.kind());
  DV_CHECK(dst.kind() == BufferKind::kUnified ||
           dst.kind() == BufferKind::kL0A || dst.kind() == BufferKind::kL0B)
      << "Im2Col targets L0A/L0B/UB, got " << to_string(dst.kind());
  DV_CHECK_LE(args.input_elems(), src.size());
  DV_CHECK_LE(args.output_elems(), dst.size());

  const Window2d& w = args.window;
  const PatchCoords coords(args);
  const std::int64_t patches = args.patches();
  const std::int64_t padded = args.padded_patches();
  const std::int64_t fractals_per_plane = args.patch_fractals();

  // Functional semantics: for each kernel-relative position (xk, yk) the
  // instruction walks 16 consecutive patches per fractal, loading the
  // (xk, yk) element of each patch together with its whole C0 row. The
  // size checks above bound every access, so the loop runs on raw
  // pointers and moves each C0 row as one 32-byte block.
  Float16* const d = dst.data();
  const Float16* const s = src.data();
  constexpr std::size_t kRowBytes = kC0 * sizeof(Float16);
  const std::int64_t ow = coords.ow;
  const std::int64_t oh = patches / ow;
  for (std::int64_t xk = 0; xk < w.kh; ++xk) {
    for (std::int64_t yk = 0; yk < w.kw; ++yk) {
      const std::int64_t plane = (xk * w.kw + yk) * padded * kC0;
      Float16* drow = d + plane;
      // Patches walk row-major: patch oy*Ow + ox reads input position
      // (oy*Sh + xk - pt, ox*Sw + yk - pl) -- iterate the output grid
      // directly so the source coordinates advance incrementally.
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t y = oy * w.sh + xk - w.pt;
        if (y < 0 || y >= args.ih) {
          // Whole row falls in the zero-padding border.
          std::memset(static_cast<void*>(drow), 0,
                      static_cast<std::size_t>(ow) * kRowBytes);
          drow += ow * kC0;
          continue;
        }
        const Float16* const srow = s + y * args.iw * kC0;
        std::int64_t x = yk - w.pl;
        for (std::int64_t ox = 0; ox < ow; ++ox, x += w.sw, drow += kC0) {
          if (x < 0 || x >= args.iw) {
            std::memset(static_cast<void*>(drow), 0, kRowBytes);
          } else {
            std::memcpy(drow, srow + x * kC0, kRowBytes);
          }
        }
      }
      // Tail rows of the last fractal.
      if (padded > patches) {
        std::memset(static_cast<void*>(d + plane + patches * kC0), 0,
                    static_cast<std::size_t>(padded - patches) * kRowBytes);
      }
    }
  }

  // Timing: in repeat mode 1 one instruction covers up to max_repeat
  // fractals of one (c1, xk, yk) plane; changing (xk, yk) needs a new
  // instruction (Section III-C). Payload: the fractal bytes written to the
  // destination buffer (the L1 -> UB route the paper's Im2Col pooling
  // formulation rides).
  charge(TraceKind::kIm2col, "mode1 ", w.kh * w.kw, fractals_per_plane,
         args.output_elems() * 2);
  maybe_fault_result(dst, args.output_elems());
}

void Scu::im2col_load_mode0(Span<Float16> dst, Span<Float16> src,
                            const Im2colArgs& args) {
  args.validate();
  DV_CHECK(src.kind() == BufferKind::kL1)
      << "Im2Col loads from L1, got " << to_string(src.kind());
  DV_CHECK(dst.kind() == BufferKind::kUnified ||
           dst.kind() == BufferKind::kL0A || dst.kind() == BufferKind::kL0B)
      << "Im2Col targets L0A/L0B/UB, got " << to_string(dst.kind());
  DV_CHECK_LE(args.input_elems(), src.size());
  DV_CHECK_LE(args.output_elems(), dst.size());

  const Window2d& w = args.window;
  const PatchCoords coords(args);
  const std::int64_t patches = args.patches();
  const std::int64_t groups = args.patch_fractals();
  const std::int64_t kk = w.kh * w.kw;

  // Mode 0 (Figure 5): for each group of 16 consecutive patches, emit one
  // fractal per kernel-relative position, concatenated side by side.
  // Bounds are established by the size checks above; the loop moves each
  // C0 row as one 32-byte block on raw pointers.
  Float16* const d = dst.data();
  const Float16* const s = src.data();
  constexpr std::size_t kRowBytes = kC0 * sizeof(Float16);
  for (std::int64_t g = 0; g < groups; ++g) {
    for (std::int64_t xk = 0; xk < w.kh; ++xk) {
      for (std::int64_t yk = 0; yk < w.kw; ++yk) {
        const std::int64_t fbase =
            (g * kk + xk * w.kw + yk) * kFractalElems;
        for (std::int64_t r = 0; r < kFractalRows; ++r) {
          const std::int64_t p = g * kFractalRows + r;
          Float16* const drow = d + fbase + r * kC0;
          std::int64_t y, x;
          if (p >= patches || !coords.source(p, xk, yk, &y, &x)) {
            std::memset(static_cast<void*>(drow), 0, kRowBytes);
            continue;
          }
          std::memcpy(drow, s + (y * args.iw + x) * kC0, kRowBytes);
        }
      }
    }
  }

  // Timing: in mode 0 one instruction iterates (xk, yk) for a fixed
  // 16-patch group; changing the group needs a new instruction
  // (Section III-C: "multiple Im2Col are needed to also change (x, y)").
  charge(TraceKind::kIm2col, "mode0 ", groups, kk, args.output_elems() * 2);
  maybe_fault_result(dst, args.output_elems());
}

void Scu::col2im(Span<Float16> out, Span<Float16> src, const Im2colArgs& args) {
  args.validate();
  DV_CHECK(out.kind() == BufferKind::kUnified &&
           src.kind() == BufferKind::kUnified)
      << "Col2Im operates within the Unified Buffer";
  DV_CHECK_LE(args.input_elems(), out.size());
  DV_CHECK_LE(args.output_elems(), src.size());

  const Window2d& w = args.window;
  const PatchCoords coords(args);
  const std::int64_t patches = args.patches();
  const std::int64_t padded = args.padded_patches();
  const std::int64_t fractals_per_plane = args.patch_fractals();

  // Functional semantics (Figure 6): for each fractal, load the 16 target
  // positions from `out`, add the input fractal, store back. Overlapping
  // patches accumulate because execution is sequential; every add rounds
  // to fp16 like the hardware's 16-bit vector adder. The patch loop keeps
  // that exact accumulation order (it is load-bearing for bit-identity);
  // the row kernel adds each in-image C0 row, whose 16 lanes are
  // independent, in the same (xk, yk, oy, ox) order. The per-access
  // bounds checks are hoisted into the size checks above.
  Float16* const o = out.data();
  const Float16* const s = src.data();
  const std::int64_t ow = coords.ow;
  const std::int64_t oh = patches / ow;
  for (std::int64_t xk = 0; xk < w.kh; ++xk) {
    for (std::int64_t yk = 0; yk < w.kw; ++yk) {
      // Patches [lo, hi) of every output row land inside the image
      // (x = ox * sw + x0 in [0, iw)); each is one C0 row, in ox order.
      const std::int64_t x0 = yk - w.pl;
      const std::int64_t lo = x0 >= 0 ? 0 : ceil_div(-x0, w.sw);
      const std::int64_t hi =
          x0 < args.iw ? std::min(ow, ceil_div(args.iw - x0, w.sw)) : 0;
      const Fp16Repeat rows{.rows = hi - lo,
                            .d_stride = w.sw * kC0,
                            .a_stride = w.sw * kC0,
                            .b_stride = kC0};
      const Float16* srow = s + (xk * w.kw + yk) * padded * kC0;
      for (std::int64_t oy = 0; oy < oh; ++oy, srow += ow * kC0) {
        const std::int64_t y = oy * w.sh + xk - w.pt;
        // Gradient into the padding border is dropped.
        if (y < 0 || y >= args.ih || lo >= hi) continue;
        Float16* const orow = o + (y * args.iw + x0 + lo * w.sw) * kC0;
        fp16_binary_row(Fp16RowOp::kAdd, orow, orow, srow + lo * kC0, kC0,
                        rows);
      }
    }
  }

  // Timing: Col2Im only has repeat mode 1 (Section III-D), so as with the
  // transposed Im2Col one instruction covers up to max_repeat fractals of
  // one (xk, yk) plane. Payload: the gradient fractal bytes consumed from
  // the UB column buffer (the UB -> UB scatter-accumulate route of
  // Figure 6).
  charge(TraceKind::kCol2im, "", w.kh * w.kw, fractals_per_plane,
         args.output_elems() * 2);
  maybe_fault_result(out, args.input_elems());
}

}  // namespace davinci
