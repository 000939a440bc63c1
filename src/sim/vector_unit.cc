#include "sim/vector_unit.h"

#include <bit>

#include "common/f16_simd.h"

namespace davinci {

VecMask VecMask::first_n(int n) {
  DV_CHECK(n >= 0 && n <= 128) << "mask lanes " << n;
  VecMask m;
  if (n >= 64) {
    m.lo = ~0ull;
    m.hi = (n == 128) ? ~0ull : ((1ull << (n - 64)) - 1);
  } else {
    m.lo = (n == 0) ? 0 : ((n == 64) ? ~0ull : ((1ull << n) - 1));
    m.hi = 0;
  }
  return m;
}

int VecMask::count() const {
  return std::popcount(lo) + std::popcount(hi);
}

const char* to_string(VecOp op) {
  switch (op) {
    case VecOp::kMax: return "vmax";
    case VecOp::kMin: return "vmin";
    case VecOp::kAdd: return "vadd";
    case VecOp::kSub: return "vsub";
    case VecOp::kMul: return "vmul";
    case VecOp::kDiv: return "vdiv";
  }
  return "?";
}

void VectorUnit::validate(const Span<Float16>& s, const VecConfig& cfg,
                          std::int64_t rep_stride) const {
  DV_CHECK(s.kind() == BufferKind::kUnified)
      << "vector operands must live in the Unified Buffer, got "
      << davinci::to_string(s.kind());
  DV_CHECK(cfg.repeat >= 1 && cfg.repeat <= arch_.max_repeat)
      << "repeat " << cfg.repeat << " out of range (max " << arch_.max_repeat
      << "); the surrounding kernel loop must reissue";
  DV_CHECK_GE(rep_stride, 0);
}

void VectorUnit::charge(const char* op, const VecConfig& cfg, int lanes) {
  CycleStats& s = ledger_.stats;
  s.count_vector_instr(lanes, arch_.vector_lanes, cfg.repeat);
  ledger_.book(s.vector_cycles, Pipe::kVector, cost_.vector_instr(cfg.repeat),
               TraceKind::kVector,
               static_cast<std::int64_t>(lanes) * cfg.repeat,
               static_cast<std::int64_t>(arch_.vector_lanes) * cfg.repeat,
               [&] {
                 return std::string(op) +
                        " repeat=" + std::to_string(cfg.repeat) +
                        " lanes=" + std::to_string(lanes);
               });
  // The cycles above were really spent before the parity check tripped, so
  // the fault hook runs after the ledger update. May throw TransientFault.
  if (fault_) fault_->on_vector_instr(op);
}

namespace {

inline Float16 apply(VecOp op, Float16 a, Float16 b) {
  switch (op) {
    case VecOp::kMax: return fmax16(a, b);
    case VecOp::kMin: return fmin16(a, b);
    case VecOp::kAdd: return a + b;
    case VecOp::kSub: return a - b;
    case VecOp::kMul: return a * b;
    case VecOp::kDiv: return a / b;
  }
  return Float16();
}

// Returns n when the mask is exactly first_n(n), else -1. Every pooling
// kernel issues prefix masks (full 128 lanes or a C0/tail prefix), so
// this is the common case; it lets the execution loops hoist the
// per-element bounds check out of the lane loop and run on raw pointers.
// A prefix's lane count is its run of trailing ones, which compiles to a
// bit scan: std::popcount would call libgcc on a build without POPCNT.
inline int prefix_lanes(const VecMask& m) {
  if (m.hi == 0) {
    if ((m.lo & (m.lo + 1)) != 0) return -1;  // lo not of the form 2^k - 1
    return std::countr_one(m.lo);
  }
  if (m.lo != ~0ull) return -1;
  if ((m.hi & (m.hi + 1)) != 0) return -1;
  return 64 + std::countr_one(m.hi);
}

// A mask's active lane count, given prefix_lanes' verdict on it.
inline int lanes_of(const VecMask& m, int pfx) {
  return pfx >= 0 ? pfx : m.count();
}

// The row kernel for a prefix-masked op; vdiv has none and keeps its
// scalar loop.
Fp16RowOp row_op(VecOp op) {
  switch (op) {
    case VecOp::kMax: return Fp16RowOp::kMax;
    case VecOp::kMin: return Fp16RowOp::kMin;
    case VecOp::kAdd: return Fp16RowOp::kAdd;
    case VecOp::kSub: return Fp16RowOp::kSub;
    case VecOp::kMul: return Fp16RowOp::kMul;
    case VecOp::kDiv: break;
  }
  DV_CHECK(false) << "no row kernel for " << to_string(op);
  return Fp16RowOp::kAdd;
}

// A prefix-masked instruction's repeat iterations as row-kernel rows.
Fp16Repeat rows_of(const VecConfig& cfg) {
  return {cfg.repeat, cfg.dst_rep_stride, cfg.src0_rep_stride,
          cfg.src1_rep_stride};
}

// One hoisted bounds check replacing the per-access Span::at checks of a
// prefix-masked op: the highest element touched is
// (repeat-1)*stride + lanes - 1.
inline void check_extent(const Span<Float16>& s, const VecConfig& cfg,
                         std::int64_t stride, int lanes) {
  const std::int64_t need =
      static_cast<std::int64_t>(cfg.repeat - 1) * stride + lanes;
  DV_CHECK_LE(need, s.size())
      << to_string(s.kind()) << " vector operand extent " << need << " of "
      << s.size();
}

}  // namespace

void VectorUnit::binary(VecOp op, Span<Float16> dst, Span<Float16> src0,
                        Span<Float16> src1, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src0, cfg, cfg.src0_rep_stride);
  validate(src1, cfg, cfg.src1_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src0, cfg, cfg.src0_rep_stride, pfx);
      check_extent(src1, cfg, cfg.src1_rep_stride, pfx);
      if (op != VecOp::kDiv) {
        fp16_binary_row(row_op(op), dst.data(), src0.data(), src1.data(), pfx,
                        rows_of(cfg));
      } else {
        for (int rep = 0; rep < cfg.repeat; ++rep) {
          Float16* const d = dst.data() + rep * cfg.dst_rep_stride;
          const Float16* const a = src0.data() + rep * cfg.src0_rep_stride;
          const Float16* const b = src1.data() + rep * cfg.src1_rep_stride;
          for (int lane = 0; lane < pfx; ++lane) d[lane] = a[lane] / b[lane];
        }
      }
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      const std::int64_t b = rep * cfg.src1_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = apply(op, src0.at(a + lane), src1.at(b + lane));
      }
    }
  }
  charge(to_string(op), cfg, lanes_of(cfg.mask, pfx));
}

void VectorUnit::dup(Span<Float16> dst, Float16 value, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      fp16_dup_row(dst.data(), value, pfx, rows_of(cfg));
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = value;
      }
    }
  }
  charge("vector_dup", cfg, lanes_of(cfg.mask, pfx));
}

void VectorUnit::adds(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src, cfg, cfg.src0_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src, cfg, cfg.src0_rep_stride, pfx);
      fp16_scalar_row(Fp16RowOp::kAdd, dst.data(), src.data(), s, pfx,
                      rows_of(cfg));
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = src.at(a + lane) + s;
      }
    }
  }
  charge("vadds", cfg, lanes_of(cfg.mask, pfx));
}

void VectorUnit::muls(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src, cfg, cfg.src0_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src, cfg, cfg.src0_rep_stride, pfx);
      fp16_scalar_row(Fp16RowOp::kMul, dst.data(), src.data(), s, pfx,
                      rows_of(cfg));
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = src.at(a + lane) * s;
      }
    }
  }
  charge("vmuls", cfg, lanes_of(cfg.mask, pfx));
}

void VectorUnit::cmpv_eq(Span<Float16> dst, Span<Float16> src0,
                         Span<Float16> src1, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src0, cfg, cfg.src0_rep_stride);
  validate(src1, cfg, cfg.src1_rep_stride);
  const Float16 one(1.0f);
  const Float16 zero(0.0f);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src0, cfg, cfg.src0_rep_stride, pfx);
      check_extent(src1, cfg, cfg.src1_rep_stride, pfx);
      fp16_binary_row(Fp16RowOp::kCmpEq, dst.data(), src0.data(), src1.data(),
                      pfx, rows_of(cfg));
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      const std::int64_t b = rep * cfg.src1_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) =
            (src0.at(a + lane) == src1.at(b + lane)) ? one : zero;
      }
    }
  }
  charge("vcmpv_eq", cfg, lanes_of(cfg.mask, pfx));
}

void VectorUnit::sel(Span<Float16> dst, Span<Float16> cond, Span<Float16> a,
                     Span<Float16> b, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(cond, cfg, cfg.src0_rep_stride);
  validate(a, cfg, cfg.src0_rep_stride);
  validate(b, cfg, cfg.src1_rep_stride);
  for (int rep = 0; rep < cfg.repeat; ++rep) {
    const std::int64_t d = rep * cfg.dst_rep_stride;
    const std::int64_t ca = rep * cfg.src0_rep_stride;
    const std::int64_t cb = rep * cfg.src1_rep_stride;
    for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
      if (!cfg.mask.lane(lane)) continue;
      const bool c = !cond.at(ca + lane).is_zero();
      dst.at(d + lane) = c ? a.at(ca + lane) : b.at(cb + lane);
    }
  }
  charge("vsel", cfg, cfg.mask.count());
}

}  // namespace davinci
