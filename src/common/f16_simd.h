// Row kernels for fp16 element-wise arithmetic: the host datapath of the
// simulated Vector Unit and of the Col2Im accumulation.
//
// A row is `n` contiguous fp16 lanes; an Fp16Repeat runs several rows in
// order, like one Vector Unit instruction's repeat iterations. Every
// kernel is bit-identical to the serial loop
//
//   for each row r, in order: for (i = 0; i < n; ++i)
//     d_r[i] = op(a_r[i], b_r[i])      (or op(a_r[i], s))
//
// including that loop's read-after-write behaviour when `d` overlaps a
// source. Arithmetic (add/sub/mul) converts to binary32, operates and
// rounds back with round-to-nearest-even; NaN results are canonicalized as
// Float16::op_result does. Max/min follow fmax16/fmin16 (number wins over
// NaN, first operand wins ties, -0 == +0); kCmpEq writes 1.0 where
// Float16's operator== holds and +0 elsewhere.
//
// Two implementations exist: a portable one (binary16 -> binary32 table
// plus software rounding) and an AVX2/F16C one (`vcvtph2ps` -> fp32 op ->
// `vcvtps2ph`, 16 lanes per step). The entry points pick the AVX2/F16C
// kernels once per process when the CPU has both extensions. The portable
// kernels are the only path elsewhere, and the reference the tests hold
// the AVX2/F16C kernels to.
#pragma once

#include <cstdint>

#include "common/float16.h"

namespace davinci {

enum class Fp16RowOp : std::uint8_t { kAdd, kSub, kMul, kMax, kMin, kCmpEq };

// `rows` rows; row r starts `r * stride` lanes after row 0 of its operand.
struct Fp16Repeat {
  std::int64_t rows = 1;
  std::int64_t d_stride = 0;
  std::int64_t a_stride = 0;
  std::int64_t b_stride = 0;  // unused by the scalar-operand kernels
};

// d_r[i] = op(a_r[i], b_r[i]) for i in [0, n), each row of `rep`.
void fp16_binary_row(Fp16RowOp op, Float16* d, const Float16* a,
                     const Float16* b, std::int64_t n,
                     const Fp16Repeat& rep = {});
// d_r[i] = op(a_r[i], s) for i in [0, n), each row of `rep`.
void fp16_scalar_row(Fp16RowOp op, Float16* d, const Float16* a, Float16 s,
                     std::int64_t n, const Fp16Repeat& rep = {});

// One implementation of the two kernels. A row whose `d` starts inside a
// source row at a higher address (src < d < src + n) reads lanes the
// serial loop has already overwritten; the AVX2/F16C kernels run such a
// row on the portable lane loop. Any other overlap (d == src, or d below
// src: the read-ahead reduction idiom) stays 16 lanes wide.
struct Fp16RowKernels {
  void (*binary)(Fp16RowOp op, Float16* d, const Float16* a, const Float16* b,
                 std::int64_t n, const Fp16Repeat& rep);
  void (*scalar)(Fp16RowOp op, Float16* d, const Float16* a, Float16 s,
                 std::int64_t n, const Fp16Repeat& rep);
};

const Fp16RowKernels& fp16_portable_row_kernels();
// The AVX2/F16C kernels, or nullptr when this CPU lacks either extension.
const Fp16RowKernels* fp16_simd_row_kernels();

}  // namespace davinci
