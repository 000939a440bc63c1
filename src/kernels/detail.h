// Shared helpers for kernel programs (internal to src/kernels).
#pragma once

#include <chrono>
#include <cstdint>

#include "common/check.h"
#include "sim/ai_core.h"
#include "sim/device.h"
#include "tensor/fractal.h"
#include "tensor/tensor.h"

namespace davinci::kernels::detail {

// Host wall clock for the driver-phase attribution buckets.
inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Folds the driver's validate/plan/alloc phase times into the run result.
// Device::run filled host_execute_ns (== its host_ns); afterwards host_ns
// stays the exact sum of the four buckets -- the invariant metrics schema
// v4 serializes and tests assert.
inline void add_host_overhead(Device::RunResult& run,
                              std::int64_t validate_ns, std::int64_t plan_ns,
                              std::int64_t alloc_ns) {
  run.host_validate_ns += validate_ns;
  run.host_plan_ns += plan_ns;
  run.host_alloc_ns += alloc_ns;
  run.host_ns += validate_ns + plan_ns + alloc_ns;
}

// Output-tensor construction: the kernels' stores cover every element of
// the outputs they produce (PoolLaunch zeroes the few rows they do not),
// so storage can start uninitialized (arena reuse without the zero-fill)
// -- except under a resilience policy, where a truncated (mte_drop) store
// can leave part of a block's output region unwritten; the zero-filled
// construction keeps those bytes deterministic for the verification
// layer, bit-identical to the pre-arena behavior.
inline TensorF16 make_output(const Device& dev, Shape shape) {
  return dev.resilience().has_value() ? TensorF16(shape)
                                      : TensorF16(shape, kUninitialized);
}

// Runs `body` as one pipelined stage on `pipe` when `on`, plain (serial
// timeline, no stage) when not. Returns the stage's completion event --
// 0 in serial mode, so chaining `std::max` over events stays correct and
// a dependency on "nothing" costs nothing. This is how the pooling
// kernels keep ONE code path for both the single-buffer serial schedule
// and the ping-pong overlapped one: the functional calls inside `body`
// are identical either way, only their placement on the pipe timeline
// changes (see sim/pipe_schedule.h).
template <typename Body>
inline PipeScheduler::Event staged(AiCore& core, bool on, Pipe pipe,
                                   PipeScheduler::Event after, Body&& body) {
  if (!on) {
    body();
    return 0;
  }
  core.begin_stage(pipe, after);
  body();
  return core.end_stage();
}

// Global-memory view of a tensor's storage. Input tensors are logically
// read-only; kernels only pass their spans as MTE copy sources.
inline Span<Float16> gm_view(const TensorF16& t) {
  return gm_span(const_cast<Float16*>(t.data()), t.size());
}
inline Span<Float16> gm_view(TensorF16& t) {
  return gm_span(t.data(), t.size());
}

// Issues a 16-lane (C0-masked) binary vector instruction over `count`
// strided element groups, splitting into <= max_repeat chunks with a
// scalar-loop charge per reissue. This is the lowered form of the
// "vectorize on C0 only" code paths the paper's baselines use.
inline void strided16_binary(AiCore& core, VecOp op, Span<Float16> dst,
                             std::int64_t dst_stride, Span<Float16> src0,
                             std::int64_t src0_stride, Span<Float16> src1,
                             std::int64_t src1_stride, std::int64_t count) {
  DV_CHECK_GE(count, 1);
  const int max_rep = core.arch().max_repeat;
  std::int64_t done = 0;
  std::int64_t instrs = 0;
  while (done < count) {
    const int rep = static_cast<int>(
        count - done > max_rep ? max_rep : count - done);
    VecConfig cfg;
    cfg.mask = VecMask::first_n(static_cast<int>(kC0));
    cfg.repeat = rep;
    cfg.dst_rep_stride = dst_stride;
    cfg.src0_rep_stride = src0_stride;
    cfg.src1_rep_stride = src1_stride;
    core.vec().binary(op, dst.drop_front(done * dst_stride),
                      src0.drop_front(done * src0_stride),
                      src1.drop_front(done * src1_stride), cfg);
    done += rep;
    ++instrs;
  }
  if (instrs > 1) core.scalar_loop(instrs - 1);
}

// Same splitting for vadds (the vector-copy idiom of the expansion
// implementation): dst[g] = src[g] + 0 for `count` strided groups.
inline void strided16_copy(AiCore& core, Span<Float16> dst,
                           std::int64_t dst_stride, Span<Float16> src,
                           std::int64_t src_stride, std::int64_t count) {
  DV_CHECK_GE(count, 1);
  const int max_rep = core.arch().max_repeat;
  std::int64_t done = 0;
  std::int64_t instrs = 0;
  while (done < count) {
    const int rep = static_cast<int>(
        count - done > max_rep ? max_rep : count - done);
    VecConfig cfg;
    cfg.mask = VecMask::first_n(static_cast<int>(kC0));
    cfg.repeat = rep;
    cfg.dst_rep_stride = dst_stride;
    cfg.src0_rep_stride = src_stride;
    core.vec().adds(dst.drop_front(done * dst_stride),
                    src.drop_front(done * src_stride), Float16(), cfg);
    done += rep;
    ++instrs;
  }
  if (instrs > 1) core.scalar_loop(instrs - 1);
}

// Row-strided full-mask binary op: applies `op` to `rows` rows of
// `row_elems` contiguous elements, where consecutive rows are
// `*_row_stride` elements apart. Each 128-lane column chunk of the rows is
// one instruction with the repeat parameter walking the rows -- the
// saturated-mask lowering available when Sw == 1 ("combining the mask
// register set with all 128 elements and its repeat parameter to compute
// the max between the (Ow, C0) dimensions", Section VI-B). Issues
// ceil(row_elems / 128) instructions per call (plus reissues when rows
// exceed max_repeat).
inline void row_strided_binary(AiCore& core, VecOp op, Span<Float16> dst,
                               std::int64_t dst_row_stride,
                               Span<Float16> src0,
                               std::int64_t src0_row_stride,
                               Span<Float16> src1,
                               std::int64_t src1_row_stride,
                               std::int64_t rows, std::int64_t row_elems) {
  DV_CHECK_GE(rows, 1);
  const int lanes = core.arch().vector_lanes;
  const int max_rep = core.arch().max_repeat;
  std::int64_t instrs = 0;
  for (std::int64_t off = 0; off < row_elems; off += lanes) {
    const int active = static_cast<int>(
        row_elems - off < lanes ? row_elems - off : lanes);
    std::int64_t done = 0;
    while (done < rows) {
      const int rep =
          static_cast<int>(rows - done > max_rep ? max_rep : rows - done);
      VecConfig cfg;
      cfg.mask = VecMask::first_n(active);
      cfg.repeat = rep;
      cfg.dst_rep_stride = dst_row_stride;
      cfg.src0_rep_stride = src0_row_stride;
      cfg.src1_rep_stride = src1_row_stride;
      core.vec().binary(op, dst.drop_front(off + done * dst_row_stride),
                        src0.drop_front(off + done * src0_row_stride),
                        src1.drop_front(off + done * src1_row_stride), cfg);
      done += rep;
      ++instrs;
    }
  }
  if (instrs > 1) core.scalar_loop(instrs - 1);
}

// Same row-strided lowering for the vadds copy idiom.
inline void row_strided_copy(AiCore& core, Span<Float16> dst,
                             std::int64_t dst_row_stride, Span<Float16> src,
                             std::int64_t src_row_stride, std::int64_t rows,
                             std::int64_t row_elems) {
  DV_CHECK_GE(rows, 1);
  const int lanes = core.arch().vector_lanes;
  const int max_rep = core.arch().max_repeat;
  std::int64_t instrs = 0;
  for (std::int64_t off = 0; off < row_elems; off += lanes) {
    const int active = static_cast<int>(
        row_elems - off < lanes ? row_elems - off : lanes);
    std::int64_t done = 0;
    while (done < rows) {
      const int rep =
          static_cast<int>(rows - done > max_rep ? max_rep : rows - done);
      VecConfig cfg;
      cfg.mask = VecMask::first_n(active);
      cfg.repeat = rep;
      cfg.dst_rep_stride = dst_row_stride;
      cfg.src0_rep_stride = src_row_stride;
      core.vec().adds(dst.drop_front(off + done * dst_row_stride),
                      src.drop_front(off + done * src_row_stride), Float16(),
                      cfg);
      done += rep;
      ++instrs;
    }
  }
  if (instrs > 1) core.scalar_loop(instrs - 1);
}

// Full-mask reduction of `planes` consecutive (plane_elems)-sized planes
// of `cols` into `acc` -- the proposed Listing-2 reduction: one
// instruction sequence per (kh, kw) plane with a saturated mask.
inline void reduce_planes(AiCore& core, VecOp op, Span<Float16> acc,
                          Span<Float16> cols, std::int64_t planes,
                          std::int64_t plane_elems) {
  for (std::int64_t k = 0; k < planes; ++k) {
    core.vbin_flat(op, acc, acc, cols.sub(k * plane_elems, plane_elems),
                   plane_elems);
    core.scalar_loop(1);
  }
}

}  // namespace davinci::kernels::detail
