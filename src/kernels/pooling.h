// Pooling kernel programs for the simulated DaVinci AI Core -- the
// implementations the paper evaluates (Section V / Figures 7-8), written
// the way their lowered CCE-C code is described:
//
//  forward (MaxPool / AvgPool):
//    * kDirect     -- standard TVM lowering (Listing 1): the reduction
//                     instruction is issued Oh*Ow*Kh times with only the
//                     C0 = 16 lanes of the 128-lane mask active, repeating
//                     over Kw. At stride width 1 the lowering recovers the
//                     full mask over (Ow, C0) rows (Figure 8a's fast case).
//    * kIm2col     -- proposed (Listing 2): the tile is loaded L1 -> UB
//                     with the Im2Col instruction in transposed repeat
//                     mode 1; a full-mask reduction instruction is issued
//                     only Kh*Kw times.
//    * kExpansion  -- the im2col shape is produced *inside* the Unified
//                     Buffer by regular vector copies, then reduced like
//                     kIm2col (Figure 8's "Maxpool with expansion").
//    * kXYSplit    -- reduce along the width, then along the height
//                     (Lai et al., Figure 8b).
//
//  backward (merge step = Col2im):
//    * kVadd       -- baseline: per-patch 16-lane vadd scatter, no repeat
//                     ("the vadd instructions only set 16 elements of the
//                     vector mask ... and repetition is not used").
//    * kCol2im     -- proposed: the Col2Im instruction performs the merge,
//                     one whole fractal per step.
//
// All kernels take NC1HWC0 fp16 tensors in global memory, tile on C1 (and
// on output height when a slice exceeds the Unified Buffer -- the plan
// comes from akg::plan_fwd / akg::plan_bwd) and distribute blocks over the
// device's AI Cores. Direct, expansion and X-Y-split kernels require zero
// padding (the paper evaluates them only without padding); the
// im2col-based kernels support padding, applied during the Im2Col load.
//
// --- Entry point ---
//
// Every operator runs through ONE entry point:
//
//   PoolResult r = run_pool(dev, PoolOp{...}, PoolInputs{...});
//
// A PoolOp is a plain descriptor (operator kind, window geometry, lowering
// choices, optional precomputed tiling plan), which makes it hashable /
// comparable -- the serving layer (src/serve/) batches requests by PoolOp
// and caches tiling plans per descriptor. See docs/API.md.
//
// Kernels address global memory image by image through an ImageTable,
// so a launch may run on several requests' tensors at once
// (PoolInputs::members) and be split across devices (PoolLaunch ranges)
// without a host-side copy.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "akg/tiling.h"
#include "sim/device.h"
#include "tensor/fractal.h"
#include "tensor/pool_geometry.h"
#include "tensor/tensor.h"

namespace davinci::kernels {

// Merge-step implementation for the backward operators.
enum class MergeImpl : std::uint8_t { kVadd, kCol2im };

const char* to_string(MergeImpl impl);

// The pooling operators, forward and backward, in one enum -- the "op"
// axis of the unified descriptor.
enum class PoolOpKind : std::uint8_t {
  kMaxFwd,      // MaxPool forward (Figure 7a / 8)
  kAvgFwd,      // AvgPool forward (Section V-C)
  kMinFwd,      // MinPool forward (extension; dual of MaxPool)
  kGlobalAvg,   // global average pooling (extension)
  kMaxMaskFwd,  // MaxPool forward + Argmax mask (Figure 7b)
  kMaxBwd,      // MaxPool backward: mask * grad, Col2im merge (Figure 7c)
  kAvgBwd,      // AvgPool backward: scaled grad, Col2im merge
};

const char* to_string(PoolOpKind kind);

// True for the kinds that consume an input activation tensor and produce
// an output activation (everything except the backward passes).
bool is_forward(PoolOpKind kind);
// True for the kinds that produce a gradient w.r.t. the input.
bool is_backward(PoolOpKind kind);

// The unified operator descriptor. A PoolOp fully determines *how* a
// pooling computation is lowered; the tensors it runs on arrive separately
// in PoolInputs. Two requests with equal PoolOp (ignoring `plan`) and
// equal input geometry can share one device launch and one tiling plan.
struct PoolOp {
  PoolOpKind kind = PoolOpKind::kMaxFwd;
  Window2d window{};  // ignored by kGlobalAvg
  // Forward lowering (forward kinds; kAvgFwd and kMaxMaskFwd support
  // kDirect/kIm2col).
  akg::PoolImpl fwd = akg::PoolImpl::kIm2col;
  // Backward merge step (backward kinds).
  MergeImpl merge = MergeImpl::kCol2im;
  // Precomputed tiling plan (forward and backward kinds with a window).
  // When set, the kernel uses it instead of re-running akg::plan_fwd /
  // plan_bwd -- this is how the serving layer's plan cache takes effect.
  // The plan must have been computed for the same (impl, window, input
  // geometry, mask, double-buffer) tuple; see serve::PlanCache.
  std::optional<akg::PoolPlan> plan = std::nullopt;

  std::string to_string() const;
};

// The tensors one pooling invocation runs on. Pointers are non-owning and
// must outlive the run_pool call. Forward kinds read `in`; backward kinds
// read `grad` (and `mask` for kMaxBwd) plus the input spatial size the
// gradient maps back to.
//
// A coalesced launch leaves the tensor pointers null and lists its
// requests in `members` instead: their images run as one launch, in
// member order, each read where it lives. Members share one geometry
// (every dimension but N, and ih/iw); their outputs come back one result
// per member in PoolResult::parts.
struct PoolInputs {
  const TensorF16* in = nullptr;    // (N, C1, Ih, Iw, C0), forward kinds
  const TensorF16* mask = nullptr;  // (N, C1, Kh, Kw, PP, C0), kMaxBwd
  const TensorF16* grad = nullptr;  // (N, C1, Oh, Ow, C0), backward kinds
  std::int64_t ih = 0, iw = 0;      // input spatial size, backward kinds
  std::span<const PoolInputs> members = {};
};

// The unified result: every operator fills `run` and exactly the tensors
// it produces -- `out` for forward kinds, additionally `mask` for
// kMaxMaskFwd, and `grad_in` for backward kinds. Unproduced tensors stay
// default-constructed (rank 0).
struct PoolResult {
  TensorF16 out;      // (N, C1, Oh, Ow, C0); empty for backward kinds
  TensorF16 mask;     // (N, C1, Kh, Kw, PP, C0); kMaxMaskFwd only
  TensorF16 grad_in;  // (N, C1, Ih, Iw, C0); backward kinds only
  Device::RunResult run;
  // A coalesced launch's outputs, one entry per member in member order,
  // each holding only that member's tensors; the three tensors above stay
  // empty and `run` describes the shared launch.
  std::vector<PoolResult> parts;

  // Rank-based: a default-constructed tensor has a rank-0 shape, whose
  // num_elements() is 1 (the empty product), so size() cannot tell
  // "absent" from "scalar".
  bool has_out() const { return out.shape().rank() > 0; }
  bool has_mask() const { return mask.shape().rank() > 0; }
  bool has_grad_in() const { return grad_in.shape().rank() > 0; }
  std::int64_t cycles() const { return run.device_cycles; }
};

// Runs one pooling operator on the device. Throws davinci::Error on
// invalid descriptor/input combinations (unsupported impl for the kind,
// padding on a non-im2col lowering, shape mismatches).
PoolResult run_pool(Device& dev, const PoolOp& op, const PoolInputs& in);

// A block range of one launch: images [n0, n0 + n) of the launch (member
// order for a coalesced launch) x channel groups [q0, q0 + c1) of each.
struct BlockRange {
  std::int64_t n0 = 0, n = 0;
  std::int64_t q0 = 0, c1 = 0;
  std::int64_t blocks() const { return n * c1; }
};

// Where one launch's images live. Column `in` holds the global-memory
// address of every image of the input activations, one entry per image of
// the launch, whichever request owns it; each image spans `elems`
// elements of (C1, ...) data. Kernel drivers read and write through these
// addresses only, so a coalesced launch never stacks its members and a
// sharded one never slices them.
struct ImageColumn {
  std::vector<Float16*> base;  // per image; input columns are only read
  std::int64_t elems = 0;      // elements per image

  Span<Float16> image(std::int64_t i) const {
    return gm_span(base[static_cast<std::size_t>(i)], elems);
  }
  // Appends the images of `t` (N outermost, `elems` each).
  void append(const TensorF16& t);
};

struct ImageTable {
  std::int64_t c1 = 0;          // channel groups per image
  std::int64_t ih = 0, iw = 0;  // input spatial size
  // Inputs: in (forward kinds), grad (backward kinds), and mask -- the
  // Argmax mask kMaxBwd reads, or the one kMaxMaskFwd writes.
  ImageColumn in, mask, grad;
  // Outputs: out (forward kinds), grad_in (backward kinds).
  ImageColumn out, grad_in;
};

// run_pool in two halves, for a caller that spreads one launch over
// several devices (serve::Cluster). The constructor validates the inputs,
// picks the tiling plan, allocates every output once -- one set per
// member for a coalesced launch -- and builds the launch's ImageTable;
// run() executes one block range on one device, reading each image where
// it lives and writing straight into its output. Ranges must be disjoint;
// `op`, `in` (and its members and tensors) must outlive every run().
class PoolLaunch {
 public:
  // `dev` supplies the architecture, the double-buffer policy the plan is
  // made for, and the output policy (zero-filled outputs under a
  // resilience policy); every device that runs a range must share them.
  PoolLaunch(const Device& dev, const PoolOp& op, const PoolInputs& in);
  PoolLaunch(const PoolLaunch&) = delete;
  PoolLaunch& operator=(const PoolLaunch&) = delete;

  std::int64_t images() const { return images_; }
  std::int64_t c1() const { return table_.c1; }
  BlockRange all() const { return {0, images_, 0, table_.c1}; }

  // Global-memory bytes the blocks of `r` read / write.
  std::int64_t input_bytes(const BlockRange& r) const;
  std::int64_t output_bytes(const BlockRange& r) const;

  // Runs the blocks of `r` on `dev`, image-major. The result's host
  // buckets cover planning and execution of this range only.
  Device::RunResult run(Device& dev, const BlockRange& r) const;

  // Adds the constructor's validation, planning and allocation time to
  // `run`'s host buckets (once per launch, however many ranges ran).
  void add_setup_ns(Device::RunResult& run) const;

  // Moves the outputs out (the tensors, or `parts` for a coalesced
  // launch); `run` is left default. No run() may follow.
  PoolResult take_outputs();

 private:
  const PoolOp& op_;
  std::span<const PoolInputs> members_;  // the launch's inputs, in order
  akg::PoolPlan plan_;  // unused by kGlobalAvg
  ImageTable table_;
  PoolResult outputs_;
  std::int64_t images_ = 0;
  std::int64_t in_block_elems_ = 0, out_block_elems_ = 0;
  std::int64_t validate_ns_ = 0, plan_ns_ = 0, alloc_ns_ = 0;
};

}  // namespace davinci::kernels
