// Request coalescing for the serving session (docs/SERVING.md).
//
// Every pooling kernel launches one block per (N, C1) slice, so a
// single-image request on an InceptionV3 shape (C1 = 4..18) leaves most
// of the device's 32 AI Cores idle. The batcher groups same-geometry
// requests into one launch along the batch dimension N without copying
// them: the launch's image table (kernels::ImageTable) points at each
// member's own tensors, and every member's outputs are allocated on their
// own and written in place. Bit-identical to running the requests one by
// one, because each block computes only its own (N, C1) slice with
// per-block scratch.
//
// Requests coalesce iff every launch-relevant field matches: operator
// kind, window geometry, lowering/merge choice and the per-image tensor
// geometry (C1, Ih, Iw). A batch is additionally split when it would
// exceed the launch caps: `max_requests` members or `max_blocks` total
// (N, C1) blocks -- the UB-budget cap, since every resident block pins
// its plan's ub_slots tile slots (serve::Session derives max_blocks from
// cores x ub_waves).
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/pooling.h"
#include "tensor/tensor.h"

namespace davinci::serve {

// One queued request as the batcher sees it (non-owning).
struct RequestView {
  const kernels::PoolOp* op = nullptr;
  const kernels::PoolInputs* in = nullptr;
};

// Per-image geometry of a request (N images of (C1, .., C0) each).
struct RequestGeometry {
  std::int64_t n = 0, c1 = 0, ih = 0, iw = 0;
};

RequestGeometry request_geometry(const kernels::PoolOp& op,
                                 const kernels::PoolInputs& in);

// The coalescing key: two requests with equal BatchKey can share one
// device launch. PoolOp::plan is deliberately excluded -- the session
// re-derives the plan for the whole batch from its cache.
struct BatchKey {
  kernels::PoolOpKind kind = kernels::PoolOpKind::kMaxFwd;
  Window2d window;
  akg::PoolImpl fwd = akg::PoolImpl::kIm2col;
  kernels::MergeImpl merge = kernels::MergeImpl::kCol2im;
  std::int64_t c1 = 0, ih = 0, iw = 0;

  friend bool operator==(const BatchKey&, const BatchKey&) = default;
};

BatchKey batch_key(const kernels::PoolOp& op, const kernels::PoolInputs& in);

// A launchable group: member indices into the request span, in
// submission order.
struct Batch {
  BatchKey key;
  std::vector<std::size_t> members;
  std::int64_t blocks = 0;  // sum over members of n * c1
};

// Groups `reqs` into batches. Batches come out in order of first member;
// members keep their submission order. A single request larger than
// `max_blocks` still forms its own singleton batch (the launch cap
// bounds coalescing, not admission).
std::vector<Batch> form_batches(const std::vector<RequestView>& reqs,
                                std::size_t max_requests,
                                std::int64_t max_blocks);

// One batch as a coalesced launch's inputs: the members' PoolInputs, in
// member order. Nothing is copied but those descriptors.
struct CoalescedInputs {
  // Always empty. Kept only because the benchmark's traced replay
  // (perfbench/src/replay.cc) reads their sizes as copy volume.
  TensorF16 in, mask, grad;
  std::int64_t ih = 0, iw = 0;  // backward kinds' target spatial size
  std::vector<kernels::PoolInputs> members;

  // The PoolInputs of the coalesced launch, viewing `members`. Computed
  // on demand so the struct stays safely movable.
  kernels::PoolInputs inputs() const;
};

CoalescedInputs coalesce(const std::vector<RequestView>& reqs,
                         const Batch& b);

// Hands each member its outputs from the coalesced launch's result,
// consuming `batched.parts` (no tensor is copied). Every member gets a
// copy of the batched run statistics (the launch was shared).
std::vector<kernels::PoolResult> split_result(const Batch& b,
                                              const CoalescedInputs& c,
                                              kernels::PoolResult& batched);

}  // namespace davinci::serve
