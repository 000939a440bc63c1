// The unified PoolOp entry point.
//
// run_pool is the only path into the pooling kernels. It builds a
// PoolLaunch -- validated descriptor and inputs, tiling plan, outputs and
// the per-image address table -- and runs its whole block range through
// the internal implementation drivers (pool_fwd_driver.h).
#include "kernels/pooling.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "kernels/detail.h"
#include "kernels/pool_fwd_driver.h"

namespace davinci::kernels {

const char* to_string(MergeImpl impl) {
  switch (impl) {
    case MergeImpl::kVadd: return "vadd";
    case MergeImpl::kCol2im: return "col2im";
  }
  return "?";
}

const char* to_string(PoolOpKind kind) {
  switch (kind) {
    case PoolOpKind::kMaxFwd: return "maxpool";
    case PoolOpKind::kAvgFwd: return "avgpool";
    case PoolOpKind::kMinFwd: return "minpool";
    case PoolOpKind::kGlobalAvg: return "global_avgpool";
    case PoolOpKind::kMaxMaskFwd: return "maxpool_mask";
    case PoolOpKind::kMaxBwd: return "maxpool_bwd";
    case PoolOpKind::kAvgBwd: return "avgpool_bwd";
  }
  return "?";
}

bool is_forward(PoolOpKind kind) {
  return kind == PoolOpKind::kMaxFwd || kind == PoolOpKind::kAvgFwd ||
         kind == PoolOpKind::kMinFwd || kind == PoolOpKind::kGlobalAvg ||
         kind == PoolOpKind::kMaxMaskFwd;
}

bool is_backward(PoolOpKind kind) {
  return kind == PoolOpKind::kMaxBwd || kind == PoolOpKind::kAvgBwd;
}

std::string PoolOp::to_string() const {
  std::string s = kernels::to_string(kind);
  if (kind == PoolOpKind::kGlobalAvg) return s;
  s += ' ';
  s += window.to_string();
  if (is_forward(kind)) {
    s += " impl=";
    s += akg::to_string(fwd);
  } else {
    s += " merge=";
    s += kernels::to_string(merge);
  }
  return s;
}

void ImageColumn::append(const TensorF16& t) {
  Float16* const data = const_cast<Float16*>(t.data());
  for (std::int64_t i = 0; i < t.shape()[0]; ++i) {
    base.push_back(data + i * elems);
  }
}

namespace {

using akg::PoolImpl;

// Descriptor checks the warm lane skips: a precomputed plan certifies
// that the window and lowering were validated when the plan was made
// (akg::plan_fwd / plan_bwd validate the window; serve::PlanCache keys on
// the live tensor geometry). Tensor shapes are checked on every launch --
// the image table is built from them.
void validate_op(const PoolOp& op) {
  if (op.kind == PoolOpKind::kGlobalAvg) return;
  op.window.validate();
  if (op.kind == PoolOpKind::kMaxMaskFwd) {
    DV_CHECK(op.fwd == PoolImpl::kDirect || op.fwd == PoolImpl::kIm2col)
        << "mask-producing forward supports kDirect and kIm2col";
  }
  if (is_forward(op.kind) && op.fwd != PoolImpl::kIm2col) {
    DV_CHECK(!op.window.has_padding())
        << akg::to_string(op.fwd)
        << " kernel supports only unpadded windows; use kIm2col";
  }
}

const TensorF16& need(const TensorF16* t, const PoolOp& op,
                      const char* what) {
  DV_CHECK(t != nullptr) << op.to_string() << ": missing input tensor '"
                         << what << "'";
  return *t;
}

// Rows [first, second) of a slice.
using RowRange = std::pair<std::int64_t, std::int64_t>;

// Zeroes the `zero` rows of every `rows`-row slice of `t` (rows of
// `row_elems` elements).
void zero_rows(TensorF16& t, std::int64_t rows, std::int64_t row_elems,
               const std::vector<RowRange>& zero) {
  const std::int64_t slice = rows * row_elems;
  if (slice == 0) return;
  for (const auto& [r0, r1] : zero) {
    if (r0 >= r1) continue;
    for (std::int64_t s = 0; s < t.size() / slice; ++s) {
      std::memset(static_cast<void*>(t.data() + s * slice + r0 * row_elems), 0,
                  static_cast<std::size_t>((r1 - r0) * row_elems) *
                      sizeof(Float16));
    }
  }
}

// Checks that `t` is a stack of `img`-shaped images and appends them to
// `col`.
void add_images(ImageColumn& col, const TensorF16& t, const Shape& img,
                const PoolOp& op, const char* what) {
  bool ok = t.shape().rank() == img.rank() + 1;
  for (int i = 0; ok && i < img.rank(); ++i) ok = t.shape()[i + 1] == img[i];
  DV_CHECK(ok) << op.to_string() << ": '" << what << "' is "
               << t.shape().to_string() << ", expected (N, "
               << img.to_string() << ")";
  col.elems = img.num_elements();
  col.append(t);
}

}  // namespace

PoolLaunch::PoolLaunch(const Device& dev, const PoolOp& op,
                       const PoolInputs& in)
    : op_(op) {
  const std::int64_t t_v0 = detail::host_now_ns();
  if (!op.plan.has_value()) validate_op(op);
  if (op.kind == PoolOpKind::kAvgFwd) {
    DV_CHECK(op.fwd == PoolImpl::kDirect || op.fwd == PoolImpl::kIm2col)
        << "AvgPool forward supports kDirect and kIm2col";
  }
  DV_CHECK(in.members.empty() ||
           (in.in == nullptr && in.mask == nullptr && in.grad == nullptr))
      << op.to_string() << ": a coalesced launch takes its members' tensors";
  members_ =
      in.members.empty() ? std::span<const PoolInputs>(&in, 1) : in.members;
  const std::span<const PoolInputs> members = members_;
  const bool fwd = is_forward(op.kind);
  const Window2d& w = op.window;

  // Per-image geometry, from the first member's primary tensor.
  const PoolInputs& first = members.front();
  const TensorF16& primary =
      fwd ? need(first.in, op, "in")
          : (op.kind == PoolOpKind::kMaxBwd ? need(first.mask, op, "mask")
                                            : need(first.grad, op, "grad"));
  DV_CHECK_GE(primary.shape().rank(), 5)
      << op.to_string() << ": expected an NC1HWC0 tensor";
  const std::int64_t c1 = primary.shape()[1];
  const std::int64_t ih = fwd ? primary.shape()[2] : first.ih;
  const std::int64_t iw = fwd ? primary.shape()[3] : first.iw;
  table_.c1 = c1;
  table_.ih = ih;
  table_.iw = iw;
  const bool global = op.kind == PoolOpKind::kGlobalAvg;
  const std::int64_t oh = global ? 1 : w.out_h(ih);
  const std::int64_t ow = global ? 1 : w.out_w(iw);
  const Shape img_in{c1, ih, iw, kC0};
  const Shape img_out{c1, oh, ow, kC0};
  const std::int64_t ppg = round_up(oh * ow, kFractalRows);
  const Shape img_mask{c1, w.kh, w.kw, ppg, kC0};

  for (ImageColumn* col : {&table_.in, &table_.mask, &table_.grad}) {
    col->base.reserve(members.size());
  }
  for (const PoolInputs& m : members) {
    DV_CHECK(m.members.empty()) << "coalesced launches do not nest";
    DV_CHECK(fwd || (m.ih == first.ih && m.iw == first.iw))
        << op.to_string() << ": members differ in input spatial size";
    if (fwd) {
      add_images(table_.in, need(m.in, op, "in"), img_in, op, "in");
    } else {
      if (op.kind == PoolOpKind::kMaxBwd) {
        add_images(table_.mask, need(m.mask, op, "mask"), img_mask, op,
                   "mask");
      }
      add_images(table_.grad, need(m.grad, op, "grad"), img_out, op, "grad");
      DV_CHECK(op.kind == PoolOpKind::kAvgBwd ||
               table_.mask.base.size() == table_.grad.base.size())
          << op.to_string() << ": mask and grad differ in N";
    }
  }
  images_ = static_cast<std::int64_t>(
      (fwd ? table_.in : table_.grad).base.size());
  // Per-block (one image, one channel group) element counts.
  const std::int64_t blk_in = ih * iw * kC0;
  const std::int64_t blk_out = oh * ow * kC0;
  const std::int64_t blk_mask = w.kh * w.kw * ppg * kC0;
  in_block_elems_ =
      fwd ? blk_in
          : blk_out + (op.kind == PoolOpKind::kMaxBwd ? blk_mask : 0);
  out_block_elems_ =
      fwd ? blk_out + (op.kind == PoolOpKind::kMaxMaskFwd ? blk_mask : 0)
          : blk_in;

  const std::int64_t t_p0 = detail::host_now_ns();
  const bool db = dev.double_buffer();
  if (op.plan.has_value()) {
    plan_ = *op.plan;
  } else if (fwd && !global) {
    plan_ = akg::plan_fwd(op.fwd, dev.arch(), w, ih, iw,
                          op.kind == PoolOpKind::kMaxMaskFwd,
                          op.kind != PoolOpKind::kMaxMaskFwd && db);
  } else if (!fwd) {
    plan_ = akg::plan_bwd(dev.arch(), w, ih, iw, db);
  }
  if (!global) {
    DV_CHECK_GE(plan_.oh_tile, 1) << "invalid precomputed plan";
  }

  // Outputs, one set per member. The kernels store every element except
  // whole rows of two kinds, which are zeroed here: the mask's fractal
  // padding rows past Oh*Ow in each (kh, kw) plane (read by result
  // comparisons and the backward pass), and the input rows no backward
  // tile reaches (gaps when Sh > Kh, a trailing remainder), which must
  // read as the zero gradient.
  const std::int64_t t_a0 = detail::host_now_ns();
  std::vector<RowRange> unstored;  // backward: rows outside every tile
  if (!fwd) {
    std::int64_t y = 0;
    for (std::int64_t ti = 0; ti < plan_.num_h_tiles; ++ti) {
      const akg::HTile ht = akg::h_tile(w, ih, oh, plan_.oh_tile, ti);
      if (ht.y0 > y) unstored.push_back({y, ht.y0});
      y = std::max(y, ht.y1);
    }
    if (y < ih) unstored.push_back({y, ih});
  }
  const std::vector<RowRange> mask_pad{{oh * ow, ppg}};
  auto output = [&](const Shape& shape, std::int64_t rows,
                    std::int64_t row_elems, const std::vector<RowRange>& zero) {
    // Under a resilience policy make_output zero-fills the whole tensor.
    TensorF16 t = detail::make_output(dev, shape);
    if (!dev.resilience().has_value()) zero_rows(t, rows, row_elems, zero);
    return t;
  };
  table_.out.elems = c1 * blk_out;
  table_.mask.elems = c1 * blk_mask;
  table_.grad_in.elems = c1 * blk_in;
  for (ImageColumn* col : {&table_.out, &table_.grad_in}) {
    col->base.reserve(static_cast<std::size_t>(images_));
  }
  auto allocate = [&](PoolResult& res, std::int64_t n) {
    if (fwd) {
      res.out = output(Shape{n, c1, oh, ow, kC0}, oh, ow * kC0, {});
      table_.out.append(res.out);
    }
    if (op.kind == PoolOpKind::kMaxMaskFwd) {
      res.mask = output(Shape{n, c1, w.kh, w.kw, ppg, kC0}, ppg, kC0,
                        mask_pad);
      table_.mask.append(res.mask);
    }
    if (!fwd) {
      res.grad_in = output(Shape{n, c1, ih, iw, kC0}, ih, iw * kC0, unstored);
      table_.grad_in.append(res.grad_in);
    }
  };
  if (in.members.empty()) {
    allocate(outputs_, images_);
  } else {
    outputs_.parts.resize(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const PoolInputs& pi = members[m];
      allocate(outputs_.parts[m], (fwd ? *pi.in : *pi.grad).shape()[0]);
    }
  }
  const std::int64_t t_a1 = detail::host_now_ns();
  validate_ns_ = t_p0 - t_v0;
  plan_ns_ = t_a0 - t_p0;
  alloc_ns_ = t_a1 - t_a0;
}

std::int64_t PoolLaunch::input_bytes(const BlockRange& r) const {
  return r.blocks() * in_block_elems_ *
         static_cast<std::int64_t>(sizeof(Float16));
}

std::int64_t PoolLaunch::output_bytes(const BlockRange& r) const {
  return r.blocks() * out_block_elems_ *
         static_cast<std::int64_t>(sizeof(Float16));
}

Device::RunResult PoolLaunch::run(Device& dev, const BlockRange& r) const {
  DV_CHECK(r.n0 >= 0 && r.n >= 0 && r.n0 + r.n <= images_ && r.q0 >= 0 &&
           r.c1 >= 0 && r.q0 + r.c1 <= table_.c1)
      << "block range outside the launch";
  // With an instruction-stream VM attached (serve::Session), stage the
  // launch's identity before dispatch: the display label and the input
  // buffers it reads, which the stream's dependency tracker uses for
  // RAW/WAR hazards. The annotation is free when no stream is attached.
  if (dev.vm_stream() != nullptr) {
    std::vector<vm::BufferId> reads;
    for (const PoolInputs& m : members_) {
      for (const TensorF16* t : {m.in, m.mask, m.grad}) {
        if (t != nullptr) {
          reads.push_back(reinterpret_cast<vm::BufferId>(t->data()));
        }
      }
    }
    dev.annotate_vm_launch(op_.to_string(), std::move(reads));
  }
  const Window2d& w = op_.window;
  switch (op_.kind) {
    case PoolOpKind::kMaxFwd:
      return pooling_forward_impl(dev, table_, r, w, op_.fwd, VecOp::kMax,
                                  Float16::lowest(), Float16(1.0f), plan_);
    case PoolOpKind::kMinFwd:
      // Dual reduction: vmin and a +max-finite initializer. Zero padding
      // participates as 0, mirroring what the Im2Col instruction loads.
      return pooling_forward_impl(dev, table_, r, w, op_.fwd, VecOp::kMin,
                                  Float16::max_finite(), Float16(1.0f),
                                  plan_);
    case PoolOpKind::kAvgFwd:
      return pooling_forward_impl(
          dev, table_, r, w, op_.fwd, VecOp::kAdd, Float16(),
          Float16(1.0f / static_cast<float>(w.kh * w.kw)), plan_);
    case PoolOpKind::kGlobalAvg:
      return global_avgpool_impl(dev, table_, r);
    case PoolOpKind::kMaxMaskFwd:
      return maxpool_mask_fwd_impl(dev, table_, r, w, op_.fwd, plan_);
    case PoolOpKind::kMaxBwd:
      return maxpool_bwd_impl(dev, table_, r, w, op_.merge, plan_);
    case PoolOpKind::kAvgBwd:
      return avgpool_bwd_impl(dev, table_, r, w, op_.merge, plan_);
  }
  throw Error("run_pool: unknown PoolOpKind");
}

void PoolLaunch::add_setup_ns(Device::RunResult& run) const {
  detail::add_host_overhead(run, validate_ns_, plan_ns_, alloc_ns_);
}

PoolResult PoolLaunch::take_outputs() { return std::move(outputs_); }

PoolResult run_pool(Device& dev, const PoolOp& op, const PoolInputs& in) {
  PoolLaunch launch(dev, op, in);
  Device::RunResult run = launch.run(dev, launch.all());
  launch.add_setup_ns(run);
  PoolResult res = launch.take_outputs();
  res.run = std::move(run);
  return res;
}

}  // namespace davinci::kernels
