#include "serve/batcher.h"

#include <unordered_map>

#include "common/check.h"

namespace davinci::serve {

namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::PoolResult;

const TensorF16& primary_tensor(const PoolOp& op, const PoolInputs& in) {
  const TensorF16* t = kernels::is_backward(op.kind) ? in.grad : in.in;
  DV_CHECK(t != nullptr) << op.to_string() << ": missing input tensor";
  return *t;
}

}  // namespace

RequestGeometry request_geometry(const PoolOp& op, const PoolInputs& in) {
  const TensorF16& t = primary_tensor(op, in);
  DV_CHECK_EQ(t.shape().rank(), 5) << op.to_string()
                                   << ": expected an NC1HWC0 tensor";
  RequestGeometry g;
  g.n = t.shape()[0];
  g.c1 = t.shape()[1];
  if (kernels::is_backward(op.kind)) {
    g.ih = in.ih;
    g.iw = in.iw;
  } else {
    g.ih = t.shape()[2];
    g.iw = t.shape()[3];
  }
  return g;
}

BatchKey batch_key(const PoolOp& op, const PoolInputs& in) {
  const RequestGeometry g = request_geometry(op, in);
  BatchKey key;
  key.kind = op.kind;
  key.c1 = g.c1;
  key.ih = g.ih;
  key.iw = g.iw;
  if (op.kind != PoolOpKind::kGlobalAvg) key.window = op.window;
  if (kernels::is_forward(op.kind) && op.kind != PoolOpKind::kGlobalAvg) {
    key.fwd = op.fwd;
  }
  if (kernels::is_backward(op.kind)) key.merge = op.merge;
  return key;
}

std::vector<Batch> form_batches(const std::vector<RequestView>& reqs,
                                std::size_t max_requests,
                                std::int64_t max_blocks) {
  DV_CHECK_GE(max_requests, 1u);
  DV_CHECK_GE(max_blocks, 1);
  std::vector<Batch> batches;
  // Key -> index of the still-open batch in `batches`.
  struct KeyHash {
    std::size_t operator()(const BatchKey& k) const {
      std::size_t h = static_cast<std::size_t>(k.kind) * 1315423911u;
      for (std::int64_t f :
           {k.window.kh, k.window.kw, k.window.sh, k.window.sw, k.window.pt,
            k.window.pb, k.window.pl, k.window.pr, k.c1, k.ih, k.iw,
            static_cast<std::int64_t>(k.fwd),
            static_cast<std::int64_t>(k.merge)}) {
        h = h * 1099511628211ull + static_cast<std::size_t>(f + 1);
      }
      return h;
    }
  };
  std::unordered_map<BatchKey, std::size_t, KeyHash> open;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const BatchKey key = batch_key(*reqs[i].op, *reqs[i].in);
    const RequestGeometry g = request_geometry(*reqs[i].op, *reqs[i].in);
    const std::int64_t blocks = g.n * g.c1;
    auto it = open.find(key);
    if (it != open.end()) {
      Batch& b = batches[it->second];
      if (b.members.size() < max_requests &&
          b.blocks + blocks <= max_blocks) {
        b.members.push_back(i);
        b.blocks += blocks;
        continue;
      }
      open.erase(it);  // full: close it, a new one opens below
    }
    batches.push_back(Batch{key, {i}, blocks});
    open.emplace(key, batches.size() - 1);
  }
  return batches;
}

kernels::PoolInputs CoalescedInputs::inputs() const {
  PoolInputs pi;
  pi.ih = ih;
  pi.iw = iw;
  pi.members = members;
  return pi;
}

CoalescedInputs coalesce(const std::vector<RequestView>& reqs,
                         const Batch& b) {
  DV_CHECK_GE(b.members.size(), 1u);
  CoalescedInputs c;
  c.members.reserve(b.members.size());
  for (std::size_t m : b.members) c.members.push_back(*reqs[m].in);
  c.ih = c.members.front().ih;
  c.iw = c.members.front().iw;
  return c;
}

std::vector<PoolResult> split_result(const Batch& b,
                                     const CoalescedInputs& c,
                                     PoolResult& batched) {
  DV_CHECK_EQ(batched.parts.size(), b.members.size())
      << "result does not hold one part per member";
  DV_CHECK_EQ(c.members.size(), b.members.size());
  std::vector<PoolResult> out = std::move(batched.parts);
  batched.parts.clear();
  for (PoolResult& r : out) r.run = batched.run;
  return out;
}

}  // namespace davinci::serve
