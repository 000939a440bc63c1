// Output verification against the src/ref/ oracle.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "akg/tiling.h"
#include "bench.h"
#include "common/check.h"
#include "ref/pooling_ref.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  h *= kMul;
  return h ^ (h >> 29);
}

// Digest of a tensor's shape and every byte of its payload; an absent
// (rank-0) tensor contributes only a marker.
std::uint64_t mix_tensor(std::uint64_t h, const dv::TensorF16& t) {
  const dv::Shape& shape = t.shape();
  h = mix(h, static_cast<std::uint64_t>(shape.rank()) + 0x51ED27ull);
  if (shape.rank() == 0) return h;
  for (int d = 0; d < shape.rank(); ++d) {
    h = mix(h, static_cast<std::uint64_t>(shape[d]));
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const std::size_t n = static_cast<std::size_t>(t.size()) * sizeof(dv::Float16);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    h = mix(h, word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes + i, n - i);
  return mix(h, tail ^ (static_cast<std::uint64_t>(n - i) << 56));
}

std::uint64_t result_digest(const kn::PoolResult& r) {
  std::uint64_t h = 0xC0FFEEull;
  h = mix_tensor(h, r.out);
  h = mix_tensor(h, r.mask);
  return mix_tensor(h, r.grad_in);
}

// The tensors run_pool must produce for `q`, computed by the reference.
kn::PoolResult reference(const Request& q) {
  namespace ref = dv::ref;
  const dv::Window2d& w = q.op.window;
  kn::PoolResult want;
  switch (q.op.kind) {
    case kn::PoolOpKind::kMaxFwd:
      want.out = ref::maxpool_fwd(*q.in.in, w);
      break;
    case kn::PoolOpKind::kAvgFwd:
      want.out = ref::avgpool_fwd(*q.in.in, w);
      break;
    case kn::PoolOpKind::kMinFwd:
      want.out = ref::minpool_fwd(*q.in.in, w);
      break;
    case kn::PoolOpKind::kGlobalAvg:
      want.out = ref::global_avgpool(*q.in.in);
      break;
    case kn::PoolOpKind::kMaxMaskFwd:
      want.out = ref::maxpool_fwd(*q.in.in, w);
      want.mask = ref::maxpool_argmax_mask(*q.in.in, w);
      break;
    case kn::PoolOpKind::kMaxBwd:
      want.grad_in = ref::maxpool_bwd(*q.in.mask, *q.in.grad, w, q.in.ih, q.in.iw);
      break;
    case kn::PoolOpKind::kAvgBwd:
      want.grad_in = ref::avgpool_bwd(*q.in.grad, w, q.in.ih, q.in.iw);
      break;
  }
  return want;
}

constexpr std::uint64_t kUnset = 0;
constexpr std::size_t kRefThreads = 4;

// AvgPool backward with an inexact 1 / (Kh * Kw) scale on a height-tiled
// plan accumulates rounded fp16 adds across tile seams in a different
// order from the reference, so seam elements may differ by one ulp; the
// repo's own tests hold the kernel to that bound there
// (TiledLargeInputInexactScaleWithinUlp in tests/test_avgpool.cc).
bool seam_tolerant(const Request& q, const dv::ArchConfig& arch) {
  if (q.op.kind != kn::PoolOpKind::kAvgBwd) return false;
  const std::int64_t taps = q.op.window.kh * q.op.window.kw;
  if ((taps & (taps - 1)) == 0) return false;  // power of two: exact scale
  return dv::akg::plan_bwd(arch, q.op.window, q.in.ih, q.in.iw).tiled();
}

// Distance in units in the last place between two finite fp16 values.
int ulp_distance(dv::Float16 a, dv::Float16 b) {
  auto ordered = [](dv::Float16 x) {
    const int mag = x.bits() & 0x7FFF;
    return (x.bits() & 0x8000) != 0 ? -mag : mag;
  };
  return std::abs(ordered(a) - ordered(b));
}

}  // namespace

void Verifier::prepare(const Workload& w) {
  // One representative request per expected-output slot.
  std::vector<const Request*> first(w.refs, nullptr);
  for (const Request& q : w.requests) {
    DV_CHECK_LT(q.ref, first.size());
    if (first[q.ref] == nullptr) first[q.ref] = &q;
  }
  want_.assign(w.refs, kUnset);
  within_ulp_.assign(w.refs, std::nullopt);
  // The reference kernels are scalar and slow; slots are independent, so
  // they are computed on a few threads (each slot written by one thread).
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(kRefThreads);
  auto work = [&](std::size_t t) {
    try {
      for (std::size_t i = next++; i < first.size(); i = next++) {
        if (first[i] == nullptr) continue;
        kn::PoolResult ref = reference(*first[i]);
        want_[i] = result_digest(ref);
        if (seam_tolerant(*first[i], w.cluster.arch)) {
          within_ulp_[i] = std::move(ref.grad_in);
        }
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kRefThreads; ++t) threads.emplace_back(work, t);
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

bool Verifier::check(const Request& req, const kn::PoolResult& r) const {
  if (req.ref >= want_.size() || want_[req.ref] == kUnset) return false;
  if (result_digest(r) == want_[req.ref]) return true;
  if (!within_ulp_[req.ref].has_value()) return false;
  const dv::TensorF16& want = *within_ulp_[req.ref];
  if (r.has_out() || r.has_mask() || !(r.grad_in.shape() == want.shape())) return false;
  for (std::int64_t i = 0; i < want.size(); ++i) {
    if (ulp_distance(r.grad_in.data()[i], want.data()[i]) > 1) return false;
  }
  return true;
}

}  // namespace perfbench
