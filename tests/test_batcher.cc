// serve/batcher.h: batch formation under the launch caps, and coalesced
// launches that read every member's tensors in place and write every
// member's outputs into that member's own storage. A coalesced launch
// must be bit-identical to running each request alone and cycle-identical
// to one launch on the members' tensors stacked by hand.
#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "serve/cluster.h"
#include "serve/trace.h"
#include "tensor/arena.h"

namespace davinci::serve {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::PoolResult;

// One line per PoolOpKind, plus backward windows whose tiles leave input
// rows unstored (a trailing row; gaps between height tiles when Sh > Kh);
// `n=` is appended per member.
constexpr const char* kKindLines[] = {
    "op=maxpool c1=3 ih=19 iw=19 k=3 s=2 impl=im2col",
    "op=avgpool c1=3 ih=19 iw=19 k=3 s=2 impl=direct",
    "op=minpool c1=3 ih=19 iw=19 k=2 s=2 impl=im2col",
    "op=global_avgpool c1=4 ih=8 iw=8",
    "op=maxpool_mask c1=2 ih=19 iw=19 k=3 s=2 impl=im2col",
    "op=maxpool_bwd c1=3 ih=19 iw=19 k=3 s=2 merge=col2im",
    "op=avgpool_bwd c1=2 ih=19 iw=19 k=3 s=2 merge=vadd",
    "op=maxpool_bwd c1=2 ih=20 iw=20 k=3 s=2 merge=vadd",
    "op=avgpool_bwd c1=2 ih=200 iw=200 k=2 s=3 merge=col2im",
};
constexpr std::int64_t kMemberN[] = {1, 3, 2};

// The requests of one coalesced launch, owning their tensors. A deque
// keeps every tensor's address stable as members are added.
struct Requests {
  PoolOp op;
  std::deque<MaterializedRequest> owned;
  std::vector<PoolInputs> inputs;

  std::vector<RequestView> views() const {
    std::vector<RequestView> v;
    for (const PoolInputs& in : inputs) v.push_back(RequestView{&op, &in});
    return v;
  }
};

Requests make_requests(const std::string& line, std::uint64_t seed) {
  Requests r;
  for (std::int64_t n : kMemberN) {
    const TraceEntry e =
        parse_trace(line + " n=" + std::to_string(n) + "\n").front();
    r.op = e.op;
    r.owned.push_back(materialize(e, seed++));
  }
  for (const MaterializedRequest& m : r.owned) {
    r.inputs.push_back(m.inputs());
  }
  return r;
}

// The members' tensors concatenated along N by hand.
TensorF16 stack(const std::vector<const TensorF16*>& parts) {
  Shape dims = parts.front()->shape();
  std::int64_t n = 0;
  for (const TensorF16* t : parts) n += t->shape()[0];
  dims.set_dim(0, n);
  TensorF16 out(dims);
  Float16* dst = out.data();
  for (const TensorF16* t : parts) {
    std::memcpy(dst, t->data(),
                static_cast<std::size_t>(t->size()) * sizeof(Float16));
    dst += t->size();
  }
  return out;
}

void expect_same_tensor(const TensorF16& got, const TensorF16& want,
                        const char* what) {
  ASSERT_EQ(got.shape().to_string(), want.shape().to_string()) << what;
  if (want.shape().rank() == 0) return;
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(want.size()) *
                            sizeof(Float16)),
            0)
      << what;
}

void expect_same_outputs(const PoolResult& got, const PoolResult& want) {
  expect_same_tensor(got.out, want.out, "out");
  expect_same_tensor(got.mask, want.mask, "mask");
  expect_same_tensor(got.grad_in, want.grad_in, "grad_in");
}

std::vector<const TensorF16*> outputs_of(const PoolResult& r) {
  std::vector<const TensorF16*> ts;
  for (const TensorF16* t : {&r.out, &r.mask, &r.grad_in}) {
    if (t->shape().rank() > 0) ts.push_back(t);
  }
  return ts;
}

// Restores the arena's poison switch on scope exit.
struct PoisonScope {
  explicit PoisonScope(bool on) : was(TensorArena::global().poison()) {
    TensorArena::global().set_poison(on);
  }
  ~PoisonScope() { TensorArena::global().set_poison(was); }
  bool was;
};

// --- form_batches ----------------------------------------------------------

std::vector<std::size_t> sizes(const std::vector<Batch>& bs) {
  std::vector<std::size_t> s;
  for (const Batch& b : bs) s.push_back(b.members.size());
  return s;
}

TEST(FormBatches, MaxRequestsCapSplitsInSubmissionOrder) {
  const Requests r = make_requests(kKindLines[0], 1);  // 3 members
  const Requests more = make_requests(kKindLines[0], 9);
  std::vector<RequestView> views = r.views();
  const std::vector<RequestView> tail = more.views();
  views.insert(views.end(), tail.begin(), tail.end());
  const std::vector<Batch> bs = form_batches(views, 4, 1 << 20);
  ASSERT_EQ(sizes(bs), (std::vector<std::size_t>{4, 2}));
  EXPECT_EQ(bs[0].members, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(bs[1].members, (std::vector<std::size_t>{4, 5}));
  // Blocks: sum of n * c1 over the members (c1 = 3).
  EXPECT_EQ(bs[0].blocks, (1 + 3 + 2 + 1) * 3);
}

TEST(FormBatches, MaxBlocksCapClosesAFullBatch) {
  const Requests r = make_requests(kKindLines[0], 2);  // 3, 9, 6 blocks
  EXPECT_EQ(sizes(form_batches(r.views(), 32, 12)),
            (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(sizes(form_batches(r.views(), 32, 11)),
            (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(sizes(form_batches(r.views(), 32, 18)),
            (std::vector<std::size_t>{3}));
}

TEST(FormBatches, OversizedRequestFormsItsOwnSingleton) {
  // The 9-block member exceeds the 8-block cap: it still launches, alone.
  const Requests r = make_requests(kKindLines[0], 3);
  const std::vector<Batch> bs = form_batches(r.views(), 32, 8);
  ASSERT_EQ(sizes(bs), (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(bs[1].members, (std::vector<std::size_t>{1}));
  EXPECT_EQ(bs[1].blocks, 9);
}

TEST(FormBatches, DifferentGeometriesNeverShareABatch) {
  const Requests a = make_requests(kKindLines[0], 4);
  const Requests b = make_requests(kKindLines[2], 5);
  const std::vector<RequestView> va = a.views(), vb = b.views();
  const std::vector<RequestView> views = {va[0], vb[0], va[1], vb[1]};
  const std::vector<Batch> bs = form_batches(views, 32, 1 << 20);
  ASSERT_EQ(sizes(bs), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(bs[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(bs[1].members, (std::vector<std::size_t>{1, 3}));
}

// --- coalesced launches ----------------------------------------------------

class CoalescedLaunch : public ::testing::TestWithParam<const char*> {};

TEST_P(CoalescedLaunch, BitIdenticalToPerRequestRunsAndCycleIdenticalToStack) {
  const Requests r = make_requests(GetParam(), 20);
  Device dev;
  std::vector<PoolResult> want;
  for (const PoolInputs& in : r.inputs) {
    want.push_back(kernels::run_pool(dev, r.op, in));
  }

  const std::vector<RequestView> views = r.views();
  const std::vector<Batch> bs = form_batches(views, 32, 1 << 20);
  ASSERT_EQ(bs.size(), 1u);
  const CoalescedInputs c = coalesce(views, bs[0]);
  EXPECT_EQ(c.in.shape().rank(), 0);  // nothing stacked
  EXPECT_EQ(c.mask.shape().rank(), 0);
  EXPECT_EQ(c.grad.shape().rank(), 0);
  PoolResult batched = kernels::run_pool(dev, r.op, c.inputs());
  EXPECT_TRUE(outputs_of(batched).empty());  // outputs live in the parts
  const Device::RunResult run = batched.run;
  const std::vector<PoolResult> parts = split_result(bs[0], c, batched);
  EXPECT_TRUE(batched.parts.empty());  // consumed
  ASSERT_EQ(parts.size(), want.size());
  for (std::size_t m = 0; m < parts.size(); ++m) {
    SCOPED_TRACE("member " + std::to_string(m));
    expect_same_outputs(parts[m], want[m]);
    EXPECT_EQ(parts[m].run.device_cycles, run.device_cycles);
  }

  // The same launch on the members' tensors stacked by hand.
  PoolInputs stacked_in = r.inputs.front();
  std::vector<TensorF16> stacked;
  stacked.reserve(3);
  for (const TensorF16* PoolInputs::*field :
       {&PoolInputs::in, &PoolInputs::mask, &PoolInputs::grad}) {
    if (r.inputs.front().*field == nullptr) continue;
    std::vector<const TensorF16*> ts;
    for (const PoolInputs& in : r.inputs) ts.push_back(in.*field);
    stacked.push_back(stack(ts));
    stacked_in.*field = &stacked.back();
  }
  const PoolResult hand = kernels::run_pool(dev, r.op, stacked_in);
  EXPECT_EQ(run.device_cycles, hand.run.device_cycles);
  EXPECT_EQ(run.device_cycles_serial, hand.run.device_cycles_serial);
  EXPECT_EQ(run.cores_used, hand.run.cores_used);
  EXPECT_EQ(run.aggregate.vector_instrs, hand.run.aggregate.vector_instrs);
  EXPECT_EQ(run.aggregate.mte_bytes, hand.run.aggregate.mte_bytes);
}

TEST_P(CoalescedLaunch, ShardedOverACluster) {
  // Both placements split the coalesced launch over three devices, each
  // shard writing into the members' own outputs.
  const Requests r = make_requests(GetParam(), 30);
  Device dev;
  std::vector<PoolResult> want;
  for (const PoolInputs& in : r.inputs) {
    want.push_back(kernels::run_pool(dev, r.op, in));
  }
  for (const Placement p : {Placement::kData, Placement::kModel}) {
    SCOPED_TRACE(to_string(p));
    Cluster cluster(ClusterOptions{.devices = 3, .placement = p});
    const std::vector<RequestView> views = r.views();
    const std::vector<Batch> bs = form_batches(views, 32, 1 << 20);
    const CoalescedInputs c = coalesce(views, bs[0]);
    Cluster::Launch lr = cluster.run_pool(r.op, c.inputs());
    EXPECT_GE(lr.shards, 2);
    const std::vector<PoolResult> parts = split_result(bs[0], c, lr.result);
    for (std::size_t m = 0; m < parts.size(); ++m) {
      SCOPED_TRACE("member " + std::to_string(m));
      expect_same_outputs(parts[m], want[m]);
    }
  }
}

TEST_P(CoalescedLaunch, MemberOutputsNeverShareStorage) {
  const Requests r = make_requests(GetParam(), 40);
  Device dev;
  const std::vector<RequestView> views = r.views();
  const std::vector<Batch> bs = form_batches(views, 32, 1 << 20);
  const CoalescedInputs c = coalesce(views, bs[0]);
  PoolResult batched = kernels::run_pool(dev, r.op, c.inputs());
  const std::vector<PoolResult> parts = split_result(bs[0], c, batched);
  struct Range {
    const char* lo;
    const char* hi;
  };
  std::vector<Range> ranges;
  for (const PoolResult& p : parts) {
    for (const TensorF16* t : outputs_of(p)) {
      const char* lo = reinterpret_cast<const char*>(t->data());
      ranges.push_back({lo, lo + t->size() * sizeof(Float16)});
    }
  }
  // Inputs too: an output must never alias a member's input.
  for (const PoolInputs& in : r.inputs) {
    for (const TensorF16* t : {in.in, in.mask, in.grad}) {
      if (t == nullptr) continue;
      const char* lo = reinterpret_cast<const char*>(t->data());
      ranges.push_back({lo, lo + t->size() * sizeof(Float16)});
    }
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      EXPECT_TRUE(ranges[i].hi <= ranges[j].lo || ranges[j].hi <= ranges[i].lo)
          << "ranges " << i << " and " << j << " overlap";
    }
  }
}

TEST_P(CoalescedLaunch, EveryMemberOutputByteIsWrittenUnderPoison) {
  // Poisoned storage reads 0xA5A5 -- an fp16 value (about -0.022) no
  // output of these integer-valued inputs can take -- wherever a kernel
  // failed to store.
  const PoisonScope poison(true);
  const Requests r = make_requests(GetParam(), 50);
  Device dev;
  const std::vector<RequestView> views = r.views();
  const std::vector<Batch> bs = form_batches(views, 32, 1 << 20);
  const CoalescedInputs c = coalesce(views, bs[0]);
  PoolResult batched = kernels::run_pool(dev, r.op, c.inputs());
  const std::vector<PoolResult> parts = split_result(bs[0], c, batched);
  for (std::size_t m = 0; m < parts.size(); ++m) {
    for (const TensorF16* t : outputs_of(parts[m])) {
      for (std::int64_t i = 0; i < t->size(); ++i) {
        ASSERT_NE(t->flat(i).bits(), 0xA5A5)
            << "member " << m << " element " << i << " never written";
      }
    }
  }
}

TEST_P(CoalescedLaunch, ResiliencePolicyZeroFillsEveryMemberOutput) {
  const PoisonScope poison(true);
  const Requests r = make_requests(GetParam(), 60);
  const std::vector<RequestView> views = r.views();
  const std::vector<Batch> bs = form_batches(views, 32, 1 << 20);
  const CoalescedInputs c = coalesce(views, bs[0]);
  const PoolInputs in = c.inputs();

  Device resilient;
  resilient.set_resilience(ResilienceOptions{});
  const PoolResult zeroed =
      kernels::PoolLaunch(resilient, r.op, in).take_outputs();
  ASSERT_EQ(zeroed.parts.size(), r.inputs.size());
  for (const PoolResult& p : zeroed.parts) {
    for (const TensorF16* t : outputs_of(p)) {
      for (std::int64_t i = 0; i < t->size(); ++i) {
        ASSERT_EQ(t->flat(i).bits(), 0) << "element " << i;
      }
    }
  }
  // Without the policy, forward outputs skip the fill (the arena's
  // poison shows through) -- the zero-fill above is the policy's doing.
  if (kernels::is_forward(r.op.kind)) {
    Device plain;
    const PoolResult raw = kernels::PoolLaunch(plain, r.op, in).take_outputs();
    EXPECT_EQ(raw.parts.front().out.flat(0).bits(), 0xA5A5);
  }
}

INSTANTIATE_TEST_SUITE_P(EveryKind, CoalescedLaunch,
                         ::testing::ValuesIn(kKindLines));

}  // namespace
}  // namespace davinci::serve
