// The async instruction-stream VM (sim/vm/, docs/ASYNC_VM.md).
//
// Unit level: VmStream placement must respect every dependency class --
// (core, pipe) track exclusivity, the bounded in-flight window, and
// RAW/WAR/WAW buffer hazards -- while the per-stream cycle buckets keep
// the attribution invariant busy + wait + flag + idle == makespan *
// tracks across launch boundaries.
//
// Integration level: a serve::Session replaying the CI smoke workload
// must (a) produce bit-identical outputs with the VM on and off, (b)
// schedule a cross-batch makespan strictly below the sum of per-batch
// makespans (the inter-batch pipelining the PR exists for), and (c)
// replay deterministically -- identical issue logs, launch counts and
// cycle totals run to run, which the CI gate diffs at zero tolerance.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "serve/session.h"
#include "serve/trace.h"
#include "sim/vm/stream.h"

namespace davinci::vm {
namespace {

// A single-core launch whose MTE-in runs [0, head) and Vector runs
// [head, head + tail): the canonical load-then-compute shape whose tail
// a successor's head can hide under.
VmLaunch two_stage_launch(std::int64_t head, std::int64_t tail,
                          int core = 0) {
  VmLaunch l;
  l.label = "two-stage";
  CoreWork cw;
  cw.core = core;
  cw.makespan = head + tail;
  PipeWork& in = cw.pipes[static_cast<int>(Pipe::kMteIn)];
  in.busy = head;
  in.first_busy = 0;
  in.last_busy = head;
  PipeWork& vec = cw.pipes[static_cast<int>(Pipe::kVector)];
  vec.busy = tail;
  vec.first_busy = head;
  vec.last_busy = head + tail;
  l.cores.push_back(cw);
  l.makespan = head + tail;
  return l;
}

std::int64_t bucket_sum(const VmStream::Stats& s) {
  std::int64_t total = 0, tracks = 0;
  for (const auto& ps : s.streams) {
    total += ps.busy + ps.wait + ps.flag + ps.idle;
    tracks += ps.tracks;
  }
  return tracks > 0 ? total / tracks : 0;  // exact when invariant holds
}

TEST(VmStream, BackToBackLaunchesOverlapByTheirSlack) {
  VmStream stream;
  EXPECT_EQ(stream.enqueue(two_stage_launch(50, 50)), 0);
  // Launch 2's MTE-in head must wait for launch 1's MTE-in (track
  // exclusivity, floor 50) and its Vector tail for launch 1's Vector
  // (floor 100 - 50 = 50): the rigid shift is 50, not 100.
  EXPECT_EQ(stream.enqueue(two_stage_launch(50, 50)), 50);

  const VmStream::Stats s = stream.stats();
  EXPECT_EQ(s.launches, 2);
  EXPECT_EQ(s.serial_sum, 200);
  EXPECT_EQ(s.makespan, 150);
  EXPECT_EQ(s.overlap_cycles, 50);
  EXPECT_EQ(s.window_stalls, 0);
  EXPECT_EQ(s.hazard_stalls, 0);
}

TEST(VmStream, DisjointCoresOverlapCompletely) {
  VmStream stream;
  EXPECT_EQ(stream.enqueue(two_stage_launch(10, 90, /*core=*/0)), 0);
  EXPECT_EQ(stream.enqueue(two_stage_launch(10, 90, /*core=*/1)), 0);
  EXPECT_EQ(stream.stats().makespan, 100);
  EXPECT_EQ(stream.stats().overlap_cycles, 100);
}

TEST(VmStream, InFlightWindowOfOneSerializes) {
  VmStream stream(VmStreamOptions{.in_flight = 1});
  EXPECT_EQ(stream.enqueue(two_stage_launch(50, 50)), 0);
  // Window floor: launch k waits for launch k-1's completion even
  // though the tracks alone would admit it at 50.
  EXPECT_EQ(stream.enqueue(two_stage_launch(50, 50)), 100);
  const VmStream::Stats s = stream.stats();
  EXPECT_EQ(s.makespan, 200);
  EXPECT_EQ(s.overlap_cycles, 0);
  EXPECT_GE(s.window_stalls, 1);
}

TEST(VmStream, WiderWindowRestoresTheOverlap) {
  for (const int w : {2, 3, 8}) {
    VmStream stream(VmStreamOptions{.in_flight = w});
    for (int i = 0; i < 4; ++i) stream.enqueue(two_stage_launch(50, 50));
    EXPECT_EQ(stream.stats().makespan, 250) << "in_flight=" << w;
  }
}

TEST(VmStream, ReadAfterWriteHazardSerializes) {
  VmLaunch producer = two_stage_launch(50, 50);
  producer.writes = {0x1000};
  VmLaunch consumer = two_stage_launch(50, 50, /*core=*/1);
  consumer.reads = {0x1000};

  VmStream stream;
  EXPECT_EQ(stream.enqueue(std::move(producer)), 0);
  // Disjoint cores: only the RAW dependency can hold the consumer back,
  // and it must hold it to the producer's completion.
  EXPECT_EQ(stream.enqueue(std::move(consumer)), 100);
  EXPECT_GE(stream.stats().hazard_stalls, 1);
}

TEST(VmStream, WriteHazardsSerializeWARAndWAW) {
  VmLaunch reader = two_stage_launch(50, 50);
  reader.reads = {0x2000};
  VmLaunch writer = two_stage_launch(50, 50, /*core=*/1);
  writer.writes = {0x2000};
  VmStream stream;
  stream.enqueue(std::move(reader));
  EXPECT_EQ(stream.enqueue(std::move(writer)), 100);  // WAR

  VmLaunch w1 = two_stage_launch(50, 50);
  w1.writes = {0x3000};
  VmLaunch w2 = two_stage_launch(50, 50, /*core=*/1);
  w2.writes = {0x3000};
  VmStream stream2;
  stream2.enqueue(std::move(w1));
  EXPECT_EQ(stream2.enqueue(std::move(w2)), 100);  // WAW
}

TEST(VmStream, UnrelatedBuffersDoNotSerialize) {
  VmLaunch a = two_stage_launch(50, 50);
  a.writes = {0x1000};
  VmLaunch b = two_stage_launch(50, 50, /*core=*/1);
  b.reads = {0x9999};
  b.writes = {0x2000};
  VmStream stream;
  stream.enqueue(std::move(a));
  EXPECT_EQ(stream.enqueue(std::move(b)), 0);
  EXPECT_EQ(stream.stats().hazard_stalls, 0);
}

TEST(VmStream, BucketInvariantHoldsAcrossLaunchBoundaries) {
  VmStream stream;
  // Mixed shapes, including a flag stall that lands under the previous
  // launch's busy time (head 10 / tail 90 after head 90 / tail 10).
  stream.enqueue(two_stage_launch(90, 10));
  stream.enqueue(two_stage_launch(10, 90));
  stream.enqueue(two_stage_launch(30, 30, /*core=*/1));
  stream.enqueue(two_stage_launch(50, 50));

  const VmStream::Stats s = stream.stats();
  EXPECT_GT(s.makespan, 0);
  EXPECT_LE(s.makespan, s.serial_sum);
  for (const auto& ps : s.streams) {
    if (ps.tracks == 0) continue;
    // The PR-4 attribution invariant, across batch boundaries: the four
    // buckets tile the stream makespan exactly on every track.
    EXPECT_EQ(ps.busy + ps.wait + ps.flag + ps.idle,
              s.makespan * ps.tracks);
    EXPECT_GE(ps.busy, 0);
    EXPECT_GE(ps.wait, 0);
    EXPECT_GE(ps.flag, 0);
    EXPECT_GE(ps.idle, 0);
    EXPECT_GT(ps.occupancy, 0.0);
    EXPECT_LE(ps.occupancy, 1.0);
  }
  EXPECT_EQ(bucket_sum(s), s.makespan);
}

TEST(VmStream, FlagUnderForeignBusyCountsAsBusyNotNegativeWait) {
  VmStream stream;
  VmLaunch first = two_stage_launch(100, 10);
  // Second launch: its Vector op waits on a flag for 50 local cycles
  // before a 10-cycle burst -- modeled as flag attributed to the pipe.
  VmLaunch second;
  second.label = "flagged";
  CoreWork cw;
  cw.core = 0;
  cw.makespan = 60;
  PipeWork& vec = cw.pipes[static_cast<int>(Pipe::kVector)];
  vec.busy = 10;
  vec.flag = 50;
  vec.first_busy = 50;
  vec.last_busy = 60;
  second.cores.push_back(cw);
  second.makespan = 60;

  stream.enqueue(std::move(first));
  stream.enqueue(std::move(second));
  const VmStream::Stats s = stream.stats();
  for (const auto& ps : s.streams) {
    if (ps.tracks == 0) continue;
    EXPECT_GE(ps.wait, 0);  // clamping, not negative wait
    EXPECT_EQ(ps.busy + ps.wait + ps.flag + ps.idle,
              s.makespan * ps.tracks);
  }
}

TEST(VmStream, IssueLogAndSignatureAreDeterministic) {
  auto run = [] {
    VmStream stream;
    stream.enqueue(two_stage_launch(50, 50));
    stream.enqueue(two_stage_launch(30, 70, /*core=*/1));
    stream.enqueue(two_stage_launch(50, 50));
    return stream.issue_signature();
  };
  const std::string a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
}

TEST(VmStream, ResetForgetsTheTimeline) {
  VmStream stream;
  stream.enqueue(two_stage_launch(50, 50));
  stream.reset();
  const VmStream::Stats s = stream.stats();
  EXPECT_EQ(s.launches, 0);
  EXPECT_EQ(s.makespan, 0);
  EXPECT_EQ(s.serial_sum, 0);
  EXPECT_TRUE(stream.issue_log().empty());
  // A fresh enqueue starts the clock from zero again.
  EXPECT_EQ(stream.enqueue(two_stage_launch(50, 50)), 0);
}

TEST(VmStream, CaptureRetainsPlacedLaunches) {
  VmStream stream(VmStreamOptions{.in_flight = 2, .capture = true});
  VmLaunch l = two_stage_launch(50, 50);
  l.label = "first";
  stream.enqueue(std::move(l));
  stream.enqueue(two_stage_launch(50, 50));
  const auto placed = stream.placements();
  ASSERT_EQ(placed.size(), 2u);
  EXPECT_EQ(placed[0].label, "first");
  EXPECT_EQ(placed[0].start, 0);
  EXPECT_EQ(placed[1].start, 50);
  EXPECT_EQ(placed[1].end, 150);
}

// A kernel launch registers its input addresses as reads and no output
// ids, so relaunching on the same inputs adds nothing to the hazard table
// and no launch stalls on a buffer dependency; each launch's cycles match
// a run without a stream.
TEST(VmStream, KernelLaunchesKeepTheHazardTableFlat) {
  TensorF16 mask(Shape{2, 3, 3, 3, 112, kC0});
  mask.fill_random_ints(3, 0, 1);
  TensorF16 grad(Shape{2, 3, 10, 10, kC0});
  grad.fill_random_ints(4);
  const kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxBwd,
                           .window = Window2d::pool(3, 2)};
  const kernels::PoolInputs in{
      .mask = &mask, .grad = &grad, .ih = 21, .iw = 21};
  Device lone;
  const std::int64_t want = kernels::run_pool(lone, op, in).cycles();

  Device dev;
  VmStream stream;
  dev.set_vm_stream(&stream);
  constexpr int kLaunches = 200;
  for (int i = 0; i < kLaunches; ++i) {
    ASSERT_EQ(kernels::run_pool(dev, op, in).cycles(), want) << "launch " << i;
    ASSERT_EQ(stream.stats().tracked_buffers, 2) << "launch " << i;
  }
  const VmStream::Stats s = stream.stats();
  EXPECT_EQ(s.launches, kLaunches);
  EXPECT_EQ(s.hazard_stalls, 0);
  EXPECT_EQ(s.serial_sum, kLaunches * want);
}

}  // namespace
}  // namespace davinci::vm

// --- Serving-path integration --------------------------------------------

namespace davinci::serve {
namespace {

// The CI smoke workload (bench/traces/serve_smoke.trace), embedded so
// the test is hermetic.
constexpr char kSmokeTrace[] =
    "op=maxpool n=1 c1=4 ih=147 iw=147 k=3 s=2 impl=im2col x=6\n"
    "op=maxpool n=1 c1=12 ih=71 iw=71 k=3 s=2 impl=im2col x=6\n"
    "op=maxpool n=1 c1=18 ih=35 iw=35 k=3 s=2 impl=im2col x=6\n"
    "op=avgpool n=1 c1=12 ih=71 iw=71 k=3 s=2 impl=im2col x=4\n"
    "op=minpool n=1 c1=4 ih=56 iw=56 k=2 s=2 impl=im2col x=2\n"
    "op=maxpool_mask n=1 c1=4 ih=56 iw=56 k=3 s=2 impl=im2col x=2\n"
    "op=maxpool_bwd n=1 c1=4 ih=56 iw=56 k=3 s=2 merge=col2im x=2\n"
    "op=avgpool_bwd n=1 c1=4 ih=56 iw=56 k=3 s=2 merge=col2im x=2\n"
    "op=global_avgpool n=1 c1=64 ih=8 iw=8 x=2\n";

struct ReplayResult {
  SessionStats stats;
  std::string issue_signature;
  std::string serve_json;
  // Every completed request's primary output, flattened, in submit
  // order (mask/grad outputs included where the op produces them).
  std::vector<std::vector<std::uint16_t>> outputs;
};

// Deterministic paused-window replay of the smoke trace -- the same
// discipline davinci_serve uses, so coalescing (and therefore the VM
// schedule) is identical run to run.
ReplayResult replay_smoke(const SessionOptions& opts) {
  const auto entries = parse_trace(kSmokeTrace);
  std::vector<MaterializedRequest> requests;
  std::vector<kernels::PoolOp> ops;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (int r = 0; r < entries[i].repeat; ++r) {
      requests.push_back(
          materialize(entries[i], i * 1000 + std::uint64_t(r)));
      ops.push_back(entries[i].op);
    }
  }

  Session session(Cluster{}, opts);
  session.pause();
  std::vector<std::future<kernels::PoolResult>> futures;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    futures.push_back(session.submit(ops[r], requests[r].inputs()));
  }
  session.resume();
  session.drain();

  ReplayResult res;
  for (auto& f : futures) {
    kernels::PoolResult r = f.get();
    std::vector<std::uint16_t> bits;
    for (const TensorF16* t : {&r.out, &r.mask, &r.grad_in}) {
      if (t->data() == nullptr) continue;  // op didn't produce this output
      for (std::int64_t i = 0; i < t->size(); ++i) {
        bits.push_back(t->flat(i).bits());
      }
    }
    res.outputs.push_back(std::move(bits));
  }
  res.stats = session.stats();
  res.issue_signature = session.vm_stream().issue_signature();
  res.serve_json = session.serve_json();
  return res;
}

TEST(ServeVm, OutputsBitIdenticalWithVmOnAndOff) {
  SessionOptions on;
  SessionOptions off;
  off.vm = false;
  const ReplayResult a = replay_smoke(on);
  const ReplayResult b = replay_smoke(off);

  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    ASSERT_EQ(a.outputs[i], b.outputs[i]) << "request " << i;
  }
  // The VM only re-times: the functional execution order, launch count
  // and per-launch cycle sum are untouched.
  EXPECT_EQ(a.stats.launches, b.stats.launches);
  EXPECT_EQ(a.stats.device_cycles_total, b.stats.device_cycles_total);
  EXPECT_EQ(b.stats.vm.launches, 0);  // off: the stream saw nothing
}

TEST(ServeVm, CrossBatchMakespanStrictlyBelowSerialSum) {
  const ReplayResult r = replay_smoke(SessionOptions{});
  ASSERT_GT(r.stats.vm.launches, 1);
  EXPECT_EQ(r.stats.vm.serial_sum, r.stats.device_cycles_total);
  // The acceptance criterion: inter-batch pipelining must genuinely
  // overlap adjacent launches, not just re-plot the serial schedule.
  EXPECT_LT(r.stats.vm.makespan, r.stats.device_cycles_total);
  EXPECT_GT(r.stats.vm.overlap_cycles, 0);
}

TEST(ServeVm, ReplayIsDeterministicRunToRun) {
  const ReplayResult a = replay_smoke(SessionOptions{});
  const ReplayResult b = replay_smoke(SessionOptions{});
  // Identical op order and coalescing...
  EXPECT_EQ(a.stats.launches, b.stats.launches);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.coalesced_requests, b.stats.coalesced_requests);
  EXPECT_EQ(a.stats.device_cycles_total, b.stats.device_cycles_total);
  // ...and an identical VM schedule, op for op.
  EXPECT_EQ(a.stats.vm.makespan, b.stats.vm.makespan);
  EXPECT_FALSE(a.issue_signature.empty());
  EXPECT_EQ(a.issue_signature, b.issue_signature);
}

TEST(ServeVm, StreamBucketsKeepTheInvariantOnTheServedWorkload) {
  const ReplayResult r = replay_smoke(SessionOptions{});
  bool any = false;
  for (const auto& ps : r.stats.vm.streams) {
    if (ps.tracks == 0) continue;
    any = true;
    EXPECT_EQ(ps.busy + ps.wait + ps.flag + ps.idle,
              r.stats.vm.makespan * ps.tracks);
    EXPECT_GE(ps.wait, 0);
    EXPECT_GE(ps.idle, 0);
  }
  EXPECT_TRUE(any);
  EXPECT_NE(r.serve_json.find("\"vm\""), std::string::npos);
  EXPECT_NE(r.serve_json.find("\"streams\""), std::string::npos);
  EXPECT_NE(r.serve_json.find("\"occupancy\""), std::string::npos);
}

TEST(ServeVm, InFlightWindowOfOneDisablesCrossBatchOverlap) {
  SessionOptions serial;
  serial.vm_in_flight = 1;
  const ReplayResult r = replay_smoke(serial);
  EXPECT_EQ(r.stats.vm.makespan, r.stats.vm.serial_sum);
  EXPECT_EQ(r.stats.vm.overlap_cycles, 0);
}

TEST(ServeVm, ResetStatsRezeroesTheStreamClock) {
  const auto entries = parse_trace("op=maxpool c1=2 ih=21 iw=21 k=3 s=2\n");
  MaterializedRequest req = materialize(entries[0], 1);
  Session session(Cluster{});
  session.submit(entries[0].op, req.inputs()).get();
  session.drain();
  ASSERT_GT(session.stats().vm.makespan, 0);

  session.reset_stats();
  SessionStats s = session.stats();
  EXPECT_EQ(s.vm.launches, 0);
  EXPECT_EQ(s.vm.makespan, 0);
  EXPECT_EQ(s.device_cycles_total, 0);
  EXPECT_EQ(s.completed, 0);
  // Cached plans survive: the next identical request is a cache hit.
  const std::size_t plans = s.plan_cache_size;
  session.submit(entries[0].op, req.inputs()).get();
  session.drain();
  s = session.stats();
  EXPECT_EQ(s.plan_cache_size, plans);
  EXPECT_GE(s.plan_cache.hits, 1);
  EXPECT_EQ(s.plan_cache.misses, 0);
}

}  // namespace
}  // namespace davinci::serve
