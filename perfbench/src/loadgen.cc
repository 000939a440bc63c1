// Workload generation and the two load generators (closed-loop windows,
// open-loop Poisson arrivals). One submitter thread drives the session;
// completion is observed by blocking on futures or on Session::drain(),
// never by polling.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/percentile.h"
#include "common/prng.h"
#include "serve/tracegen.h"

namespace perfbench {

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double peak_rss_mb() {
  // VmHWM is the counter reset_peak_rss() resets.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::vector<int> pin_to_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && static_cast<int>(cpus.size()) < n; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &chosen);
    cpus.push_back(c);
  }
  if (cpus.empty() || sched_setaffinity(0, sizeof chosen, &chosen) != 0) return {};
  return cpus;
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return dv::stats::percentile(v, q);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

namespace {

// Process user+sys CPU seconds (all threads).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

// This thread's CPU seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Admission and launch caps shared by every workload: the CI cluster
// gate's --max-batch=32 with davinci_serve's default 64-deep queue.
void serving_options(Workload& w) {
  w.session.queue_depth = 64;
  w.session.max_batch = 32;
  w.window = w.session.queue_depth;
}

// Each request's submitted -> completed interval in ms, read from the
// session's request event ring; +inf for a request that did not complete.
std::vector<double> ring_latency_ms(const sv::Session& s,
                                    const std::vector<std::int64_t>& ids) {
  const std::size_t n = ids.size();
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[ids[i]] = i;
  std::vector<double> submitted_us(n, -1.0), completed_us(n, -1.0);
  for (const sv::ReqEvent& e : s.request_events()) {
    const auto it = index.find(e.request);
    if (it == index.end()) continue;
    if (e.kind == sv::ReqEventKind::kSubmitted) submitted_us[it->second] = e.t_us;
    if (e.kind == sv::ReqEventKind::kCompleted) completed_us[it->second] = e.t_us;
  }
  std::vector<double> ms(n);
  for (std::size_t i = 0; i < n; ++i) {
    ms[i] = submitted_us[i] >= 0.0 && completed_us[i] >= 0.0
                ? (completed_us[i] - submitted_us[i]) / 1e3
                : std::numeric_limits<double>::infinity();
  }
  return ms;
}

}  // namespace

Workload make_mix(int devices, std::uint64_t seed) {
  Workload w;
  w.name = devices == 1 ? "mix_d1" : "mix_d4";
  w.cluster.devices = devices;
  w.cluster.placement = sv::Placement::kData;
  serving_options(w);

  sv::TracegenOptions g;
  g.requests = 256;
  g.seed = kCiSeed;
  g.burst_mean = 6.0;
  g.max_n = 8;
  const std::vector<sv::TraceEntry> entries = sv::generate_trace(g);

  // The trace's requests in CI order, cut into admission windows; the
  // seed permutes whole windows (each keeps its requests and their
  // order, so coalescing and per-window latency are the CI trace's) and
  // reseeds every tensor. davinci_serve seeds request r of trace line i
  // with i * 1000 + r; other seeds offset that.
  struct Slot {
    std::size_t line;
    int rep;
  };
  std::vector<Slot> ci_order;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (int r = 0; r < entries[i].repeat; ++r) ci_order.push_back(Slot{i, r});
  }
  const std::size_t windows = (ci_order.size() + w.window - 1) / w.window;
  std::vector<std::size_t> window_order(windows);
  std::iota(window_order.begin(), window_order.end(), std::size_t{0});
  if (seed != kCiSeed) {
    dv::Xoshiro256 rng(seed);
    for (std::size_t i = windows - 1; i > 0; --i) {
      std::swap(window_order[i], window_order[rng.next_below(i + 1)]);
    }
  }
  const std::uint64_t data_base = seed == kCiSeed ? 0 : seed * 1000003ull;

  w.data.reserve(ci_order.size());  // Request::in points into data
  w.requests.reserve(ci_order.size());
  const auto t0 = Clock::now();
  for (std::size_t win : window_order) {
    const std::size_t end = std::min(ci_order.size(), (win + 1) * w.window);
    for (std::size_t k = win * w.window; k < end; ++k) {
      const sv::TraceEntry& e = entries[ci_order[k].line];
      w.data.push_back(sv::materialize(
          e, data_base + ci_order[k].line * 1000 + std::uint64_t(ci_order[k].rep)));
      w.requests.push_back(Request{e.op, w.data.back().inputs(), w.refs++});
    }
  }
  w.materialize_ms = 1e3 * seconds_since(t0);
  return w;
}

namespace {

// Small forward shapes with hot-shape skew: the first rows take most of
// the traffic. Window kinds rotate over max/avg/min pooling.
enum class SmallKind { kPool, kMask, kGlobal };
struct SmallShape {
  SmallKind kind;
  std::int64_t c1, hw, k, s;
  dv::akg::PoolImpl impl;
  double weight;
};
constexpr SmallShape kSmallShapes[] = {
    {SmallKind::kPool, 16, 14, 3, 1, dv::akg::PoolImpl::kDirect, 0.30},
    {SmallKind::kPool, 8, 28, 3, 2, dv::akg::PoolImpl::kIm2col, 0.22},
    {SmallKind::kPool, 18, 35, 3, 2, dv::akg::PoolImpl::kIm2col, 0.16},
    {SmallKind::kPool, 4, 56, 3, 2, dv::akg::PoolImpl::kIm2col, 0.12},
    {SmallKind::kMask, 4, 56, 3, 2, dv::akg::PoolImpl::kIm2col, 0.12},
    {SmallKind::kGlobal, 64, 8, 0, 0, dv::akg::PoolImpl::kIm2col, 0.08},
};
constexpr std::size_t kNumSmallShapes = std::size(kSmallShapes);
constexpr kn::PoolOpKind kPoolKinds[] = {
    kn::PoolOpKind::kMaxFwd, kn::PoolOpKind::kAvgFwd, kn::PoolOpKind::kMinFwd};
// Distinct input tensors per shape (requests share them read-only).
constexpr std::size_t kTensorsPerShape = 4;

}  // namespace

Workload make_small_open(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "small_open";
  serving_options(w);
  // Closed-loop replays of this stream (the traced run) launch each
  // request alone, as the open loop does at this rate.
  w.window = 1;

  const auto t0 = Clock::now();
  w.data.reserve(kNumSmallShapes * kTensorsPerShape);
  std::vector<sv::TraceEntry> shape_entry(kNumSmallShapes);
  for (std::size_t s = 0; s < kNumSmallShapes; ++s) {
    const SmallShape& sh = kSmallShapes[s];
    sv::TraceEntry& e = shape_entry[s];
    e.n = 1;
    e.c1 = sh.c1;
    e.ih = e.iw = sh.hw;
    switch (sh.kind) {
      case SmallKind::kPool:
        e.op.kind = kn::PoolOpKind::kMaxFwd;
        break;
      case SmallKind::kMask:
        e.op.kind = kn::PoolOpKind::kMaxMaskFwd;
        break;
      case SmallKind::kGlobal:
        e.op.kind = kn::PoolOpKind::kGlobalAvg;
        break;
    }
    if (sh.kind != SmallKind::kGlobal) e.op.window = dv::Window2d::pool(sh.k, sh.s);
    e.op.fwd = sh.impl;
    for (std::size_t j = 0; j < kTensorsPerShape; ++j) {
      w.data.push_back(sv::materialize(e, seed * 1000003ull + s * 1000 + j));
    }
  }
  w.materialize_ms = 1e3 * seconds_since(t0);

  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kSmallOpenRate * seconds)));
  // Every request's lifecycle events must fit the session's event ring:
  // the open loop reads each request's submit and completion times there.
  w.session.request_trace_capacity = 16 * n + 1024;
  dv::Xoshiro256 rng(seed);
  w.requests.reserve(n);
  w.due_s.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.next_double()) / kSmallOpenRate;
    w.due_s.push_back(t);
    double u = rng.next_double();
    std::size_t s = 0;
    while (s + 1 < kNumSmallShapes && u >= kSmallShapes[s].weight) {
      u -= kSmallShapes[s].weight;
      ++s;
    }
    const std::size_t kind =
        kSmallShapes[s].kind == SmallKind::kPool ? rng.next_below(3) : 0;
    const std::size_t j = rng.next_below(kTensorsPerShape);
    kn::PoolOp op = shape_entry[s].op;
    if (kSmallShapes[s].kind == SmallKind::kPool) op.kind = kPoolKinds[kind];
    const std::size_t ref = (s * 3 + kind) * kTensorsPerShape + j;
    w.requests.push_back(
        Request{op, w.data[s * kTensorsPerShape + j].inputs(), ref});
  }
  w.refs = kNumSmallShapes * 3 * kTensorsPerShape;
  return w;
}

PassResult run_closed_pass(sv::Session& s, const Workload& w,
                           const Verifier* v) {
  PassResult p;
  const std::size_t n = w.requests.size();
  p.submit_us.reserve(n);
  std::vector<std::int64_t> ids(n, -1);
  std::vector<std::future<kn::PoolResult>> futures;
  for (std::size_t begin = 0; begin < n; begin += w.window) {
    const std::size_t end = std::min(n, begin + w.window);
    futures.clear();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    s.pause();
    for (std::size_t i = begin; i < end; ++i) {
      const auto ts = Clock::now();
      sv::SubmitOptions sub;
      sub.trace_id = &ids[i];
      futures.push_back(s.submit(w.requests[i].op, w.requests[i].in, sub));
      p.submit_us.push_back(1e6 * seconds_since(ts));
    }
    s.resume();
    s.drain();
    p.window_wall_s.push_back(seconds_since(t0));
    p.window_cpu_s.push_back(process_cpu_s() - cpu0);
    p.wall_s += p.window_wall_s.back();
    p.cpu_s += p.window_cpu_s.back();
    for (std::size_t i = begin; i < end; ++i) {
      try {
        const kn::PoolResult r = futures[i - begin].get();
        if (v != nullptr && !v->check(w.requests[i], r)) ++p.mismatched;
      } catch (const std::exception&) {
        ++p.failed;
      }
    }
  }
  p.attempted = static_cast<std::int64_t>(n);
  p.stats = s.stats();
  p.latency_ms = ring_latency_ms(s, ids);
  s.reset_stats();
  return p;
}

OpenLoopResult run_open_loop(sv::Session& s, const Workload& w,
                             const Verifier* v) {
  const std::size_t n = w.requests.size();
  OpenLoopResult out;
  out.attempted = static_cast<std::int64_t>(n);
  out.late_ms.resize(n);
  out.submit_us.resize(n);
  std::vector<std::int64_t> ids(n, -1);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::future<kn::PoolResult>> futures(n);  // guarded by mu
  std::size_t submitted = 0;                            // guarded by mu

  // The waiter resolves futures in submission order; its checking CPU is
  // benchmark overhead and is subtracted from the process CPU below.
  double check_cpu_s = 0.0;
  Clock::time_point last_done;
  std::thread waiter([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::future<kn::PoolResult> f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > i; });
        f = std::move(futures[i]);
      }
      try {
        const kn::PoolResult r = f.get();
        const double c0 = thread_cpu_s();
        if (v != nullptr && !v->check(w.requests[i], r)) ++out.mismatched;
        check_cpu_s += thread_cpu_s() - c0;
      } catch (const std::exception&) {
        ++out.failed;
      }
    }
    last_done = Clock::now();
  });

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const double cpu0 = process_cpu_s();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(w.due_s[i]));
    std::this_thread::sleep_until(due);
    const auto ts = Clock::now();
    out.late_ms[i] = 1e3 * std::chrono::duration<double>(ts - due).count();
    sv::SubmitOptions sub;
    sub.trace_id = &ids[i];
    std::future<kn::PoolResult> f;
    try {
      f = s.submit(w.requests[i].op, w.requests[i].in, sub);
    } catch (...) {
      std::promise<kn::PoolResult> failed;
      failed.set_exception(std::current_exception());
      f = failed.get_future();
    }
    out.submit_us[i] = 1e6 * seconds_since(ts);
    {
      std::lock_guard<std::mutex> lock(mu);
      futures[i] = std::move(f);
      submitted = i + 1;
    }
    cv.notify_one();
  }
  waiter.join();
  // A future resolves before the worker finishes its bookkeeping for the
  // launch; the statistics are complete (and resettable) once it is idle.
  s.drain();
  out.wall_s = std::chrono::duration<double>(last_done - start).count();
  out.cpu_s = process_cpu_s() - cpu0 - check_cpu_s;
  out.stats = s.stats();

  // Latency from the due time: the submit call's lateness plus the
  // session's own submitted -> completed interval.
  out.latency_ms = ring_latency_ms(s, ids);
  for (std::size_t i = 0; i < n; ++i) out.latency_ms[i] += out.late_ms[i];
  s.reset_stats();
  return out;
}

}  // namespace perfbench
