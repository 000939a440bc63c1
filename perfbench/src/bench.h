// Shared types of the serving benchmark (see ../README.md for the
// workloads, the metrics and what each one should move).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kernels/pooling.h"
#include "serve/cluster.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "sim/stats.h"

namespace perfbench {

namespace dv = davinci;
namespace kn = davinci::kernels;
namespace sv = davinci::serve;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Starts a new peak-RSS window; false where the OS does not support it
// (peak_rss_mb then reports the whole process lifetime).
bool reset_peak_rss();
// Peak resident set size of the process since the last reset_peak_rss(),
// in MB.
double peak_rss_mb();

// Host CPUs set-up and the timed region run on. The device's thread pool
// starts one worker per hardware thread and joins them on every launch,
// so on all cores of a shared VM each launch waits for the most delayed
// vCPU and the wall time follows the neighbours (see ../README.md).
inline constexpr int kHostCpus = 1;
// Restricts the calling thread, and every thread it starts afterwards,
// to the first `n` CPUs it may run on; returns the CPUs chosen, empty
// when the OS refused (the benchmark then runs unconfined).
std::vector<int> pin_to_cpus(int n);

// Seconds a fixed round of benchmark-owned work takes on this CPU now
// (probe.cc), median of five timings.
double host_probe_s();
// host_probe_s() on the reference host, the 4-vCPU x86 VM the bounds were
// set on. The gated host times are scaled by kProbeRefS over the median
// probe of their run: they are reported in reference-host seconds.
inline constexpr double kProbeRefS = 0.0025;

// The median of `v` (0 for an empty set); reorders `v`.
double median(std::vector<double> v);
// Linear-interpolation percentile, q in [0, 1]; reorders `v`.
double percentile(std::vector<double> v, double q);

// One request as the load generator submits it. Inputs point into
// Workload::data and stay alive for the workload's lifetime.
struct Request {
  kn::PoolOp op;
  kn::PoolInputs in;
  std::size_t ref = 0;  // expected-output slot in Verifier
};

// A workload's generated inputs: what the submitter sends, how, and to
// which cluster. The program under test only ever sees `requests`.
struct Workload {
  std::string name;
  sv::ClusterOptions cluster;
  sv::SessionOptions session;
  // Closed loop: requests are submitted `window` at a time into a paused
  // queue, then the queue is released and drained before the next window.
  // Open loop (due_s non-empty): request i is due due_s[i] seconds after
  // the run starts, whatever the backlog.
  std::size_t window = 64;
  std::vector<double> due_s;
  std::vector<sv::MaterializedRequest> data;
  std::vector<Request> requests;
  std::size_t refs = 0;  // distinct expected outputs
  double materialize_ms = 0.0;

  bool open_loop() const { return !due_s.empty(); }
};

// The CI cluster trace (davinci_tracegen --requests=256 --seed=11
// --burst=6 --max-n=8) on `devices` data-parallel devices. Seed 11 is the
// trace and input data davinci_serve replays in CI; any other seed
// replays the same admission windows in a seeded order with reseeded
// tensors.
inline constexpr std::uint64_t kCiSeed = 11;
Workload make_mix(int devices, std::uint64_t seed);

// Open-loop Poisson arrivals of small forward n=1 requests over a skewed
// set of hot shapes; `seconds` of arrivals at kSmallOpenRate. The rate is
// a constant near a third of the sequential capacity of a 4-core x86 host
// (see ../README.md), so the queue stays short and latency measures
// per-launch fixed cost rather than backlog.
inline constexpr double kSmallOpenRate = 250.0;  // requests per second
Workload make_small_open(std::uint64_t seed, double seconds);

// Expected outputs. The reference (src/ref/) output of every distinct
// request is computed once, outside the timed region, and kept as a
// 64-bit digest of its bytes; every result is checked bit for bit by
// digesting its bytes. The one exception is AvgPool backward on a
// height-tiled plan with an inexact scale, which the kernels only match
// within one ulp at tile seams (see verify.cc); its reference tensor is
// kept and compared element by element within that bound.
class Verifier {
 public:
  // Computes the reference digest of every request of `w`.
  void prepare(const Workload& w);
  // True when `r` matches the reference for `req`.
  bool check(const Request& req, const kn::PoolResult& r) const;

 private:
  std::vector<std::uint64_t> want_;
  std::vector<std::optional<dv::TensorF16>> within_ulp_;
};

// Counters and times of one closed-loop pass through a serve::Session.
struct PassResult {
  double wall_s = 0.0;  // submit + drain, summed over windows
  double cpu_s = 0.0;   // process CPU over the same intervals
  std::vector<double> window_wall_s, window_cpu_s;  // per window
  std::vector<double> latency_ms;  // per request: submitted -> completed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;      // futures that resolved with an error
  std::int64_t mismatched = 0;  // outputs that differ from the reference
  std::vector<double> submit_us;
  sv::SessionStats stats;
};

// Replays `w` once through `s` (closed loop), verifying every output
// against `v` (when non-null) after each window with the clock stopped,
// then resets the session's statistics.
PassResult run_closed_pass(sv::Session& s, const Workload& w,
                           const Verifier* v);

// Open-loop run: one submitter thread (this one) submits each request at
// its due time; one waiter thread blocks on the futures in order.
struct OpenLoopResult {
  double wall_s = 0.0;   // first due time -> last future resolved
  double cpu_s = 0.0;    // process CPU minus the waiter's checking CPU
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  std::vector<double> latency_ms;  // due -> resolved; failed = +inf
  std::vector<double> late_ms;     // submit call start - due
  std::vector<double> submit_us;
  sv::SessionStats stats;
};
OpenLoopResult run_open_loop(sv::Session& s, const Workload& w,
                             const Verifier* v);

// --- Traced replay -------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  double start_us = 0.0, end_us = 0.0;
  int parent = -1;             // index into the span list, -1 = root
  std::int64_t request = -1;   // first member's request index, -1 = none
};

// Per-layer totals of the staged replay (serve::form_batches ->
// serve::coalesce -> PlanCache::get -> Cluster::run_pool ->
// serve::split_result), summed over every replayed pass.
struct ReplayResult {
  double wall_s = 0.0;  // stage time, verification excluded
  std::int64_t passes = 0;
  std::int64_t requests = 0;
  std::int64_t launches = 0;          // per pass
  std::int64_t device_cycles = 0;     // per pass: sum of launch cycles
  std::int64_t failed = 0, mismatched = 0;
  bool host_buckets_exact = true;     // alloc+plan+validate+execute == host
  bool repeatable = true;  // every pass repeated pass 1's launches and cycles
  double form_ns = 0, coalesce_ns = 0, split_ns = 0;
  double plan_get_ns = 0;
  std::int64_t plan_gets = 0;
  double run_pool_ns = 0, run_pool_host_ns = 0;
  double host_alloc_ns = 0, host_plan_ns = 0, host_validate_ns = 0,
         host_execute_ns = 0, fwd_execute_ns = 0, bwd_execute_ns = 0;
  std::int64_t copy_bytes = 0;  // coalesce + split memcpy, from tensor sizes
  dv::CycleStats units;         // per pass, summed over launches
  sv::PlanCache::Stats plan_cache;
  sv::Cluster::Stats cluster;   // per pass
  std::vector<SpanRecord> spans;
};

// Replays `w`'s admission windows `passes` times stage by stage through
// the serving layers' public functions on a fresh cluster.
ReplayResult traced_replay(const Workload& w, const Verifier& v, int passes);

// Writes `spans` as Chrome trace-event JSON (self time in args).
void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans);

// --- Per-unit host cost ---------------------------------------------------

// Host nanoseconds per unit of work of each simulated unit, timed on
// fixed Unified-Buffer-sized spans outside any kernel.
struct UnitCosts {
  double vadd_ns_per_lane = 0, vmax_ns_per_lane = 0;
  double im2col_ns_per_fractal = 0, col2im_ns_per_fractal = 0;
  double mte_ns_per_kb = 0;
};
UnitCosts measure_unit_costs(double budget_s);

}  // namespace perfbench
