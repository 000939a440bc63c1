// perfbench: the serving benchmark (see ../README.md).
//
//   perfbench --workload mix_d1|mix_d4|small_open --seed N --seconds S
//             --trace 0|1 [--baseline FILE] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// replay and reports the per-layer metrics. --baseline names the
// davinci_serve report (bench/baselines/serve_cluster.json) that mix_d1
// must reproduce; --spans is where the traced run writes its spans.
//
// Progress goes to stderr. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
// every check passed, 1 when a check failed (the result is still
// printed), 2 on bad usage or a benchmark error (nothing printed).
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.h"
#include "common/json.h"
#include "sim/pipe_schedule.h"
#include "tensor/arena.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kCiSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string baseline;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0 && a->seconds <= 600.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--baseline") {
      a->baseline = val;
    } else if (key == "--spans") {
      a->spans = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (a->workload == "mix_d1" || a->workload == "mix_d4" ||
          a->workload == "small_open");
}

// Failed checks are reported on stderr and turn "correct" false.
struct Checks {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + dv::json::number(value) +
             ", \"unit\": \"" + unit + "\"}";
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

// The davinci_serve "total" row mix_d1 at the CI seed must reproduce:
// gated cycles (the VM makespan on one device) and the per-launch sum.
struct Baseline {
  std::int64_t cycles = 0, cycles_sum = 0;
};

Baseline read_baseline(const std::string& path) {
  std::ifstream f(path);
  DV_CHECK(f.good()) << "cannot read baseline " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const dv::json::Value doc = dv::json::parse(ss.str());
  for (const dv::json::Value& row : doc.get("rows")->as_array()) {
    if (row.get("name")->as_string() != "total") continue;
    return Baseline{row.get("cycles")->as_int(), row.get("cycles_sum")->as_int()};
  }
  throw dv::Error("baseline " + path + " has no total row");
}

void expect_baseline(const Baseline& b, const sv::SessionStats& s, Checks& c) {
  c.expect(s.vm.makespan == b.cycles,
           "CI trace VM makespan " + std::to_string(s.vm.makespan) +
               " != baseline " + std::to_string(b.cycles));
  c.expect(s.device_cycles_total == b.cycles_sum,
           "CI trace cycle sum " + std::to_string(s.device_cycles_total) +
               " != baseline " + std::to_string(b.cycles_sum));
}

Workload make_workload(const Args& a, double arrival_s) {
  if (a.workload == "mix_d1") return make_mix(1, a.seed);
  if (a.workload == "mix_d4") return make_mix(4, a.seed);
  return make_small_open(a.seed, arrival_s);
}

// A workload with its session, ready for the first timed request.
struct Prepared {
  Workload w;
  std::unique_ptr<sv::Session> session;
};

// Set-up: input generation, session and cluster construction, and a
// warm-up whose statistics are then discarded. The warm-up sends one
// request of every distinct operator and geometry in the workload, in a
// fixed order, so every plan is cached, the tensor arena holds every
// shape and the device thread pools run -- the same work at every seed.
// Starts from an empty tensor arena so every set-up pays the same
// allocation cost.
Prepared set_up(const Args& a, double arrival_s) {
  dv::TensorArena::global().trim();
  Prepared p{make_workload(a, arrival_s), nullptr};
  p.session = std::make_unique<sv::Session>(sv::Cluster(p.w.cluster), p.w.session);
  std::map<std::string, std::size_t> distinct;  // op and shape -> request
  for (std::size_t i = 0; i < p.w.requests.size(); ++i) {
    const Request& q = p.w.requests[i];
    const dv::TensorF16& t = q.in.in != nullptr ? *q.in.in : *q.in.grad;
    std::string key = q.op.to_string();
    for (int d = 0; d < t.shape().rank(); ++d) key += " " + std::to_string(t.shape()[d]);
    distinct.emplace(key, i);
  }
  // Submitted into a paused queue, released every queue_depth requests
  // so submit never blocks on a full paused queue.
  std::vector<std::future<kn::PoolResult>> futures;
  p.session->pause();
  for (const auto& [key, i] : distinct) {
    futures.push_back(p.session->submit(p.w.requests[i].op, p.w.requests[i].in));
    if (futures.size() % p.w.session.queue_depth == 0) {
      p.session->resume();
      p.session->drain();
      p.session->pause();
    }
  }
  p.session->resume();
  p.session->drain();
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const std::exception&) {
      // Warm-up outcomes are not measured; the timed run checks everything.
    }
  }
  p.session->reset_stats();
  return p;
}

double ms(double us) { return us / 1e3; }

// Replays the CI trace verbatim once and checks its cycles against the
// committed baseline (mix_d1 at any seed other than the CI seed, whose
// timed passes are checked directly).
void check_ci_trace(const Baseline& b, Checks& c) {
  Workload ci = make_mix(1, kCiSeed);
  sv::Session s(sv::Cluster(ci.cluster), ci.session);
  const PassResult p = run_closed_pass(s, ci, nullptr);
  c.expect(p.failed == 0, "CI trace replay had failed requests");
  expect_baseline(b, p.stats, c);
}

// ---- --trace 0: end-to-end metrics ------------------------------------

struct Outcome {
  std::int64_t attempted = 0, failed = 0;
};

// Host times are reported at the reference host speed: scaled by
// kProbeRefS over the median of the run's probes (`probes`: one before
// every set-up and every timed pass, and one on each side of the open
// loop). The probe wanders by ~15% from one call to the next, and the
// host by up to 2x over minutes; the median of a run's probes follows
// the second.
Outcome end_to_end(const Args& a, Prepared& p, const Verifier& v,
                   const Baseline* baseline, double setup_s,
                   std::vector<double>& probes, Checks& c, Metrics& m) {
  Outcome o;
  sv::Session& s = *p.session;
  if (p.w.open_loop()) {
    probes.push_back(host_probe_s());
    const OpenLoopResult r = run_open_loop(s, p.w, &v);
    probes.push_back(host_probe_s());
    const double scale = kProbeRefS / median(probes);
    std::fprintf(stderr, "perfbench: open loop %.3f s wall, %.3f s cpu; probe median %.3f ms\n",
                 r.wall_s, r.cpu_s, 1e3 * median(probes));
    o.attempted = r.attempted;
    o.failed = r.failed;
    c.expect(r.mismatched == 0,
             std::to_string(r.mismatched) + " outputs differ from the reference");
    const double completed = static_cast<double>(r.stats.completed);
    m.add("setup_s", setup_s * scale, "s");
    // The offered rate while the session keeps up: not a host time.
    m.add("host_req_per_s", completed / r.wall_s, "req/s");
    m.add("host_cpu_ms_per_req", 1e3 * r.cpu_s * scale / completed, "ms");
    m.add("sim_cycles", static_cast<double>(r.stats.device_cycles_total), "cycles");
    m.add("sim_makespan_cycles", static_cast<double>(r.stats.vm.makespan), "cycles");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    return o;
  }

  // Closed loop: whole passes over the workload until the budget is
  // spent (at least three). Every pass replays the same windows, so each
  // window's time is taken as its median over passes: a stall that hits
  // one pass does not move the result.
  std::vector<std::vector<double>> window_wall, window_cpu;
  std::vector<double> completed;
  std::int64_t cycles = -1, makespan = -1, launches = -1;
  const auto t0 = Clock::now();
  while (completed.size() < 3 || seconds_since(t0) < a.seconds) {
    probes.push_back(host_probe_s());
    const PassResult r = run_closed_pass(s, p.w, &v);
    o.attempted += r.attempted;
    o.failed += r.failed;
    c.expect(r.mismatched == 0,
             std::to_string(r.mismatched) + " outputs differ from the reference");
    completed.push_back(static_cast<double>(r.stats.completed));
    window_wall.resize(r.window_wall_s.size());
    window_cpu.resize(r.window_cpu_s.size());
    for (std::size_t i = 0; i < r.window_wall_s.size(); ++i) {
      window_wall[i].push_back(r.window_wall_s[i]);
      window_cpu[i].push_back(r.window_cpu_s[i]);
    }
    std::fprintf(stderr, "perfbench: pass %zu: %.3f s wall, %.3f s cpu, probe %.3f ms\n",
                 completed.size(), r.wall_s, r.cpu_s, 1e3 * probes.back());
    if (cycles < 0) {
      cycles = r.stats.device_cycles_total;
      makespan = r.stats.vm.makespan;
      launches = r.stats.launches;
    }
    c.expect(r.stats.device_cycles_total == cycles && r.stats.vm.makespan == makespan &&
                 r.stats.launches == launches,
             "a pass did not repeat the first pass's launches and cycles");
    if (baseline != nullptr) expect_baseline(*baseline, r.stats, c);
  }
  std::fprintf(stderr, "perfbench: %zu timed passes, %.1f s\n", completed.size(),
               seconds_since(t0));
  double wall_s = 0.0, cpu_s = 0.0;
  for (std::size_t i = 0; i < window_wall.size(); ++i) {
    wall_s += median(window_wall[i]);
    cpu_s += median(window_cpu[i]);
  }
  const double done = median(completed);
  const double scale = kProbeRefS / median(probes);
  std::fprintf(stderr,
               "perfbench: measured set-up %.3f s, %.2f req/s, %.3f ms cpu/req; "
               "probe median %.3f ms\n",
               setup_s, done / wall_s, 1e3 * cpu_s / done, 1e3 * median(probes));
  m.add("setup_s", setup_s * scale, "s");
  m.add("host_req_per_s", done / (wall_s * scale), "req/s");
  m.add("host_cpu_ms_per_req", 1e3 * cpu_s * scale / done, "ms");
  m.add("sim_cycles", static_cast<double>(cycles), "cycles");
  m.add("sim_makespan_cycles", static_cast<double>(makespan), "cycles");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  return o;
}

// ---- --trace 1: per-layer metrics -------------------------------------

std::string pipe_name(int pipe) {
  std::string s = dv::to_string(static_cast<dv::Pipe>(pipe));
  for (char& ch : s) ch = ch == '-' ? '_' : static_cast<char>(std::tolower(ch));
  return s;
}

Outcome per_layer(const Args& a, Prepared& p, const Verifier& v,
                  const Baseline* baseline, Checks& c, Metrics& m) {
  Outcome o;
  sv::Session& s = *p.session;
  const Workload& w = p.w;
  dv::TensorArena::global().reset_stats();

  // Load-generator view of the session: the open loop itself for
  // small_open, an untraced closed-loop pass for the mixes.
  sv::SessionStats load_stats;
  std::vector<double> submit_us, late_ms, latency_ms;
  double failed_frac = 0.0, load_wall_s = 0.0;
  if (w.open_loop()) {
    const OpenLoopResult r = run_open_loop(s, w, &v);
    o.attempted += r.attempted;
    o.failed += r.failed;
    c.expect(r.mismatched == 0, "open-loop outputs differ from the reference");
    c.expect(r.stats.request_trace.dropped == 0, "request event ring overflowed");
    load_stats = r.stats;
    submit_us = r.submit_us;
    late_ms = r.late_ms;
    latency_ms = r.latency_ms;
    load_wall_s = r.wall_s;
    failed_frac = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  }

  // Untraced closed-loop passes over the same windows the replay runs.
  std::vector<double> untraced_wall;
  PassResult untraced;
  const auto t0 = Clock::now();
  while (untraced_wall.empty() || seconds_since(t0) < a.seconds / 4) {
    untraced = run_closed_pass(s, w, &v);
    o.attempted += untraced.attempted;
    o.failed += untraced.failed;
    c.expect(untraced.mismatched == 0, "outputs differ from the reference");
    if (baseline != nullptr) expect_baseline(*baseline, untraced.stats, c);
    untraced_wall.push_back(untraced.wall_s);
  }
  std::fprintf(stderr, "perfbench: untraced closed-loop pass %.3f s (%.1f req/s)\n",
               median(untraced_wall),
               static_cast<double>(w.requests.size()) / median(untraced_wall));
  const dv::TensorArena::Stats arena = dv::TensorArena::global().stats();
  if (!w.open_loop()) {
    load_stats = untraced.stats;
    submit_us = untraced.submit_us;
    late_ms.assign(1, 0.0);  // closed loop: nothing is ever due
    latency_ms = untraced.latency_ms;
    load_wall_s = untraced.wall_s;
    failed_frac = static_cast<double>(untraced.failed) /
                  static_cast<double>(untraced.attempted);
  }

  const int passes = static_cast<int>(untraced_wall.size());
  const ReplayResult rr = traced_replay(w, v, passes);
  o.attempted += rr.requests;
  o.failed += rr.failed;
  c.expect(rr.mismatched == 0, "traced replay outputs differ from the reference");
  c.expect(rr.host_buckets_exact,
           "a launch's host phases do not sum to its host_ns");
  c.expect(rr.repeatable, "traced replay passes differ");
  c.expect(rr.launches == untraced.stats.launches,
           "traced replay launches " + std::to_string(rr.launches) +
               " != session launches " + std::to_string(untraced.stats.launches));
  c.expect(rr.device_cycles == untraced.stats.device_cycles_total,
           "traced replay cycles " + std::to_string(rr.device_cycles) +
               " != session cycles " +
               std::to_string(untraced.stats.device_cycles_total));
  if (!a.spans.empty()) write_spans(a.spans, rr.spans);

  const UnitCosts u = measure_unit_costs(std::max(0.5, a.seconds / 8));

  const double per_pass = 1.0 / static_cast<double>(rr.passes);
  const double nsms = 1e-6 * per_pass;  // summed ns -> ms per pass
  const sv::SessionStats& ls = load_stats;
  const sv::SessionStats& us = untraced.stats;

  // serve
  m.add("serve.launches", static_cast<double>(ls.launches), "count");
  m.add("serve.avg_batch", ls.avg_batch, "req/launch");
  m.add("serve.queue_wait_ms_p50", ms(ls.queue_wait_exact.p50), "ms");
  m.add("serve.queue_wait_ms_p99", ms(ls.queue_wait_exact.p99), "ms");
  m.add("serve.submit_us_p50", percentile(submit_us, 0.5), "us");
  m.add("serve.plan_cache.hit_rate", ls.plan_cache.hit_rate(), "ratio");
  m.add("serve.plan_cache.hits", static_cast<double>(ls.plan_cache.hits), "count");
  m.add("serve.plan_cache.misses", static_cast<double>(ls.plan_cache.misses), "count");
  m.add("serve.plan_cache.get_us",
        rr.plan_gets > 0 ? 1e-3 * rr.plan_get_ns / static_cast<double>(rr.plan_gets) : 0.0,
        "us");
  m.add("serve.batcher.form_ms", rr.form_ns * nsms, "ms");
  m.add("serve.batcher.coalesce_ms", rr.coalesce_ns * nsms, "ms");
  m.add("serve.batcher.split_ms", rr.split_ns * nsms, "ms");
  m.add("serve.batcher.copy_bytes", static_cast<double>(rr.copy_bytes) * per_pass, "bytes");

  // serve (cluster)
  m.add("cluster.run_pool_ms", rr.run_pool_ns * nsms, "ms");
  m.add("cluster.self_ms", (rr.run_pool_ns - rr.run_pool_host_ns) * nsms, "ms");
  m.add("cluster.sharded_launches", static_cast<double>(rr.cluster.sharded_launches), "count");
  m.add("cluster.redistribution_bytes",
        static_cast<double>(rr.cluster.redistribution_bytes), "bytes");
  m.add("cluster.redistribution_cycles",
        static_cast<double>(rr.cluster.redistribution_cycles), "cycles");
  m.add("cluster.link_busy_cycles", static_cast<double>(rr.cluster.link_busy_cycles), "cycles");
  // A lower bound (busiest device vs busiest link), not a schedule.
  m.add("cluster.roofline_cycles", static_cast<double>(us.cluster_makespan), "cycles");
  std::int64_t dmin = std::numeric_limits<std::int64_t>::max(), dmax = 0;
  for (const sv::Cluster::DeviceStats& d : rr.cluster.devices) {
    dmin = std::min(dmin, d.cycles);
    dmax = std::max(dmax, d.cycles);
  }
  m.add("cluster.device_cycle_balance",
        dmax > 0 ? static_cast<double>(dmin) / static_cast<double>(dmax) : 1.0, "ratio");

  // kernels
  m.add("kernels.host_alloc_ms", rr.host_alloc_ns * nsms, "ms");
  m.add("kernels.host_plan_ms", rr.host_plan_ns * nsms, "ms");
  m.add("kernels.host_validate_ms", rr.host_validate_ns * nsms, "ms");
  m.add("kernels.host_execute_ms", rr.host_execute_ns * nsms, "ms");
  m.add("kernels.fwd.execute_ms", rr.fwd_execute_ns * nsms, "ms");
  m.add("kernels.bwd.execute_ms", rr.bwd_execute_ns * nsms, "ms");

  // sim: deterministic unit counts per pass, unit host costs, and their
  // product (the host time each unit's instructions should account for).
  const dv::CycleStats& k = rr.units;
  m.add("sim.vector.instrs", static_cast<double>(k.vector_instrs), "count");
  m.add("sim.vector.repeats", static_cast<double>(k.vector_repeats), "count");
  m.add("sim.vector.lane_util", k.lane_utilization(), "ratio");
  m.add("sim.scu.im2col_fractals", static_cast<double>(k.im2col_fractals), "count");
  m.add("sim.scu.col2im_fractals", static_cast<double>(k.col2im_fractals), "count");
  m.add("sim.mte.bytes", static_cast<double>(k.mte_bytes), "bytes");
  m.add("sim.vector.vadd_host_ns_per_lane", u.vadd_ns_per_lane, "ns");
  m.add("sim.vector.vmax_host_ns_per_lane", u.vmax_ns_per_lane, "ns");
  m.add("sim.scu.im2col_host_ns_per_fractal", u.im2col_ns_per_fractal, "ns");
  m.add("sim.scu.col2im_host_ns_per_fractal", u.col2im_ns_per_fractal, "ns");
  m.add("sim.mte.host_ns_per_kb", u.mte_ns_per_kb, "ns");
  m.add("sim.vector.est_cpu_ms",
        1e-6 * u.vadd_ns_per_lane * static_cast<double>(k.vector_active_lanes), "ms");
  m.add("sim.scu.im2col_est_cpu_ms",
        1e-6 * u.im2col_ns_per_fractal * static_cast<double>(k.im2col_fractals), "ms");
  m.add("sim.scu.col2im_est_cpu_ms",
        1e-6 * u.col2im_ns_per_fractal * static_cast<double>(k.col2im_fractals), "ms");
  m.add("sim.mte.est_cpu_ms",
        1e-6 * u.mte_ns_per_kb * static_cast<double>(k.mte_bytes) / 1024.0, "ms");

  // sim/vm: the untraced closed-loop pass's cross-launch stream.
  m.add("vm.overlap_cycles", static_cast<double>(us.vm.overlap_cycles), "cycles");
  m.add("vm.window_stalls", static_cast<double>(us.vm.window_stalls), "count");
  m.add("vm.hazard_stalls", static_cast<double>(us.vm.hazard_stalls), "count");
  for (int pi = 0; pi < dv::PipeScheduler::kNumPipes; ++pi) {
    const auto& ps = us.vm.streams[pi];
    const std::string base = "vm.pipe." + pipe_name(pi);
    m.add(base + ".busy_cycles", static_cast<double>(ps.busy), "cycles");
    m.add(base + ".wait_cycles", static_cast<double>(ps.wait), "cycles");
    m.add(base + ".idle_cycles", static_cast<double>(ps.idle), "cycles");
  }

  // tensor
  m.add("tensor.materialize_ms", w.materialize_ms, "ms");
  const double acquires = static_cast<double>(arena.allocs + arena.reuses);
  m.add("tensor.arena.reuse_rate",
        acquires > 0 ? static_cast<double>(arena.reuses) / acquires : 0.0, "ratio");
  m.add("tensor.arena.peak_pooled_mb",
        static_cast<double>(arena.peak_pooled_bytes) / (1024.0 * 1024.0), "MB");

  // load generator
  m.add("loadgen.sent", static_cast<double>(w.requests.size()), "count");
  // A failed request counts as a miss: as late as the whole run.
  for (double& l : latency_ms) {
    if (!std::isfinite(l)) l = 1e3 * load_wall_s;
  }
  m.add("loadgen.latency_p50_ms", percentile(latency_ms, 0.50), "ms");
  m.add("loadgen.latency_p99_ms", percentile(latency_ms, 0.99), "ms");
  m.add("loadgen.late_ms_p99", percentile(late_ms, 0.99), "ms");
  m.add("loadgen.failed_frac", failed_frac, "ratio");

  m.add("trace.wall_ratio", rr.wall_s / (median(untraced_wall) * rr.passes), "ratio");
  return o;
}

int run(const Args& a) {
  Checks checks;
  std::optional<Baseline> baseline;
  if (a.workload == "mix_d1") {
    DV_CHECK(!a.baseline.empty()) << "mix_d1 needs --baseline";
    baseline = read_baseline(a.baseline);
    if (a.seed != kCiSeed) check_ci_trace(*baseline, checks);
  }
  const Baseline* timed_baseline =
      a.seed == kCiSeed && baseline.has_value() ? &*baseline : nullptr;

  // The traced run splits its budget between the open loop and the
  // closed-loop passes it compares against the replay.
  const double arrival_s = a.trace ? a.seconds / 2 : a.seconds;

  // The untimed work above and the reference outputs use every CPU; the
  // inputs are made again by each set-up, identically for the seed.
  const auto tv = Clock::now();
  Verifier v;
  v.prepare(make_workload(a, arrival_s));
  std::fprintf(stderr, "perfbench: references %.3f s\n", seconds_since(tv));

  // Set-up and the timed region run confined; every thread of the
  // session and its devices starts after this and inherits it.
  const std::vector<int> cpus = pin_to_cpus(kHostCpus);
  if (cpus.empty()) {
    std::fprintf(stderr, "perfbench: cannot set the CPU affinity; running unconfined\n");
  } else {
    std::fprintf(stderr, "perfbench: on host CPUs");
    for (int c : cpus) std::fprintf(stderr, " %d", c);
    std::fprintf(stderr, "\n");
  }
  // At least five set-ups and two seconds of them: small_open sets up in
  // under 0.1 s, where one hiccup would move a median of five.
  constexpr std::size_t kSetUps = 5;
  constexpr double kSetUpSeconds = 2.0;
  std::vector<double> setup_s, probes;
  Prepared p;
  for (double spent = 0.0; setup_s.size() < kSetUps || spent < kSetUpSeconds;
       spent += setup_s.back()) {
    p.session.reset();  // release the previous set-up first
    p = Prepared{};
    probes.push_back(host_probe_s());
    const auto t0 = Clock::now();
    p = set_up(a, arrival_s);
    setup_s.push_back(seconds_since(t0));
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu requests, set-up",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               p.w.requests.size());
  for (double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, " s\n");
  // Peak memory covers the measured serving only, not the reference
  // checker's transient tensors.
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS; reporting the lifetime peak\n");
  }

  Metrics m;
  const Outcome o = a.trace ? per_layer(a, p, v, timed_baseline, checks, m)
                            : end_to_end(a, p, v, timed_baseline, median(setup_s),
                                         probes, checks, m);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              checks.ok ? "true" : "false", static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed), m.json().c_str());
  std::fflush(stdout);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload mix_d1|mix_d4|small_open --seed N "
                 "--seconds S --trace 0|1 [--baseline FILE] [--spans FILE]\n");
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
