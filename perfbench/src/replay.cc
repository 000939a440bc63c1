// The traced replay: a closed-loop workload's admission windows pushed
// through the serving layers' public stages in the order the session's
// worker runs them, with a span around every stage call. Spans are
// recorded here, around the calls into each layer; the program itself is
// not instrumented.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "common/check.h"
#include "serve/batcher.h"
#include "serve/plan_cache.h"
#include "sim/vm/stream.h"

namespace perfbench {
namespace {

// Appends spans to a list; times are microseconds since construction.
class Tracer {
 public:
  explicit Tracer(std::vector<SpanRecord>* out)
      : out_(out), epoch_(Clock::now()) {}

  int open(const char* name, int parent, std::int64_t request) {
    out_->push_back(SpanRecord{name, now_us(), 0.0, parent, request});
    return static_cast<int>(out_->size()) - 1;
  }
  // Closes span `id`; returns its duration in nanoseconds.
  double close(int id) {
    SpanRecord& s = (*out_)[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return 1e3 * (s.end_us - s.start_us);
  }

 private:
  double now_us() const {
    return 1e6 * std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  std::vector<SpanRecord>* out_;
  Clock::time_point epoch_;
};

// A span closed on scope exit unless finish() closed it first.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int parent, std::int64_t request)
      : t_(t), id_(t.open(name, parent, request)) {}
  ~ScopedSpan() {
    if (open_) t_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  double finish() {
    open_ = false;
    return t_.close(id_);
  }

 private:
  Tracer& t_;
  int id_;
  bool open_ = true;
};

std::int64_t tensor_bytes(const dv::TensorF16& t) {
  return t.shape().rank() > 0 ? t.size() * static_cast<std::int64_t>(sizeof(dv::Float16))
                              : 0;
}

std::int64_t result_bytes(const kn::PoolResult& r) {
  return tensor_bytes(r.out) + tensor_bytes(r.mask) + tensor_bytes(r.grad_in);
}

}  // namespace

ReplayResult traced_replay(const Workload& w, const Verifier& v, int passes) {
  ReplayResult rr;
  // The same cluster and device policy serve::Session installs.
  sv::Cluster cluster(w.cluster);
  cluster.set_double_buffer(w.session.double_buffer);
  std::vector<std::unique_ptr<dv::vm::VmStream>> streams;
  for (int d = 0; d < cluster.num_devices(); ++d) {
    streams.push_back(std::make_unique<dv::vm::VmStream>(
        dv::vm::VmStreamOptions{w.session.vm_in_flight, false}));
    if (w.session.vm) cluster.set_vm_stream(d, streams.back().get());
  }
  sv::PlanCache plans(w.session.plan_cache_capacity);
  const std::size_t max_requests = w.session.batching ? w.session.max_batch : 1;
  const std::int64_t max_blocks =
      static_cast<std::int64_t>(cluster.total_cores()) * w.session.ub_waves;

  Tracer tracer(&rr.spans);
  const std::size_t n = w.requests.size();
  for (int pass = 0; pass < passes; ++pass) {
    cluster.reset_stats();
    for (auto& s : streams) s->reset();
    std::int64_t launches = 0, cycles = 0;
    dv::CycleStats units;
    ScopedSpan pass_span(tracer, "replay.pass", -1, -1);
    for (std::size_t begin = 0; begin < n; begin += w.window) {
      const std::size_t end = std::min(n, begin + w.window);
      std::vector<std::pair<std::size_t, kn::PoolResult>> done;
      {
        ScopedSpan window(tracer, "serve.window", pass_span.id(),
                          static_cast<std::int64_t>(begin));
        std::vector<sv::RequestView> views;
        for (std::size_t i = begin; i < end; ++i) {
          views.push_back(sv::RequestView{&w.requests[i].op, &w.requests[i].in});
        }
        std::vector<sv::Batch> batches;
        {
          ScopedSpan s(tracer, "serve.form_batches", window.id(),
                       static_cast<std::int64_t>(begin));
          batches = sv::form_batches(views, max_requests, max_blocks);
          rr.form_ns += s.finish();
        }
        for (const sv::Batch& b : batches) {
          const std::size_t first = begin + b.members.front();
          const auto req_id = static_cast<std::int64_t>(first);
          kn::PoolOp op = w.requests[first].op;
          const kn::PoolInputs& first_in = w.requests[first].in;
          try {
            const sv::RequestGeometry g = sv::request_geometry(op, first_in);
            const std::optional<sv::PlanKey> key = sv::plan_key_for(
                op, g.ih, g.iw, cluster.device(0).double_buffer());
            if (key.has_value() && !op.plan.has_value()) {
              ScopedSpan s(tracer, "serve.plan_cache.get", window.id(), req_id);
              op.plan = plans.get(cluster.device(0).arch(), *key);
              rr.plan_get_ns += s.finish();
              rr.plan_gets += 1;
            }
            // The session's singleton fast path runs on the caller's
            // tensors; larger batches are stacked and sliced apart.
            std::optional<sv::CoalescedInputs> c;
            if (b.members.size() > 1) {
              ScopedSpan s(tracer, "serve.coalesce", window.id(), req_id);
              c = sv::coalesce(views, b);
              rr.coalesce_ns += s.finish();
            }
            sv::Cluster::Launch lr;
            {
              ScopedSpan s(tracer, "cluster.run_pool", window.id(), req_id);
              lr = cluster.run_pool(op, c ? c->inputs() : first_in);
              rr.run_pool_ns += s.finish();
            }
            const dv::Device::RunResult& run = lr.result.run;
            launches += 1;
            cycles += lr.cycles;
            units += run.aggregate;
            // Host phases counted once per launch, not per member.
            if (run.host_alloc_ns + run.host_plan_ns + run.host_validate_ns +
                    run.host_execute_ns !=
                run.host_ns) {
              rr.host_buckets_exact = false;
            }
            rr.run_pool_host_ns += static_cast<double>(run.host_ns);
            rr.host_alloc_ns += static_cast<double>(run.host_alloc_ns);
            rr.host_plan_ns += static_cast<double>(run.host_plan_ns);
            rr.host_validate_ns += static_cast<double>(run.host_validate_ns);
            rr.host_execute_ns += static_cast<double>(run.host_execute_ns);
            (kn::is_backward(op.kind) ? rr.bwd_execute_ns : rr.fwd_execute_ns) +=
                static_cast<double>(run.host_execute_ns);
            if (!c) {
              done.emplace_back(first, std::move(lr.result));
              continue;
            }
            rr.copy_bytes += tensor_bytes(c->in) + tensor_bytes(c->mask) +
                             tensor_bytes(c->grad) + result_bytes(lr.result);
            std::vector<kn::PoolResult> parts;
            {
              ScopedSpan s(tracer, "serve.split_result", window.id(), req_id);
              parts = sv::split_result(b, *c, lr.result);
              rr.split_ns += s.finish();
            }
            for (std::size_t m = 0; m < parts.size(); ++m) {
              done.emplace_back(begin + b.members[m], std::move(parts[m]));
            }
          } catch (const std::exception&) {
            rr.failed += static_cast<std::int64_t>(b.members.size());
          }
        }
        rr.wall_s += 1e-9 * window.finish();
      }
      for (const auto& [i, r] : done) {
        if (!v.check(w.requests[i], r)) ++rr.mismatched;
      }
    }
    if (pass == 0) {
      rr.launches = launches;
      rr.device_cycles = cycles;
      rr.units = units;
      rr.cluster = cluster.stats();
    } else if (launches != rr.launches || cycles != rr.device_cycles) {
      rr.repeatable = false;
    }
    rr.requests += static_cast<std::int64_t>(n);
    rr.passes += 1;
  }
  rr.plan_cache = plans.stats();
  return rr;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DV_CHECK(f != nullptr) << "cannot open " << path;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = s.end_us - s.start_us;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"request\":%lld,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name, s.start_us, dur, i, s.parent,
                 static_cast<long long>(s.request), dur - child_us[i]);
  }
  std::fputs("]}\n", f);
  DV_CHECK(std::fclose(f) == 0) << "cannot write " << path;
}

}  // namespace perfbench
