#include "sim/prof_report.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

namespace davinci {

namespace {

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string fmt_num(const json::Value& v) {
  if (v.is_int()) return std::to_string(v.as_int());
  return fmt(v.as_double());
}

std::string pct_of(std::int64_t part, std::int64_t whole) {
  if (whole <= 0) return "0%";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part) /
                    static_cast<double>(whole));
  return buf;
}

std::int64_t int_or(const json::Value& obj, const char* key,
                    std::int64_t fallback) {
  const json::Value* v = obj.get(key);
  return (v != nullptr && v->is_int()) ? v->as_int() : fallback;
}

// --- Rendering ---------------------------------------------------------

void render_attribution(const json::Value& attr, std::string* out) {
  const std::int64_t horizon = int_or(attr, "horizon", 0);
  *out += "  attribution (horizon " + std::to_string(horizon) +
          " cycles, critical core " +
          std::to_string(int_or(attr, "critical_core", -1)) + "):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "    %-6s %-8s %12s %12s %12s %12s\n",
                "core", "pipe", "busy", "wait", "flag", "idle");
  *out += line;
  for (const json::Value& core : attr.at("cores").as_array()) {
    const std::int64_t id = int_or(core, "core", -1);
    for (const auto& [pipe, b] : core.at("pipes").as_object()) {
      std::snprintf(
          line, sizeof(line),
          "    %-6lld %-8s %5lld (%s) %5lld (%s) %5lld (%s) %5lld (%s)\n",
          static_cast<long long>(id), pipe.c_str(),
          static_cast<long long>(int_or(b, "busy", 0)),
          pct_of(int_or(b, "busy", 0), horizon).c_str(),
          static_cast<long long>(int_or(b, "wait", 0)),
          pct_of(int_or(b, "wait", 0), horizon).c_str(),
          static_cast<long long>(int_or(b, "flag", 0)),
          pct_of(int_or(b, "flag", 0), horizon).c_str(),
          static_cast<long long>(int_or(b, "idle", 0)),
          pct_of(int_or(b, "idle", 0), horizon).c_str());
      *out += line;
    }
  }
  if (const json::Value* sum = attr.get("critical_path_summary")) {
    *out += "  critical path: " +
            std::to_string(int_or(*sum, "segments", 0)) + " segments, busy " +
            std::to_string(int_or(*sum, "busy_cycles", 0)) + " + stall " +
            std::to_string(int_or(*sum, "stall_cycles", 0)) + " = " +
            std::to_string(int_or(*sum, "busy_cycles", 0) +
                           int_or(*sum, "stall_cycles", 0)) +
            " cycles\n";
  }
}

void render_metrics_entry(const json::Value& e, std::string* out) {
  *out += "entry " + e.at("name").as_string() + "\n";
  const std::int64_t cycles = int_or(e, "cycles", 0);
  const std::int64_t serial = int_or(e, "cycles_serial", 0);
  *out += "  cycles " + std::to_string(cycles) + " (serial " +
          std::to_string(serial);
  if (cycles > 0 && serial > 0) {
    *out += ", overlap " +
            fmt(static_cast<double>(serial) / static_cast<double>(cycles)) +
            "x";
  }
  *out += "), cores_used " + std::to_string(int_or(e, "cores_used", 0)) + "\n";
  if (const json::Value* roof = e.get("roofline")) {
    *out += "  roofline: " + roof->at("class").as_string() +
            " (arith intensity " +
            fmt(roof->at("arithmetic_intensity").as_double()) +
            " lane-ops/GM-byte vs balance " +
            fmt(roof->at("machine_balance").as_double()) + "; achieved " +
            fmt(roof->at("achieved_gm_bytes_per_cycle").as_double()) +
            " of peak " +
            fmt(roof->at("peak_gm_bytes_per_cycle").as_double()) +
            " GM bytes/cycle/core)\n";
  }
  if (const json::Value* t = e.get("traffic")) {
    *out += "  traffic: gm_total " + std::to_string(int_or(*t, "gm_total", 0)) +
            " B, mte_total " + std::to_string(int_or(*t, "mte_total", 0)) +
            " B, im2col " + std::to_string(int_or(*t, "im2col_bytes", 0)) +
            " B, col2im " + std::to_string(int_or(*t, "col2im_bytes", 0)) +
            " B, ub_vector " +
            std::to_string(int_or(*t, "ub_vector_bytes", 0)) + " B\n";
  }
  if (const json::Value* attr = e.get("attribution")) {
    render_attribution(*attr, out);
  }
}

// Schema-v7 "serve" object (serve::Session::add_metrics). The v3
// robustness keys, the v5 "vm" object, the v6 p999 / hist /
// request_trace keys and the v7 "cluster" object are all optional, so
// v2..v6 documents still render.
void render_serve(const json::Value& s, std::string* out) {
  *out += "serve: " + std::to_string(int_or(s, "requests", 0)) +
          " requests in " + std::to_string(int_or(s, "launches", 0)) +
          " launches (" + std::to_string(int_or(s, "batches", 0)) +
          " batches";
  if (const json::Value* ab = s.get("avg_batch")) {
    *out += ", avg batch " + fmt_num(*ab);
  }
  *out += ", failed " + std::to_string(int_or(s, "failed", 0)) + ")\n";
  if (s.get("expired") != nullptr || s.get("shed") != nullptr) {
    *out += "  overload: expired " + std::to_string(int_or(s, "expired", 0)) +
            ", shed " + std::to_string(int_or(s, "shed", 0)) +
            ", rejected " + std::to_string(int_or(s, "rejected", 0)) +
            ", cancelled " + std::to_string(int_or(s, "cancelled", 0));
    if (const json::Value* pol = s.get("overload_policy")) {
      *out += " (policy " + pol->as_string() + ")";
    }
    *out += ", watchdog alarms " +
            std::to_string(int_or(s, "watchdog_alarms", 0)) + "\n";
  }
  if (const json::Value* r = s.get("resilience")) {
    const bool enabled =
        r->get("enabled") != nullptr && r->at("enabled").as_bool();
    *out += "  resilience: " + std::string(enabled ? "on" : "off") +
            ", degraded launches " +
            std::to_string(int_or(*r, "degraded_launches", 0)) +
            ", bisections " + std::to_string(int_or(*r, "bisections", 0)) +
            ", poisoned " +
            std::to_string(int_or(*r, "poisoned_requests", 0)) +
            ", launch failures " +
            std::to_string(int_or(*r, "launch_failures", 0)) +
            ", quarantined cores " +
            std::to_string(int_or(*r, "quarantined_cores", 0)) + "\n";
    if (int_or(*r, "faults_injected", 0) > 0 ||
        int_or(*r, "retries", 0) > 0) {
      *out += "    faults: injected " +
              std::to_string(int_or(*r, "faults_injected", 0)) +
              ", detected " +
              std::to_string(int_or(*r, "faults_detected", 0)) +
              ", retries " + std::to_string(int_or(*r, "retries", 0)) +
              ", blocks redispatched " +
              std::to_string(int_or(*r, "blocks_redispatched", 0)) + "\n";
    }
  }
  if (const json::Value* pc = s.get("plan_cache")) {
    *out += "  plan cache: " + std::to_string(int_or(*pc, "hits", 0)) +
            " hits / " + std::to_string(int_or(*pc, "misses", 0)) +
            " misses";
    if (const json::Value* hr = pc->get("hit_rate")) {
      *out += " (" + fmt(hr->as_double() * 100.0) + "%)";
    }
    *out += ", " + std::to_string(int_or(*pc, "size", 0)) + "/" +
            std::to_string(int_or(*pc, "capacity", 0)) + " entries, " +
            std::to_string(int_or(*pc, "evictions", 0)) + " evictions\n";
  }
  if (const json::Value* q = s.get("queue")) {
    *out += "  queue: capacity " + std::to_string(int_or(*q, "capacity", 0)) +
            ", peak depth " + std::to_string(int_or(*q, "peak_depth", 0)) +
            ", backpressure waits " +
            std::to_string(int_or(*q, "backpressure_waits", 0)) + "\n";
  }
  if (const json::Value* lat = s.get("host_latency_us")) {
    *out += "  latency (host us): p50 " + fmt_num(lat->at("p50")) + ", p90 " +
            fmt_num(lat->at("p90")) + ", p99 " + fmt_num(lat->at("p99"));
    if (const json::Value* p999 = lat->get("p999")) {
      *out += ", p999 " + fmt_num(*p999);
    }
    *out += ", max " + fmt_num(lat->at("max"));
    if (const json::Value* h = lat->get("hist")) {
      *out += " (hist dropped " + std::to_string(int_or(*h, "dropped", 0)) +
              ")";
    }
    *out += "\n";
  }
  if (const json::Value* rt = s.get("request_trace")) {
    *out += "  request trace: " +
            std::to_string(int_or(*rt, "recorded", 0)) + " events (" +
            std::to_string(int_or(*rt, "dropped", 0)) +
            " dropped, ring capacity " +
            std::to_string(int_or(*rt, "capacity", 0)) + ")\n";
  }
  *out += "  device cycles total " +
          std::to_string(int_or(s, "device_cycles_total", 0)) + "\n";
  if (const json::Value* vm = s.get("vm")) {
    const bool enabled =
        vm->get("enabled") != nullptr && vm->at("enabled").as_bool();
    const std::int64_t makespan = int_or(*vm, "makespan", 0);
    const std::int64_t serial_sum = int_or(*vm, "serial_sum", 0);
    *out += "  vm: " + std::string(enabled ? "on" : "off") + ", in-flight " +
            std::to_string(int_or(*vm, "in_flight", 0)) + ", " +
            std::to_string(int_or(*vm, "launches", 0)) +
            " launches, makespan " + std::to_string(makespan) +
            " (serial sum " + std::to_string(serial_sum) + ", overlap " +
            std::to_string(int_or(*vm, "overlap_cycles", 0)) + " = " +
            pct_of(int_or(*vm, "overlap_cycles", 0), serial_sum) +
            "), stalls window " +
            std::to_string(int_or(*vm, "window_stalls", 0)) + " / hazard " +
            std::to_string(int_or(*vm, "hazard_stalls", 0)) + "\n";
    if (const json::Value* streams = vm->get("streams")) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "    %-8s %6s %12s %12s %12s %12s %9s\n", "stream",
                    "tracks", "busy", "wait", "flag", "idle", "occupancy");
      *out += line;
      for (const auto& [pipe, b] : streams->as_object()) {
        const double occ = b.get("occupancy") != nullptr
                               ? b.at("occupancy").as_double()
                               : 0.0;
        std::snprintf(line, sizeof(line),
                      "    %-8s %6lld %12lld %12lld %12lld %12lld %8.1f%%\n",
                      pipe.c_str(),
                      static_cast<long long>(int_or(b, "tracks", 0)),
                      static_cast<long long>(int_or(b, "busy", 0)),
                      static_cast<long long>(int_or(b, "wait", 0)),
                      static_cast<long long>(int_or(b, "flag", 0)),
                      static_cast<long long>(int_or(b, "idle", 0)),
                      occ * 100.0);
        *out += line;
      }
    }
  }
  if (const json::Value* c = s.get("cluster")) {
    const std::int64_t devices = int_or(*c, "devices", 1);
    *out += "  cluster: " + std::to_string(devices) + " device" +
            (devices == 1 ? "" : "s");
    if (const json::Value* p = c->get("placement")) {
      *out += " (" + p->as_string() + " parallel)";
    }
    *out += ", " + std::to_string(int_or(*c, "sharded_launches", 0)) + "/" +
            std::to_string(int_or(*c, "launches", 0)) +
            " launches sharded, makespan " +
            std::to_string(int_or(*c, "makespan", 0)) + "\n";
    if (const json::Value* r = c->get("redistribution")) {
      *out += "    redistribution: " +
              std::to_string(int_or(*r, "transfers", 0)) + " transfers, " +
              std::to_string(int_or(*r, "bytes", 0)) + " bytes, " +
              std::to_string(int_or(*r, "cycles", 0)) +
              " cycles (busiest link " +
              std::to_string(int_or(*c, "link_busy_cycles", 0)) +
              " busy cycles)\n";
    }
    if (const json::Value* pd = c->get("per_device")) {
      if (devices > 1) {
        char line[160];
        std::snprintf(line, sizeof(line), "    %-6s %9s %9s %14s %12s\n",
                      "device", "launches", "blocks", "cycles",
                      "vm_makespan");
        *out += line;
        for (const json::Value& row : pd->as_array()) {
          std::snprintf(line, sizeof(line),
                        "    %-6lld %9lld %9lld %14lld %12lld\n",
                        static_cast<long long>(int_or(row, "device", 0)),
                        static_cast<long long>(int_or(row, "launches", 0)),
                        static_cast<long long>(int_or(row, "blocks", 0)),
                        static_cast<long long>(int_or(row, "cycles", 0)),
                        static_cast<long long>(int_or(row, "vm_makespan", 0)));
          *out += line;
        }
      }
    }
  }
}

void render_bench(const json::Value& doc, std::string* out) {
  *out += "bench " + doc.at("bench").as_string() + "\n";
  for (const json::Value& row : doc.at("rows").as_array()) {
    *out += "  ";
    bool first = true;
    for (const auto& [k, v] : row.as_object()) {
      if (!first) *out += " ";
      first = false;
      *out += k + "=";
      if (v.is_string()) {
        *out += v.as_string();
      } else if (v.is_bool()) {
        *out += v.as_bool() ? "true" : "false";
      } else if (v.is_number()) {
        *out += fmt_num(v);
      } else {
        *out += "?";
      }
    }
    *out += "\n";
  }
}

// --- Diffing -----------------------------------------------------------

// Cycle-like metrics where larger is strictly worse; only these gate the
// diff (see header).
bool gated_metric(const std::string& key) {
  static const std::set<std::string> kGated = {
      "cycles",  "cycles_serial", "busiest_unit_cycles",
      "pipelined_bound", "horizon", "makespan",
  };
  return kGated.count(key) > 0;
}

bool host_metric(const std::string& key) {
  return key.rfind("host", 0) == 0;
}

struct DiffWalker {
  const DiffOptions& opts;
  DiffResult result;

  double tolerance_for(const std::string& key) const {
    auto it = opts.per_metric.find(key);
    return it == opts.per_metric.end() ? opts.tol : it->second;
  }

  // host_* fields, and everything nested in one, are wall-clock.
  bool skipped(const std::string& key) const {
    return host_metric(key) && !opts.include_host;
  }

  // The field name a path ends in ("rows[x].cycles" -> "cycles").
  static std::string key_of(const std::string& path) {
    const std::size_t dot = path.find_last_of('.');
    return dot == std::string::npos ? path : path.substr(dot + 1);
  }

  void note(const std::string& line) { result.report += line + "\n"; }

  void regress(const std::string& line) {
    result.regressed = true;
    result.regressions += 1;
    note("REGRESSION " + line);
  }

  // A non-numeric difference (shape, string or bool) of field `key`:
  // informational, unless the field is compared at an exact tolerance.
  void differ(const std::string& key, const std::string& tag,
              const std::string& line) {
    if (skipped(key)) return;  // a host_* field missing in the candidate
    if (tolerance_for(key) == 0.0) {
      regress(line + " (tol 0 is exact)");
    } else {
      note(tag + line);
    }
  }

  void compare_number(const std::string& path, const std::string& key,
                      const json::Value& a, const json::Value& b) {
    result.compared += 1;
    const double av = a.as_double();
    const double bv = b.as_double();
    if (av == bv) return;
    const double tol = tolerance_for(key);
    const double base = std::abs(av);
    const double delta = bv - av;
    const double rel = base > 0.0 ? delta / base : (delta > 0 ? 1e9 : -1e9);
    const bool beyond = std::abs(delta) > base * tol;
    const bool gated =
        gated_metric(key) || (host_metric(key) && opts.include_host);
    const std::string change = path + ": " + fmt_num(a) + " -> " +
                               fmt_num(b) + " (" + fmt(rel * 100.0) + "%";
    // A zero tolerance is an exact gate: any difference regresses, in
    // either direction, gated field or not.
    if (tol == 0.0) {
      regress(change + ", tol 0 is exact)");
    } else if (gated && delta > 0 && beyond) {
      regress(change + " > tol " + fmt(tol * 100.0) + "%)");
    } else if (beyond) {
      note((gated ? "improved   " : "changed    ") + change + ")");
    }
  }

  void compare(const std::string& path, const json::Value& a,
               const json::Value& b) {
    const std::string key = key_of(path);
    if (skipped(key)) return;
    if (a.is_number() && b.is_number()) {
      compare_number(path, key, a, b);
      return;
    }
    if (a.kind() != b.kind()) {
      differ(key, "shape      ", path + ": value kind changed");
      return;
    }
    if (a.is_object()) {
      for (const auto& [k, av] : a.as_object()) {
        const json::Value* bv = b.get(k);
        if (bv == nullptr) {
          differ(k, "shape      ", path + "." + k + ": missing in candidate");
          continue;
        }
        compare(path.empty() ? k : path + "." + k, av, *bv);
      }
      for (const auto& [k, bv] : b.as_object()) {
        (void)bv;
        if (!a.has(k)) {
          note("shape      " + path + "." + k + ": new in candidate");
        }
      }
      return;
    }
    if (a.is_array()) {
      const json::Array& aa = a.as_array();
      const json::Array& ba = b.as_array();
      if (aa.size() != ba.size()) {
        differ(key, "shape      ",
               path + ": array length " + std::to_string(aa.size()) +
                   " -> " + std::to_string(ba.size()));
      }
      const std::size_t n = aa.size() < ba.size() ? aa.size() : ba.size();
      for (std::size_t i = 0; i < n; ++i) {
        compare(path + "[" + label_for(aa[i], i) + "]", aa[i], ba[i]);
      }
      return;
    }
    if (a.is_string() && a.as_string() != b.as_string()) {
      differ(key, "changed    ",
             path + ": '" + a.as_string() + "' -> '" + b.as_string() + "'");
    } else if (a.is_bool() && a.as_bool() != b.as_bool()) {
      differ(key, "changed    ",
             path + ": " + (a.as_bool() ? "true" : "false") + " -> " +
                 (b.as_bool() ? "true" : "false"));
    }
  }

  // Rows/entries are labeled by their string identity fields when present
  // (name, shape, impl...) so findings are readable.
  static std::string label_for(const json::Value& v, std::size_t index) {
    if (v.is_object()) {
      for (const char* key : {"name", "shape", "impl", "net", "layer"}) {
        const json::Value* f = v.get(key);
        if (f != nullptr && f->is_string()) return f->as_string();
      }
      const json::Value* core = v.get("core");
      if (core != nullptr && core->is_int()) {
        return "core" + std::to_string(core->as_int());
      }
    }
    return std::to_string(index);
  }
};

}  // namespace

std::string render_report(const json::Value& doc) {
  std::string out;
  const json::Value* schema = doc.get("schema");
  if (schema != nullptr && schema->is_string() &&
      schema->as_string() == "davinci.metrics") {
    out += "davinci.metrics v" +
           std::to_string(int_or(doc, "schema_version", 0)) + ", " +
           std::to_string(doc.at("entries").as_array().size()) +
           " entr" +
           (doc.at("entries").as_array().size() == 1 ? "y" : "ies") + "\n";
    if (const json::Value* serve = doc.get("serve")) {
      render_serve(*serve, &out);
    }
    for (const json::Value& e : doc.at("entries").as_array()) {
      render_metrics_entry(e, &out);
    }
    return out;
  }
  if (doc.has("bench") && doc.has("rows")) {
    render_bench(doc, &out);
    return out;
  }
  throw Error(
      "unrecognized document: expected a davinci.metrics file or a bench "
      "JsonReport ({\"bench\",\"rows\"})");
}

DiffResult diff_reports(const json::Value& a, const json::Value& b,
                        const DiffOptions& opts) {
  DiffWalker w{opts, {}};
  w.compare("", a, b);
  if (w.result.report.empty()) {
    w.result.report = "no differences beyond tolerance (" +
                      std::to_string(w.result.compared) +
                      " metrics compared)\n";
  }
  return w.result;
}

}  // namespace davinci
