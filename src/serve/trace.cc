#include "serve/trace.h"

#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/prng.h"
#include "tensor/fractal.h"

namespace davinci::serve {

namespace {

using kernels::MergeImpl;
using kernels::PoolOpKind;

std::int64_t parse_int(const std::string& v, std::size_t line,
                       const std::string& key) {
  try {
    std::size_t used = 0;
    const std::int64_t out = std::stoll(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    throw Error("trace line " + std::to_string(line) + ": bad integer '" +
                v + "' for key '" + key + "'");
  }
}

// For the keys stored as int: rejects values a static_cast<int> would
// silently truncate.
int parse_int32(const std::string& v, std::size_t line,
                const std::string& key) {
  const std::int64_t out = parse_int(v, line, key);
  if (out < std::numeric_limits<int>::min() ||
      out > std::numeric_limits<int>::max()) {
    throw Error("trace line " + std::to_string(line) + ": " + key + "=" + v +
                " is outside the int range [" +
                std::to_string(std::numeric_limits<int>::min()) + ", " +
                std::to_string(std::numeric_limits<int>::max()) + "]");
  }
  return static_cast<int>(out);
}

PoolOpKind parse_kind(const std::string& v, std::size_t line) {
  for (PoolOpKind k :
       {PoolOpKind::kMaxFwd, PoolOpKind::kAvgFwd, PoolOpKind::kMinFwd,
        PoolOpKind::kGlobalAvg, PoolOpKind::kMaxMaskFwd, PoolOpKind::kMaxBwd,
        PoolOpKind::kAvgBwd}) {
    if (v == kernels::to_string(k)) return k;
  }
  throw Error("trace line " + std::to_string(line) + ": unknown op '" + v +
              "'");
}

akg::PoolImpl parse_impl(const std::string& v, std::size_t line) {
  for (akg::PoolImpl i :
       {akg::PoolImpl::kDirect, akg::PoolImpl::kIm2col,
        akg::PoolImpl::kExpansion, akg::PoolImpl::kXYSplit}) {
    if (v == akg::to_string(i)) return i;
  }
  throw Error("trace line " + std::to_string(line) + ": unknown impl '" + v +
              "' (direct|im2col|expansion|xysplit|auto)");
}

MergeImpl parse_merge(const std::string& v, std::size_t line) {
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    if (v == kernels::to_string(m)) return m;
  }
  throw Error("trace line " + std::to_string(line) + ": unknown merge '" +
              v + "' (vadd|col2im)");
}

}  // namespace

std::vector<TraceEntry> parse_trace(const std::string& text) {
  std::vector<TraceEntry> entries;
  std::istringstream stream(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(stream, line)) {
    lineno += 1;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string tok;
    TraceEntry e;
    bool have_op = false, impl_auto = false, any_token = false;
    std::set<std::string> seen;
    while (tokens >> tok) {
      any_token = true;
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) {
        throw Error("trace line " + std::to_string(lineno) +
                    ": expected key=value, got '" + tok + "'");
      }
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (!seen.insert(key).second) {
        throw Error("trace line " + std::to_string(lineno) +
                    ": duplicate key '" + key + "'");
      }
      Window2d& w = e.op.window;
      if (key == "op") {
        e.op.kind = parse_kind(val, lineno);
        have_op = true;
      } else if (key == "n") {
        e.n = parse_int(val, lineno, key);
      } else if (key == "c1") {
        e.c1 = parse_int(val, lineno, key);
      } else if (key == "ih") {
        e.ih = parse_int(val, lineno, key);
      } else if (key == "iw") {
        e.iw = parse_int(val, lineno, key);
      } else if (key == "k") {
        w.kh = w.kw = parse_int(val, lineno, key);
      } else if (key == "kh") {
        w.kh = parse_int(val, lineno, key);
      } else if (key == "kw") {
        w.kw = parse_int(val, lineno, key);
      } else if (key == "s") {
        w.sh = w.sw = parse_int(val, lineno, key);
      } else if (key == "sh") {
        w.sh = parse_int(val, lineno, key);
      } else if (key == "sw") {
        w.sw = parse_int(val, lineno, key);
      } else if (key == "p") {
        w.pt = w.pb = w.pl = w.pr = parse_int(val, lineno, key);
      } else if (key == "pt") {
        w.pt = parse_int(val, lineno, key);
      } else if (key == "pb") {
        w.pb = parse_int(val, lineno, key);
      } else if (key == "pl") {
        w.pl = parse_int(val, lineno, key);
      } else if (key == "pr") {
        w.pr = parse_int(val, lineno, key);
      } else if (key == "impl") {
        if (val == "auto") {
          impl_auto = true;
        } else {
          e.op.fwd = parse_impl(val, lineno);
        }
      } else if (key == "merge") {
        e.op.merge = parse_merge(val, lineno);
      } else if (key == "x") {
        e.repeat = parse_int32(val, lineno, key);
      } else if (key == "deadline_us") {
        e.deadline_us = parse_int(val, lineno, key);
      } else if (key == "prio") {
        e.prio = parse_int32(val, lineno, key);
      } else if (key == "shard") {
        e.shard = parse_int32(val, lineno, key);
      } else {
        throw Error("trace line " + std::to_string(lineno) +
                    ": unknown key '" + key + "'");
      }
    }
    if (!have_op) {
      if (any_token) {
        throw Error("trace line " + std::to_string(lineno) +
                    ": missing op=");
      }
      continue;  // blank / comment-only line
    }
    if (e.ih <= 0 || e.iw <= 0 || e.n <= 0 || e.c1 <= 0 || e.repeat < 1) {
      throw Error("trace line " + std::to_string(lineno) +
                  ": n, c1, ih, iw must be positive (and x >= 1)");
    }
    if (e.deadline_us < 0) {
      throw Error("trace line " + std::to_string(lineno) +
                  ": deadline_us must be >= 0");
    }
    // The upper bound (device count) is the session's to enforce --
    // the trace format does not know the cluster size.
    if (seen.count("shard") != 0 && e.shard < 0) {
      throw Error("trace line " + std::to_string(lineno) +
                  ": shard must be >= 0");
    }
    if (impl_auto) e.op.fwd = akg::select_fwd_impl(e.op.window);
    e.line = lineno;
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string to_line(const TraceEntry& e) {
  const Window2d& w = e.op.window;
  std::string out = "op=" + std::string(kernels::to_string(e.op.kind));
  out += " n=" + std::to_string(e.n) + " c1=" + std::to_string(e.c1) +
         " ih=" + std::to_string(e.ih) + " iw=" + std::to_string(e.iw);
  if (w.kh == w.kw) {
    out += " k=" + std::to_string(w.kh);
  } else {
    out += " kh=" + std::to_string(w.kh) + " kw=" + std::to_string(w.kw);
  }
  if (w.sh == w.sw) {
    out += " s=" + std::to_string(w.sh);
  } else {
    out += " sh=" + std::to_string(w.sh) + " sw=" + std::to_string(w.sw);
  }
  if (w.pt != 0 || w.pb != 0 || w.pl != 0 || w.pr != 0) {
    if (w.pt == w.pb && w.pb == w.pl && w.pl == w.pr) {
      out += " p=" + std::to_string(w.pt);
    } else {
      out += " pt=" + std::to_string(w.pt) + " pb=" + std::to_string(w.pb) +
             " pl=" + std::to_string(w.pl) + " pr=" + std::to_string(w.pr);
    }
  }
  if (kernels::is_backward(e.op.kind)) {
    out += " merge=" + std::string(kernels::to_string(e.op.merge));
  } else {
    out += " impl=" + std::string(akg::to_string(e.op.fwd));
  }
  if (e.repeat != 1) out += " x=" + std::to_string(e.repeat);
  if (e.deadline_us != 0) {
    out += " deadline_us=" + std::to_string(e.deadline_us);
  }
  if (e.prio != 0) out += " prio=" + std::to_string(e.prio);
  if (e.shard >= 0) out += " shard=" + std::to_string(e.shard);
  return out;
}

std::vector<TraceEntry> load_trace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  DV_CHECK(f.good()) << "cannot open trace file " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_trace(ss.str());
}

kernels::PoolInputs MaterializedRequest::inputs() const {
  // Rank-based presence checks: a default-constructed tensor reports
  // size() == 1 (rank-0 empty product).
  kernels::PoolInputs pi;
  if (in.shape().rank() > 0) pi.in = &in;
  if (mask.shape().rank() > 0) pi.mask = &mask;
  if (grad.shape().rank() > 0) pi.grad = &grad;
  pi.ih = ih;
  pi.iw = iw;
  return pi;
}

MaterializedRequest materialize(const TraceEntry& e, std::uint64_t seed) {
  MaterializedRequest r;
  const Window2d& w = e.op.window;
  if (kernels::is_backward(e.op.kind)) {
    const std::int64_t oh = w.out_h(e.ih), ow = w.out_w(e.iw);
    // Every element is overwritten by fill_random_ints, so the tensors can
    // skip the zero-fill (arena reuse without a memset).
    r.grad = TensorF16(Shape{e.n, e.c1, oh, ow, kC0}, kUninitialized);
    r.grad.fill_random_ints(seed * 2 + 1, 0, 4);
    r.ih = e.ih;
    r.iw = e.iw;
    if (e.op.kind == kernels::PoolOpKind::kMaxBwd) {
      const std::int64_t ppg = round_up(oh * ow, kFractalRows);
      r.mask = TensorF16(Shape{e.n, e.c1, w.kh, w.kw, ppg, kC0},
                         kUninitialized);
      // A plausible 0/1 mask; the backward kernels read it as data, so
      // random bits exercise the same instruction stream as a real one.
      r.mask.fill_random_ints(seed * 2 + 2, 0, 1);
    }
  } else {
    r.in = TensorF16(Shape{e.n, e.c1, e.ih, e.iw, kC0}, kUninitialized);
    r.in.fill_random_ints(seed * 2 + 1);
  }
  return r;
}

}  // namespace davinci::serve
