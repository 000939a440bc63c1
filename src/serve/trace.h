// Request-trace files for the serving tools (docs/SERVING.md).
//
// A trace is a line-oriented text file; each line is one request
// template as whitespace-separated key=value tokens, '#' starts a
// comment:
//
//   # op       n/c1/ih/iw        window        lowering     repeat
//   op=maxpool n=1 c1=4 ih=147 iw=147 k=3 s=2  impl=im2col  x=8
//   op=avgpool n=1 c1=12 ih=71 iw=71 k=3 s=2   impl=auto
//   op=maxpool_bwd n=1 c1=18 ih=35 iw=35 k=3 s=2 merge=col2im
//   op=global_avgpool n=1 c1=64 ih=8 iw=8 deadline_us=5000 prio=1
//
// Keys: `op` (a PoolOpKind name, required), `n`/`c1`/`ih`/`iw` (tensor
// geometry; ih/iw required except their defaults never validate), `k`
// or `kh`/`kw` (kernel), `s` or `sh`/`sw` (stride), `p` or
// `pt`/`pb`/`pl`/`pr` (padding), `impl` (forward lowering, or `auto`
// for akg::select_fwd_impl), `merge` (backward merge step), `x`
// (how many identical requests this line expands to, default 1),
// `deadline_us` (per-request completion budget, 0 = none -- feeds
// serve::SubmitOptions::deadline_us), `prio` (shed priority, feeds
// SubmitOptions::prio) and `shard` (device pin, feeds
// SubmitOptions::shard; absent = route automatically). Unknown keys and
// a key repeated on one line are errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/pooling.h"
#include "tensor/tensor.h"

namespace davinci::serve {

// One parsed trace line (before `x=` expansion).
struct TraceEntry {
  kernels::PoolOp op;
  std::int64_t n = 1, c1 = 1, ih = 0, iw = 0;
  int repeat = 1;
  std::int64_t deadline_us = 0;  // 0 = no deadline
  int prio = 0;                  // shed priority (higher sheds later)
  int shard = -1;                // device pin; -1 = auto placement
  // The 1-based line of the trace text this entry was parsed from, as an
  // editor numbers it (comment and blank lines count); 0 for an entry
  // not read by parse_trace.
  std::size_t line = 0;
};

// Parses trace text; throws davinci::Error with a line number on
// malformed input.
std::vector<TraceEntry> parse_trace(const std::string& text);

// Serializes one entry back to a trace line (no trailing newline).
// Geometry and window are always explicit (kh/kw/sh/sw, padding when
// non-zero); forward kinds carry impl=, backward kinds merge=; x /
// deadline_us / prio appear when non-default. Round-trips:
// parse_trace(to_line(e)) yields an entry equal to `e` field by field,
// except `line` (the reparsed entry's line is its line in the new text).
std::string to_line(const TraceEntry& e);

// Reads and parses a trace file.
std::vector<TraceEntry> load_trace(const std::string& path);

// The input tensors one trace entry needs, deterministically filled from
// `seed`: forward kinds get an activation tensor; backward kinds get a
// gradient (and, for maxpool_bwd, a 0/1 mask in the Im2col shape).
struct MaterializedRequest {
  TensorF16 in, mask, grad;
  std::int64_t ih = 0, iw = 0;  // backward kinds' target spatial size
  // The PoolInputs aliasing this object's tensors. Computed on demand so
  // the struct stays safely movable.
  kernels::PoolInputs inputs() const;
};

MaterializedRequest materialize(const TraceEntry& e, std::uint64_t seed);

}  // namespace davinci::serve
