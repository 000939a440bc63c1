// The cycle ledger of one AI Core: its counters (CycleStats), its
// pipe-overlap timeline (PipeScheduler) and its optional instruction trace.
// AiCore owns one and hands it to every unit it constructs; each simulated
// instruction updates its unit's counters and then books its cycles here
// with one call, so the counters, the timeline and the trace cannot drift
// apart.
#pragma once

#include <cstdint>

#include "sim/pipe_schedule.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace davinci {

struct CoreLedger {
  CycleStats stats;
  PipeScheduler sched;
  Trace trace;

  // Adds `cycles` to `counter` (the charging unit's cycle field of
  // `stats`) and places them on `pipe`; returns the interval's start.
  std::int64_t book(std::int64_t& counter, Pipe pipe, std::int64_t cycles) {
    counter += cycles;
    return sched.issue(pipe, cycles).start;
  }

  // As above, and records a `kind` trace event carrying the instruction's
  // occupancy in its unit's slot currency (see Profile). `detail` returns
  // the event's text and runs only while tracing is on.
  template <typename Detail>
  void book(std::int64_t& counter, Pipe pipe, std::int64_t cycles,
            TraceKind kind, std::int64_t slots_used,
            std::int64_t slots_capacity, Detail&& detail) {
    const std::int64_t start = book(counter, pipe, cycles);
    if (trace.enabled()) {
      record(kind, detail, cycles, slots_used, slots_capacity, start);
    }
  }

  // A pipe_barrier of `cycles`: synchronizes every pipe.
  void barrier(std::int64_t cycles) {
    stats.barrier_cycles += cycles;
    const std::int64_t start = sched.barrier(cycles).start;
    if (trace.enabled()) {
      trace.record(TraceKind::kBarrier, "pipe_barrier", cycles, 0, 0, start);
    }
  }

  // Clears the counters and the timeline; the trace keeps its events.
  void reset() {
    stats = CycleStats{};
    sched.reset();
  }

 private:
  // Out of line and cold: inlined, the event's text formatting would bloat
  // every unit's charge path, which runs once per simulated instruction.
  template <typename Detail>
  [[gnu::cold, gnu::noinline]] void record(TraceKind kind, Detail& detail,
                                           std::int64_t cycles,
                                           std::int64_t slots_used,
                                           std::int64_t slots_capacity,
                                           std::int64_t start) {
    trace.record(kind, detail(), cycles, slots_used, slots_capacity, start);
  }
};

}  // namespace davinci
