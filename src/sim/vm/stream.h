// The instruction-stream VM scheduler (docs/ASYNC_VM.md).
//
// A VmStream owns the cross-launch timeline: persistent per-(core, pipe)
// resource tracks, a buffer dependency table, and the bounded in-flight
// window. enqueue() places a captured launch at the earliest cycle that
// respects every dependency -- the placement is pure integer arithmetic
// over the enqueue order, so a deterministic launch order (the serving
// worker's EDF order) yields a bit-identical schedule run to run.
//
// Placement rule (rigid shift): a launch's ops keep their launch-local
// offsets and the whole launch shifts right by
//
//   delta = max( per-(core, pipe) track:  track_end - op.first_busy,
//                window:   completion of launch k-W  (W = in_flight),
//                buffers:  RAW/WAR/WAW completion floors, 0 )
//
// so no two ops overlap on a track, at most W launches are in flight,
// and hazards serialize. Overlap between consecutive launches arises
// exactly when a launch's tail pipes (Vector / MTE-out) outlive its
// early pipes (MTE-in / SCU) and the next launch touches those tail
// pipes late -- the producer/consumer overlap the paper exploits inside
// a kernel, extended across the whole request stream.
//
// Cross-batch cycle attribution keeps the PR-4 invariant: for every
// (core, pipe) track, busy + wait + flag + idle == makespan exactly
// (aggregated per pipe over `tracks` cores in Stats::streams). A flag
// stall that lands under another launch's busy time counts as busy --
// the pipe was genuinely occupied, not stalled.
//
// Thread safety: every public method takes the internal mutex; the
// serving worker enqueues while stats()/issue_log() scrape from other
// threads.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/vm/instruction.h"

namespace davinci::vm {

struct VmStreamOptions {
  // Bounded in-flight window: how many launches may overlap (hold UB
  // tile slots) at once. 1 = strictly serial launches; the serving
  // default is 2 (classic double buffering at launch granularity).
  int in_flight = 2;
  // Retain per-launch placed intervals and tile marks for the Chrome
  // trace exporter (bounded; off by default to keep long streams cheap).
  bool capture = false;
};

// A placed launch retained for trace export (capture mode only).
struct PlacedLaunch {
  std::int64_t seq = 0;       // stream-assigned launch sequence number
  std::string label;
  std::int64_t start = 0;     // stream cycles
  std::int64_t end = 0;
  std::vector<CoreWork> cores;  // intervals/tile marks still launch-local
};

class VmStream {
 public:
  // Per-pipe aggregate over all (core, pipe) tracks of that pipe.
  // Invariant: busy + wait + flag + idle == makespan * tracks.
  struct PipeStream {
    std::int64_t tracks = 0;  // cores that ever ran this pipe
    std::int64_t busy = 0;
    std::int64_t wait = 0;
    std::int64_t flag = 0;
    std::int64_t idle = 0;
    double occupancy = 0.0;  // busy / (makespan * tracks)
  };

  struct Stats {
    std::int64_t launches = 0;
    std::int64_t makespan = 0;        // cross-batch overlapped makespan
    std::int64_t serial_sum = 0;      // sum of per-launch makespans
    std::int64_t overlap_cycles = 0;  // serial_sum - makespan (>= 0)
    std::int64_t window_stalls = 0;   // placements floored by the window
    std::int64_t hazard_stalls = 0;   // placements floored by a buffer dep
    std::int64_t tracked_buffers = 0;  // buffer ids in the hazard table
    int in_flight = 0;                // the configured window
    PipeStream streams[PipeScheduler::kNumPipes];
  };

  explicit VmStream(VmStreamOptions opts = {});

  // Places `launch` at the earliest dependency-respecting cycle and
  // returns its scheduled start. The issue log gains one record per
  // (core, pipe) op with busy work.
  std::int64_t enqueue(VmLaunch launch);

  Stats stats() const;

  // The per-op issue log, in issue order (launch order, then core, then
  // pipe). Bounded by kMaxIssueRecords; issue_log_truncated() reports an
  // overflow (records past the cap are dropped, placement stays exact).
  std::vector<IssueRecord> issue_log() const;
  bool issue_log_truncated() const;

  // Compact fingerprint of the issue log ("launch:core:pipe:start:end"
  // lines) for the deterministic-replay regression test.
  std::string issue_signature() const;

  // Placed launches for the trace exporter; empty unless capture is on.
  std::vector<PlacedLaunch> placements() const;

  // Forgets the whole timeline (tracks, window, buffer table, logs,
  // stats) -- the warmup path re-zeroes the stream clock with this.
  void reset();

  const VmStreamOptions& options() const { return opts_; }

  // Bounds: the issue log and capture list stop growing past these (the
  // schedule itself stays exact).
  static constexpr std::size_t kMaxIssueRecords = 1 << 18;
  static constexpr std::size_t kMaxPlacedLaunches = 256;

 private:
  struct Track {
    std::int64_t end = 0;        // end of the last placed interval
    std::int64_t busy = 0;       // total placed busy cycles
    std::int64_t flag = 0;       // total launch-attributed flag cycles
    bool used = false;
  };

  struct BufferState {
    std::int64_t last_write_end = 0;  // completion of the last writer
    std::int64_t last_read_end = 0;   // completion of the last reader
  };

  static int track_index(int core, int pipe) {
    return core * PipeScheduler::kNumPipes + pipe;
  }

  VmStreamOptions opts_;

  mutable std::mutex mu_;
  std::vector<Track> tracks_;           // indexed by track_index
  int max_core_ = -1;                   // highest core seen
  std::deque<std::int64_t> window_;     // completions of in-flight launches
  std::unordered_map<BufferId, BufferState> buffers_;
  std::int64_t seq_ = 0;
  std::int64_t makespan_ = 0;
  std::int64_t serial_sum_ = 0;
  std::int64_t window_stalls_ = 0;
  std::int64_t hazard_stalls_ = 0;
  std::vector<IssueRecord> issue_log_;
  bool issue_log_truncated_ = false;
  std::vector<PlacedLaunch> placed_;
};

}  // namespace davinci::vm
