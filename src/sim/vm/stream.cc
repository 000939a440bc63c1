#include "sim/vm/stream.h"

#include <algorithm>

#include "common/check.h"

namespace davinci::vm {

VmStream::VmStream(VmStreamOptions opts) : opts_(opts) {
  DV_CHECK_GE(opts_.in_flight, 1);
}

std::int64_t VmStream::enqueue(VmLaunch launch) {
  std::lock_guard<std::mutex> lock(mu_);

  for (const CoreWork& cw : launch.cores) {
    DV_CHECK_GE(cw.core, 0);
    if (cw.core > max_core_) max_core_ = cw.core;
  }
  tracks_.resize(
      static_cast<std::size_t>(track_index(max_core_ + 1, 0)));

  // Earliest feasible shift: every (core, pipe) op of the launch must
  // land at or after its track's last occupant.
  std::int64_t delta = 0;
  for (const CoreWork& cw : launch.cores) {
    for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
      const PipeWork& pw = cw.pipes[pi];
      if (pw.first_busy < 0) continue;
      const Track& t = tracks_[static_cast<std::size_t>(
          track_index(cw.core, pi))];
      delta = std::max(delta, t.end - pw.first_busy);
    }
  }

  // UB-slot window: at most in_flight launches may overlap, so this
  // launch waits for launch k-W to complete.
  if (static_cast<int>(window_.size()) >= opts_.in_flight) {
    const std::int64_t floor =
        window_[window_.size() - static_cast<std::size_t>(opts_.in_flight)];
    if (floor > delta) {
      delta = floor;
      window_stalls_ += 1;
    }
  }

  // Buffer hazards: RAW (our reads after their writes), WAR and WAW
  // (our writes after their reads/writes).
  {
    std::int64_t floor = 0;
    for (BufferId id : launch.reads) {
      auto it = buffers_.find(id);
      if (it != buffers_.end()) {
        floor = std::max(floor, it->second.last_write_end);
      }
    }
    for (BufferId id : launch.writes) {
      auto it = buffers_.find(id);
      if (it != buffers_.end()) {
        floor = std::max(floor, std::max(it->second.last_write_end,
                                         it->second.last_read_end));
      }
    }
    if (floor > delta) {
      delta = floor;
      hazard_stalls_ += 1;
    }
  }

  const std::int64_t start = delta;
  const std::int64_t end = delta + launch.makespan;
  seq_ += 1;

  // Commit: shift every op onto its track and log the issue.
  for (const CoreWork& cw : launch.cores) {
    for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
      const PipeWork& pw = cw.pipes[pi];
      if (pw.first_busy < 0) continue;
      Track& t =
          tracks_[static_cast<std::size_t>(track_index(cw.core, pi))];
      DV_CHECK_GE(delta + pw.first_busy, t.end)
          << "VM op overlaps its track";
      t.used = true;
      t.busy += pw.busy;
      t.flag += pw.flag;
      t.end = std::max(t.end, delta + pw.last_busy);
      if (issue_log_.size() < kMaxIssueRecords) {
        issue_log_.push_back({seq_, cw.core, static_cast<Pipe>(pi),
                              delta + pw.first_busy, delta + pw.last_busy,
                              pw.busy});
      } else {
        issue_log_truncated_ = true;
      }
    }
  }

  for (BufferId id : launch.reads) {
    BufferState& b = buffers_[id];
    b.last_read_end = std::max(b.last_read_end, end);
  }
  for (BufferId id : launch.writes) {
    BufferState& b = buffers_[id];
    b.last_write_end = std::max(b.last_write_end, end);
  }

  window_.push_back(end);
  if (static_cast<int>(window_.size()) > opts_.in_flight) {
    window_.pop_front();
  }

  makespan_ = std::max(makespan_, end);
  serial_sum_ += launch.makespan;

  if (opts_.capture && placed_.size() < kMaxPlacedLaunches) {
    PlacedLaunch p;
    p.seq = seq_;
    p.label = std::move(launch.label);
    p.start = start;
    p.end = end;
    p.cores = std::move(launch.cores);
    placed_.push_back(std::move(p));
  }
  return start;
}

VmStream::Stats VmStream::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.launches = seq_;
  s.makespan = makespan_;
  s.serial_sum = serial_sum_;
  s.overlap_cycles = serial_sum_ - makespan_;
  s.window_stalls = window_stalls_;
  s.hazard_stalls = hazard_stalls_;
  s.tracked_buffers = static_cast<std::int64_t>(buffers_.size());
  s.in_flight = opts_.in_flight;
  for (int c = 0; c <= max_core_; ++c) {
    for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
      const Track& t =
          tracks_[static_cast<std::size_t>(track_index(c, pi))];
      if (!t.used) continue;
      PipeStream& ps = s.streams[pi];
      // Per-track buckets against the stream makespan: flag cycles that
      // fell under another launch's busy time are clamped into busy (the
      // pipe was occupied, not stalled), so the four buckets sum exactly
      // to the makespan for every track -- the PR-4 invariant, held
      // across batch boundaries.
      const std::int64_t flag = std::min(t.flag, t.end - t.busy);
      ps.tracks += 1;
      ps.busy += t.busy;
      ps.flag += flag;
      ps.wait += t.end - t.busy - flag;
      ps.idle += makespan_ - t.end;
    }
  }
  for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
    PipeStream& ps = s.streams[pi];
    const double span =
        static_cast<double>(makespan_) * static_cast<double>(ps.tracks);
    ps.occupancy = span > 0.0 ? static_cast<double>(ps.busy) / span : 0.0;
  }
  return s;
}

std::vector<IssueRecord> VmStream::issue_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return issue_log_;
}

bool VmStream::issue_log_truncated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return issue_log_truncated_;
}

std::string VmStream::issue_signature() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string sig;
  sig.reserve(issue_log_.size() * 24);
  for (const IssueRecord& r : issue_log_) {
    sig += std::to_string(r.launch) + ":" + std::to_string(r.core) + ":" +
           std::to_string(static_cast<int>(r.pipe)) + ":" +
           std::to_string(r.start) + ":" + std::to_string(r.end) + "\n";
  }
  return sig;
}

std::vector<PlacedLaunch> VmStream::placements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return placed_;
}

void VmStream::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.clear();
  max_core_ = -1;
  window_.clear();
  buffers_.clear();
  seq_ = 0;
  makespan_ = 0;
  serial_sum_ = 0;
  window_stalls_ = 0;
  hazard_stalls_ = 0;
  issue_log_.clear();
  issue_log_truncated_ = false;
  placed_.clear();
}

}  // namespace davinci::vm
