// Tests for the cycle-statistics counters and the Profile view.
#include "sim/stats.h"

#include <gtest/gtest.h>

namespace davinci {
namespace {

TEST(CycleStats, TotalIsSumOfPipes) {
  CycleStats s;
  s.vector_cycles = 10;
  s.scalar_cycles = 5;
  s.mte_cycles = 7;
  s.scu_cycles = 3;
  s.cube_cycles = 2;
  s.barrier_cycles = 1;
  s.launch_cycles = 4;
  EXPECT_EQ(s.total_cycles(), 32);
}

TEST(CycleStats, LaneUtilization) {
  CycleStats s;
  EXPECT_EQ(s.lane_utilization(), 0.0);  // no repeats yet
  s.vector_repeats = 10;
  s.vector_active_lanes = 10 * 16;
  EXPECT_NEAR(s.lane_utilization(), 0.125, 1e-12);
  s.vector_active_lanes = 10 * 128;
  EXPECT_NEAR(s.lane_utilization(), 1.0, 1e-12);
}

TEST(CycleStats, MergeAccumulatesEverything) {
  CycleStats a, b;
  a.vector_cycles = 1;
  a.vector_instrs = 2;
  a.im2col_fractals = 3;
  b.vector_cycles = 10;
  b.vector_instrs = 20;
  b.im2col_fractals = 30;
  b.col2im_instrs = 5;
  b.mte_bytes = 100;
  b.mte_payload_cycles = 6;
  b.im2col_saturated_instrs = 7;
  b.col2im_saturated_instrs = 8;
  a += b;
  EXPECT_EQ(a.vector_cycles, 11);
  EXPECT_EQ(a.vector_instrs, 22);
  EXPECT_EQ(a.im2col_fractals, 33);
  EXPECT_EQ(a.col2im_instrs, 5);
  EXPECT_EQ(a.mte_bytes, 100);
  EXPECT_EQ(a.mte_payload_cycles, 6);
  EXPECT_EQ(a.im2col_saturated_instrs, 7);
  EXPECT_EQ(a.col2im_saturated_instrs, 8);
}

TEST(UnitOccupancy, RatiosDefinedWhenIdle) {
  UnitOccupancy u;
  EXPECT_EQ(u.occupancy(), 0.0);  // idle unit, no division by zero
  EXPECT_EQ(u.saturation(), 0.0);
  u.instrs = 4;
  u.slots_used = 64;
  u.slots_capacity = 128;
  u.saturated_instrs = 1;
  EXPECT_NEAR(u.occupancy(), 0.5, 1e-12);
  EXPECT_NEAR(u.saturation(), 0.25, 1e-12);
}

TEST(CycleStats, CountVectorInstrTracksLanesSaturationAndHistogram) {
  CycleStats s;
  s.count_vector_instr(16, 128, 10);  // direct pooling: one C0 group
  s.count_vector_instr(128, 128, 2);  // im2col pooling: full mask
  EXPECT_EQ(s.vector_instrs, 2);
  EXPECT_EQ(s.vector_repeats, 12);
  EXPECT_EQ(s.vector_active_lanes, 16 * 10 + 128 * 2);
  EXPECT_EQ(s.traffic.ub_vector_bytes, 2 * (16 * 10 + 128 * 2));
  EXPECT_EQ(s.vector_saturated_instrs, 1);
  EXPECT_EQ(s.vector_lane_hist[0], 1);  // 16 lanes -> first bucket
  EXPECT_EQ(s.vector_lane_hist[7], 1);  // 128 lanes -> saturated bucket
  CycleStats merged = s;
  merged += s;
  EXPECT_EQ(merged.vector_saturated_instrs, 2);
  EXPECT_EQ(merged.vector_lane_hist[0] + merged.vector_lane_hist[7], 4);
}

// Profile is a view: every occupancy follows from the counters and the
// configuration they were charged under.
TEST(Profile, DerivedFromCycleStats) {
  ArchConfig arch;
  arch.max_repeat = 4;
  CostModel cost;
  cost.cube_cycles_per_fractal_mac = 2;
  CycleStats s;
  s.count_vector_instr(16, 128, 10);
  s.count_vector_instr(128, 128, 2);
  s.im2col_instrs = 2;
  s.im2col_fractals = 4;
  s.im2col_saturated_instrs = 1;
  s.col2im_instrs = 1;
  s.col2im_fractals = 1;
  s.cube_instrs = 1;
  s.cube_fractal_macs = 3;
  s.cube_cycles = 12;
  s.mte_transfers = 1;
  s.mte_payload_cycles = 10;
  s.mte_cycles = 20;
  const Profile p(s, arch, cost);
  EXPECT_EQ(p.vec.instrs, 2);
  EXPECT_EQ(p.vec.slots_used, 16 * 10 + 128 * 2);
  EXPECT_EQ(p.vec.slots_capacity, 128 * 12);
  EXPECT_EQ(p.vec.saturated_instrs, 1);
  EXPECT_NEAR(p.vec_lane_utilization(), s.lane_utilization(), 1e-12);
  EXPECT_NEAR(p.im2col.occupancy(), 0.5, 1e-12);  // 4 of 2 * max_repeat
  EXPECT_NEAR(p.im2col.saturation(), 0.5, 1e-12);
  EXPECT_NEAR(p.col2im.occupancy(), 0.25, 1e-12);
  EXPECT_NEAR(p.cube.occupancy(), 0.5, 1e-12);  // 3 MACs * 2 of 12
  EXPECT_NEAR(p.mte.occupancy(), 0.5, 1e-12);
  const std::string text = p.summary();
  EXPECT_NE(text.find("vec="), std::string::npos);
  EXPECT_NE(text.find("im2col=50%"), std::string::npos);
  EXPECT_NE(text.find("col2im=25%"), std::string::npos);
  EXPECT_NE(text.find("mte=50%"), std::string::npos);
}

TEST(CycleStats, SummaryMentionsKeyFields) {
  CycleStats s;
  s.vector_cycles = 42;
  s.vector_instrs = 7;
  const std::string text = s.summary();
  EXPECT_NE(text.find("cycles=42"), std::string::npos);
  EXPECT_NE(text.find("vinstr=7"), std::string::npos);
  EXPECT_NE(text.find("lane_util"), std::string::npos);
}

}  // namespace
}  // namespace davinci
