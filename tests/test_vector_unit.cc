// Unit tests for the Vector Unit: instruction semantics, mask gating,
// repeat strides, the reduction idiom, and cycle accounting.
#include "sim/vector_unit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/check.h"
#include "sim/scratch.h"

namespace davinci {
namespace {

class VectorUnitTest : public ::testing::Test {
 protected:
  VectorUnitTest()
      : ub_(BufferKind::kUnified, 64 * 1024), vec_(arch_, cost_, ledger_) {}

  Span<Float16> alloc_filled(std::int64_t n, float v) {
    auto s = ub_.alloc<Float16>(n);
    for (std::int64_t i = 0; i < n; ++i) s.at(i) = Float16(v);
    return s;
  }

  ArchConfig arch_;
  CostModel cost_;
  CoreLedger ledger_;
  const CycleStats& stats_ = ledger_.stats;
  ScratchBuffer ub_;
  VectorUnit vec_;
};

TEST_F(VectorUnitTest, MaskFirstN) {
  EXPECT_EQ(VecMask::first_n(0).count(), 0);
  EXPECT_EQ(VecMask::first_n(16).count(), 16);
  EXPECT_EQ(VecMask::first_n(64).count(), 64);
  EXPECT_EQ(VecMask::first_n(100).count(), 100);
  EXPECT_EQ(VecMask::first_n(128).count(), 128);
  EXPECT_EQ(VecMask::full().count(), 128);
  EXPECT_TRUE(VecMask::first_n(17).lane(16));
  EXPECT_FALSE(VecMask::first_n(17).lane(17));
  EXPECT_TRUE(VecMask::first_n(128).lane(127));
  EXPECT_THROW(VecMask::first_n(129), Error);
}

TEST_F(VectorUnitTest, BinaryOpsElementwise) {
  auto a = alloc_filled(128, 3.0f);
  auto b = alloc_filled(128, 4.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.binary(VecOp::kAdd, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 7.0f);
  EXPECT_EQ(d.at(127).to_float(), 7.0f);
  vec_.binary(VecOp::kMul, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(50).to_float(), 12.0f);
  vec_.binary(VecOp::kSub, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(3).to_float(), -1.0f);
  vec_.binary(VecOp::kMax, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(9).to_float(), 4.0f);
  vec_.binary(VecOp::kMin, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(9).to_float(), 3.0f);
  vec_.binary(VecOp::kDiv, d, b, a, VecConfig::flat(1));
  EXPECT_NEAR(d.at(0).to_float(), 4.0f / 3.0f, 1e-3f);
}

TEST_F(VectorUnitTest, MaskGatesLanes) {
  auto a = alloc_filled(128, 1.0f);
  auto b = alloc_filled(128, 2.0f);
  auto d = alloc_filled(128, -9.0f);
  VecConfig cfg = VecConfig::flat(1);
  cfg.mask = VecMask::first_n(16);
  vec_.binary(VecOp::kAdd, d, a, b, cfg);
  EXPECT_EQ(d.at(15).to_float(), 3.0f);
  EXPECT_EQ(d.at(16).to_float(), -9.0f);  // untouched
}

TEST_F(VectorUnitTest, RepeatAdvancesByStrides) {
  auto a = alloc_filled(256, 1.0f);
  auto b = alloc_filled(256, 2.0f);
  auto d = alloc_filled(256, 0.0f);
  VecConfig cfg = VecConfig::flat(2);  // default strides 128
  vec_.binary(VecOp::kAdd, d, a, b, cfg);
  EXPECT_EQ(d.at(0).to_float(), 3.0f);
  EXPECT_EQ(d.at(255).to_float(), 3.0f);
}

TEST_F(VectorUnitTest, ReductionIdiomWithZeroDstStride) {
  // dst stride 0 with dst == src0 accumulates across repeats -- the
  // "vmax uses repetition to obtain the maximum across Kw" idiom.
  auto src = ub_.alloc<Float16>(3 * 16);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 16; ++c) {
      src.at(r * 16 + c) = Float16(static_cast<float>(r == 1 ? 10 + c : c));
    }
  }
  auto acc = alloc_filled(16, -100.0f);
  VecConfig cfg;
  cfg.mask = VecMask::first_n(16);
  cfg.repeat = 3;
  cfg.dst_rep_stride = 0;
  cfg.src0_rep_stride = 0;
  cfg.src1_rep_stride = 16;
  vec_.binary(VecOp::kMax, acc, acc, src, cfg);
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(acc.at(c).to_float(), static_cast<float>(10 + c));
  }
}

TEST_F(VectorUnitTest, DupAddsMuls) {
  auto d = ub_.alloc<Float16>(128);
  vec_.dup(d, Float16(5.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(77).to_float(), 5.0f);
  auto s = alloc_filled(128, 3.0f);
  vec_.adds(d, s, Float16(2.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 5.0f);
  vec_.muls(d, s, Float16(4.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 12.0f);
}

TEST_F(VectorUnitTest, CmpvEqProducesIndicator) {
  auto a = alloc_filled(128, 1.0f);
  auto b = alloc_filled(128, 1.0f);
  b.at(5) = Float16(2.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.cmpv_eq(d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 1.0f);
  EXPECT_EQ(d.at(5).to_float(), 0.0f);
}

TEST_F(VectorUnitTest, SelSelectsByCondition) {
  auto cond = alloc_filled(128, 0.0f);
  cond.at(2) = Float16(1.0f);
  auto a = alloc_filled(128, 10.0f);
  auto b = alloc_filled(128, 20.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.sel(d, cond, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(2).to_float(), 10.0f);
  EXPECT_EQ(d.at(3).to_float(), 20.0f);
}

TEST_F(VectorUnitTest, CycleAccounting) {
  auto a = alloc_filled(256, 1.0f);
  auto d = ub_.alloc<Float16>(256);
  VecConfig cfg = VecConfig::flat(2);
  cfg.mask = VecMask::first_n(16);
  vec_.binary(VecOp::kAdd, d, a, a, cfg);
  EXPECT_EQ(stats_.vector_instrs, 1);
  EXPECT_EQ(stats_.vector_repeats, 2);
  EXPECT_EQ(stats_.vector_active_lanes, 32);
  EXPECT_EQ(stats_.vector_cycles, cost_.vec_issue_overhead + 2);
  EXPECT_NEAR(stats_.lane_utilization(), 16.0 / 128.0, 1e-9);
}

// Every instruction books its active lanes: a prefix mask's lane count
// (taken from its run of trailing ones) and a sparse mask's popcount.
TEST_F(VectorUnitTest, ActiveLaneAccountingMatchesMaskCount) {
  auto a = alloc_filled(512, 1.0f);
  auto d = ub_.alloc<Float16>(512);
  VecMask sparse;
  sparse.lo = 0x5555555555555555ull;  // every other lane of the low half
  sparse.hi = 0x8000000000000001ull;
  const VecMask masks[] = {VecMask::first_n(0),  VecMask::first_n(1),
                           VecMask::first_n(16), VecMask::first_n(63),
                           VecMask::first_n(64), VecMask::first_n(65),
                           VecMask::first_n(127), VecMask::first_n(128),
                           sparse};
  std::int64_t want = 0;
  for (const VecMask& m : masks) {
    VecConfig cfg = VecConfig::flat(3);
    cfg.mask = m;
    vec_.binary(VecOp::kAdd, d, a, a, cfg);
    vec_.dup(d, Float16(2.0f), cfg);
    vec_.adds(d, a, Float16(1.0f), cfg);
    vec_.muls(d, a, Float16(1.0f), cfg);
    vec_.cmpv_eq(d, a, a, cfg);
    vec_.sel(d, a, a, a, cfg);
    want += 6 * 3 * m.count();
  }
  EXPECT_EQ(sparse.count(), 34);
  EXPECT_EQ(stats_.vector_active_lanes, want);
  EXPECT_EQ(stats_.traffic.ub_vector_bytes, 2 * want);
}

// The prefix-mask dup rows against the serial store loop, over every
// lane count, with repeat strides shorter than a row (overlapping rows)
// and longer (gaps left untouched).
TEST_F(VectorUnitTest, DupMatchesSerialStoreLoop) {
  const Float16 fill = Float16::from_bits(0x3C01);
  const Float16 v = Float16::from_bits(0xFBFF);
  for (int lanes = 1; lanes <= 128; ++lanes) {
    for (std::int64_t stride : {0, 7, 16, 130}) {
      std::vector<Float16> want(8 * 130 + 128, fill);
      for (int rep = 0; rep < 8; ++rep) {
        for (int l = 0; l < lanes; ++l) want[rep * stride + l] = v;
      }
      ub_.reset();
      auto d = ub_.alloc<Float16>(static_cast<std::int64_t>(want.size()));
      for (std::int64_t i = 0; i < d.size(); ++i) d.at(i) = fill;
      VecConfig cfg = VecConfig::flat(8);
      cfg.mask = VecMask::first_n(lanes);
      cfg.dst_rep_stride = stride;
      vec_.dup(d, v, cfg);
      for (std::int64_t i = 0; i < d.size(); ++i) {
        ASSERT_EQ(d.at(i).bits(), want[static_cast<std::size_t>(i)].bits())
            << "lanes " << lanes << " stride " << stride << " element " << i;
      }
    }
  }
}

TEST_F(VectorUnitTest, RejectsNonUbOperands) {
  ScratchBuffer l1(BufferKind::kL1, 1024);
  auto bad = l1.alloc<Float16>(128);
  auto ok = ub_.alloc<Float16>(128);
  EXPECT_THROW(vec_.binary(VecOp::kAdd, ok, ok, bad, VecConfig::flat(1)),
               Error);
  EXPECT_THROW(vec_.dup(bad, Float16(), VecConfig::flat(1)), Error);
}

TEST_F(VectorUnitTest, RejectsRepeatOutOfRange) {
  auto a = ub_.alloc<Float16>(128);
  VecConfig cfg = VecConfig::flat(256);  // max_repeat is 255
  EXPECT_THROW(vec_.dup(a, Float16(), cfg), Error);
  cfg.repeat = 0;
  EXPECT_THROW(vec_.dup(a, Float16(), cfg), Error);
}

TEST_F(VectorUnitTest, OutOfBoundsActiveLaneThrows) {
  auto a = ub_.alloc<Float16>(100);  // < 128
  EXPECT_THROW(vec_.dup(a, Float16(), VecConfig::flat(1)), Error);
  // But with a mask covering only the first 100 lanes it is fine.
  VecConfig cfg = VecConfig::flat(1);
  cfg.mask = VecMask::first_n(100);
  vec_.dup(a, Float16(3.0f), cfg);
  EXPECT_EQ(a.at(99).to_float(), 3.0f);
}

// The prefix-mask fast path runs on the fp16 row kernels (AVX2/F16C where
// the CPU has them): vmax/vmin order by a signed-magnitude bits key,
// arithmetic converts through binary32 in hardware. Sweep a value set
// covering every encoding class (zeros of both signs, subnormals, normals,
// infinities, NaN) through every row-kernel instruction against the
// Float16 operators and fmax16/fmin16 -- results must match bit-for-bit,
// including the which-operand-wins tie rule for -0/+0, the "number wins"
// NaN rule, NaN canonicalization and -0 == +0 for vcmpv_eq.
TEST_F(VectorUnitTest, FastPathMatchesReferenceOnSpecialValues) {
  const std::uint16_t specials[] = {
      0x0000, 0x8000,          // +0, -0
      0x0001, 0x8001, 0x03FF,  // subnormals
      0x0400, 0x8400,          // smallest normals
      0x3C00, 0xBC00,          // +-1
      0x7BFF, 0xFBFF,          // +-max finite
      0x7C00, 0xFC00,          // +-inf
      0x7C01, 0x7E00, 0xFE00,  // NaNs
  };
  const int n = static_cast<int>(std::size(specials));
  auto a = ub_.alloc<Float16>(128);
  auto b = ub_.alloc<Float16>(128);
  auto d = ub_.alloc<Float16>(128);
  const VecConfig cfg = VecConfig::flat(1);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Float16 x = Float16::from_bits(specials[i]);
      const Float16 y = Float16::from_bits(specials[j]);
      for (int k = 0; k < 128; ++k) {
        a.at(k) = x;
        b.at(k) = y;
      }
      const auto expect_all = [&](Float16 want, const char* op) {
        for (int k = 0; k < 128; ++k) {
          ASSERT_EQ(d.at(k).bits(), want.bits())
              << op << " " << specials[i] << " vs " << specials[j]
              << " lane " << k;
        }
      };
      vec_.binary(VecOp::kMax, d, a, b, cfg);
      expect_all(fmax16(x, y), "vmax");
      vec_.binary(VecOp::kMin, d, a, b, cfg);
      expect_all(fmin16(x, y), "vmin");
      vec_.binary(VecOp::kAdd, d, a, b, cfg);
      expect_all(x + y, "vadd");
      vec_.binary(VecOp::kSub, d, a, b, cfg);
      expect_all(x - y, "vsub");
      vec_.binary(VecOp::kMul, d, a, b, cfg);
      expect_all(x * y, "vmul");
      vec_.adds(d, a, y, cfg);
      expect_all(x + y, "vadds");
      vec_.muls(d, a, y, cfg);
      expect_all(x * y, "vmuls");
      vec_.cmpv_eq(d, a, b, cfg);
      expect_all(Float16(x == y ? 1.0f : 0.0f), "vcmpv_eq");
    }
  }
}

// A destination that starts inside src0's row at a higher address reads
// lanes the same instruction has already written; the unit must keep that
// serial lane order. The read-ahead reduction idiom (dst == src0, src1
// above dst) must match the same serial loop.
TEST_F(VectorUnitTest, OverlappingOperandsKeepSerialLaneOrder) {
  const auto fill = [](Span<Float16> s, float base) {
    for (std::int64_t i = 0; i < s.size(); ++i) {
      s.at(i) = Float16(base + static_cast<float>(i % 7) * 0.375f);
    }
  };
  const auto copy = [](Span<Float16> s) {
    std::vector<Float16> v(static_cast<std::size_t>(s.size()));
    for (std::int64_t i = 0; i < s.size(); ++i) v[i] = s.at(i);
    return v;
  };
  for (int k : {1, 8, 15}) {
    auto x = ub_.alloc<Float16>(128 + k);
    auto y = ub_.alloc<Float16>(128);
    fill(x, 1.0f);
    fill(y, 0.5f);
    std::vector<Float16> want = copy(x);
    for (int lane = 0; lane < 128; ++lane) {
      want[k + lane] = want[lane] + y.at(lane);
    }
    vec_.binary(VecOp::kAdd, x.drop_front(k), x, y, VecConfig::flat(1));
    for (int i = 0; i < 128 + k; ++i) {
      ASSERT_EQ(x.at(i).bits(), want[i].bits()) << "k=" << k << " i=" << i;
    }
  }
  for (int w : {64, 40}) {
    auto acc = ub_.alloc<Float16>(128);
    fill(acc, 2.0f);
    std::vector<Float16> want = copy(acc);
    for (int lane = 0; lane < w; ++lane) {
      want[lane] = want[lane] + want[w + lane];
    }
    VecConfig cfg;
    cfg.mask = VecMask::first_n(w);
    vec_.binary(VecOp::kAdd, acc, acc, acc.drop_front(w), cfg);
    for (int i = 0; i < 128; ++i) {
      ASSERT_EQ(acc.at(i).bits(), want[i].bits()) << "w=" << w << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace davinci
