// Parity of the two fp16 row-kernel implementations: the AVX2/F16C
// kernels must reproduce the portable kernels bit for bit over every
// binary16 encoding of the first operand (NaN, infinities, subnormals and
// signed zeros included) against a strided set of second operands.
#include "common/f16_simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/prng.h"

namespace davinci {
namespace {

constexpr std::int64_t kAll = 65536;
// Every 251st encoding: 262 second operands spread over all classes.
constexpr std::uint32_t kStride = 251;

constexpr Fp16RowOp kBinaryOps[] = {Fp16RowOp::kAdd, Fp16RowOp::kSub,
                                    Fp16RowOp::kMul, Fp16RowOp::kMax,
                                    Fp16RowOp::kMin, Fp16RowOp::kCmpEq};

const char* name(Fp16RowOp op) {
  switch (op) {
    case Fp16RowOp::kAdd: return "add";
    case Fp16RowOp::kSub: return "sub";
    case Fp16RowOp::kMul: return "mul";
    case Fp16RowOp::kMax: return "max";
    case Fp16RowOp::kMin: return "min";
    case Fp16RowOp::kCmpEq: return "cmpeq";
  }
  return "?";
}

std::vector<Float16> all_encodings() {
  std::vector<Float16> v(kAll);
  for (std::int64_t i = 0; i < kAll; ++i) {
    v[i] = Float16::from_bits(static_cast<std::uint16_t>(i));
  }
  return v;
}

// Index of the first lane whose bits differ, or -1.
std::int64_t first_mismatch(const std::vector<Float16>& x,
                            const std::vector<Float16>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].bits() != y[i].bits()) return static_cast<std::int64_t>(i);
  }
  return -1;
}

class Fp16SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    simd_ = fp16_simd_row_kernels();
    if (simd_ == nullptr) GTEST_SKIP() << "CPU lacks AVX2/F16C";
  }

  const Fp16RowKernels& ref_ = fp16_portable_row_kernels();
  const Fp16RowKernels* simd_ = nullptr;
};

TEST_F(Fp16SimdParityTest, BinaryRowsMatchPortable) {
  const std::vector<Float16> a = all_encodings();
  std::vector<Float16> b(kAll), want(kAll), got(kAll);
  for (Fp16RowOp op : kBinaryOps) {
    for (std::uint32_t bb = 0; bb < kAll; bb += kStride) {
      b.assign(kAll, Float16::from_bits(static_cast<std::uint16_t>(bb)));
      ref_.binary(op, want.data(), a.data(), b.data(), kAll, {});
      simd_->binary(op, got.data(), a.data(), b.data(), kAll, {});
      const std::int64_t i = first_mismatch(want, got);
      ASSERT_EQ(i, -1) << name(op) << " a=" << i << " b=" << bb << ": "
                       << want[i].bits() << " vs " << got[i].bits();
    }
  }
}

TEST_F(Fp16SimdParityTest, ScalarRowsMatchPortable) {
  const std::vector<Float16> a = all_encodings();
  std::vector<Float16> want(kAll), got(kAll);
  for (Fp16RowOp op : {Fp16RowOp::kAdd, Fp16RowOp::kMul}) {
    for (std::uint32_t sb = 0; sb < kAll; sb += kStride) {
      const Float16 s = Float16::from_bits(static_cast<std::uint16_t>(sb));
      ref_.scalar(op, want.data(), a.data(), s, kAll, {});
      simd_->scalar(op, got.data(), a.data(), s, kAll, {});
      const std::int64_t i = first_mismatch(want, got);
      ASSERT_EQ(i, -1) << name(op) << " a=" << i << " s=" << sb << ": "
                       << want[i].bits() << " vs " << got[i].bits();
    }
  }
}

// The broadcast rows store the same bits as the serial loop over every
// encoding, row length and a stride shorter than the row.
TEST_F(Fp16SimdParityTest, DupRowsMatchSerialLoop) {
  const Float16 fill = Float16::from_bits(0x1234);
  for (std::uint32_t sb = 0; sb < kAll; sb += 97) {
    const Float16 s = Float16::from_bits(static_cast<std::uint16_t>(sb));
    for (std::int64_t n : {1, 15, 16, 17, 100, 128}) {
      for (std::int64_t stride : {std::int64_t{5}, n + 3}) {
        const Fp16Repeat rows{.rows = 4, .d_stride = stride};
        std::vector<Float16> want(4 * (n + 3) + n, fill);
        for (std::int64_t r = 0; r < rows.rows; ++r) {
          for (std::int64_t i = 0; i < n; ++i) want[r * stride + i] = s;
        }
        std::vector<Float16> got(want.size(), fill);
        std::vector<Float16> ref(want.size(), fill);
        simd_->dup(got.data(), s, n, rows);
        ref_.dup(ref.data(), s, n, rows);
        ASSERT_EQ(first_mismatch(want, got), -1)
            << "simd s=" << sb << " n=" << n << " stride=" << stride;
        ASSERT_EQ(first_mismatch(want, ref), -1)
            << "portable s=" << sb << " n=" << n << " stride=" << stride;
      }
    }
  }
}

// Col2Im accumulates C0 rows in place, o = fp16(o + s) over 16 lanes, as
// one repeat per output row: in-image patches sit sw C0 rows apart in the
// image and one C0 row apart in the column buffer.
TEST_F(Fp16SimdParityTest, InPlaceCol2imRowsMatchPortable) {
  std::vector<Float16> want = all_encodings();
  std::vector<Float16> got = want;
  std::vector<Float16> s(kAll / 2);
  Xoshiro256 rng(5);
  for (auto& v : s) {
    v = Float16::from_bits(static_cast<std::uint16_t>(rng.next_below(kAll)));
  }
  const Fp16Repeat rows{.rows = kAll / 32,
                        .d_stride = 32,
                        .a_stride = 32,
                        .b_stride = 16};
  for (std::int64_t off : {0, 16}) {  // both parities of the stride-2 grid
    ref_.binary(Fp16RowOp::kAdd, &want[off], &want[off], s.data(), 16, rows);
    simd_->binary(Fp16RowOp::kAdd, &got[off], &got[off], s.data(), 16, rows);
  }
  const std::int64_t i = first_mismatch(want, got);
  EXPECT_EQ(i, -1) << "lane " << i;
}

// Repeats run in order, so rows may feed later rows: the vector unit's
// reduction idiom (dst == src0 with repeat stride 0) and a destination
// that starts inside its own source row must both match the serial loop.
TEST_F(Fp16SimdParityTest, OverlappingRepeatsMatchPortable) {
  Xoshiro256 rng(9);
  std::vector<Float16> src(1024);
  for (auto& v : src) v = Float16(static_cast<float>(rng.next_below(9)) - 4);
  for (Fp16RowOp op : kBinaryOps) {
    for (std::int64_t shift : {0, 1, 8, 15, 16, 40}) {
      std::vector<Float16> want = src, got = src;
      // Accumulate 12 rows of b into the row at `shift` (stride 0), whose
      // first lanes also overlap b's first row.
      const Fp16Repeat reduce{.rows = 12, .b_stride = 48};
      ref_.binary(op, &want[shift], &want[shift], &want[0], 48, reduce);
      simd_->binary(op, &got[shift], &got[shift], &got[0], 48, reduce);
      ASSERT_EQ(first_mismatch(want, got), -1) << name(op) << " " << shift;
      // Destination rows start inside their source rows.
      const Fp16Repeat chase{
          .rows = 6, .d_stride = 64, .a_stride = 64, .b_stride = 64};
      ref_.binary(op, &want[shift], &want[0], &want[512], 48, chase);
      simd_->binary(op, &got[shift], &got[0], &got[512], 48, chase);
      ASSERT_EQ(first_mismatch(want, got), -1) << name(op) << " " << shift;
      ref_.scalar(op, &want[shift], &want[0], src[3], 48, chase);
      simd_->scalar(op, &got[shift], &got[0], src[3], 48, chase);
      ASSERT_EQ(first_mismatch(want, got), -1) << name(op) << " " << shift;
    }
  }
}

// Rows whose length is not a multiple of 16 end in a partial step; no lane
// past n may be written.
TEST_F(Fp16SimdParityTest, PartialRowsMatchPortable) {
  Xoshiro256 rng(7);
  std::vector<Float16> a(64), b(64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = Float16::from_bits(static_cast<std::uint16_t>(rng.next_below(kAll)));
    b[i] = Float16::from_bits(static_cast<std::uint16_t>(rng.next_below(kAll)));
  }
  const Float16 sentinel = Float16::from_bits(0x1234);
  for (Fp16RowOp op : kBinaryOps) {
    for (std::int64_t n = 1; n < 48; ++n) {
      std::vector<Float16> want(64, sentinel), got(64, sentinel);
      ref_.binary(op, want.data(), a.data(), b.data(), n, {});
      simd_->binary(op, got.data(), a.data(), b.data(), n, {});
      ASSERT_EQ(first_mismatch(want, got), -1) << name(op) << " n=" << n;
      ref_.scalar(op, want.data(), a.data(), b[3], n, {});
      simd_->scalar(op, got.data(), a.data(), b[3], n, {});
      ASSERT_EQ(first_mismatch(want, got), -1) << name(op) << " s n=" << n;
      EXPECT_EQ(got[n].bits(), sentinel.bits()) << name(op) << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace davinci
