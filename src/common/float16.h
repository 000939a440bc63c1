// IEEE-754 binary16 (half precision) implemented from scratch.
//
// Float16 is the data type the paper adopts throughout ("The data type
// Float16 is adopted in this paper", Section III-B): the fractal layout
// constant C0 equals 16 precisely because a 16-element row of Float16
// values is 256 bits, and a 16x16 fractal is the 4096-bit unit consumed
// by the Cube Unit.
//
// Arithmetic is performed by converting to float, operating, and rounding
// back to half with round-to-nearest-even, which matches the behaviour of
// a hardware FP16 ALU for the single operations used by the simulator
// (max/min/add/sub/mul are correctly rounded this way; div too since
// binary32 has more than 2x the precision of binary16).
//
// This header is the software definition: one value at a time, used by
// the reference kernels in src/ref/ and by the simulator's scalar paths.
// The simulator's bulk lanes (prefix-masked vector instructions, Col2Im
// rows) run through common/f16_simd.h, whose AVX2/F16C kernels convert in
// hardware (vcvtph2ps / vcvtps2ph) and are bit-identical to these
// operators, NaN results included.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

namespace davinci {

namespace detail {

// Bit-exact float <-> uint32 transmutation.
inline std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float float_of(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Convert a binary32 value to binary16 bits with round-to-nearest-even,
// handling subnormals, overflow to infinity, and NaN payload preservation
// (quietened).
inline std::uint16_t f32_to_f16_bits(float value) {
  const std::uint32_t x = bits_of(value);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {  // Inf or NaN
    if (abs > 0x7F800000u) {
      // NaN: keep it a NaN; set the quiet bit.
      return static_cast<std::uint16_t>(sign | 0x7E00u);
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  const int exp32 = static_cast<int>(abs >> 23);      // biased by 127
  const int exp16 = exp32 - 127 + 15;                 // biased by 15

  // |x| >= 65536 overflows here; [65520, 65536) -- at least half an ulp
  // above the max finite half, 65504 -- rounds up to infinity below.
  if (exp16 >= 0x1F) {  // overflow -> infinity
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  std::uint32_t mant = abs & 0x7FFFFFu;
  if (exp16 <= 0) {
    // Subnormal (or zero) in half precision.
    if (exp16 < -10) {  // Too small: rounds to +/-0.
      return static_cast<std::uint16_t>(sign);
    }
    // Add the implicit leading one, then shift right by (1 - exp16) + 13.
    mant |= 0x800000u;
    const int shift = 14 - exp16;  // 13 (mantissa diff) + (1 - exp16)
    const std::uint32_t kept = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t half = 1u << (shift - 1);
    std::uint32_t rounded = kept;
    if (rem > half || (rem == half && (kept & 1u))) {
      rounded += 1;  // May carry into the exponent; that is still correct.
    }
    return static_cast<std::uint16_t>(sign | rounded);
  }

  // Normalized: keep the top 10 mantissa bits, round on the low 13.
  const std::uint32_t kept = mant >> 13;
  const std::uint32_t rem = mant & 0x1FFFu;
  std::uint32_t out = sign | (static_cast<std::uint32_t>(exp16) << 10) | kept;
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) {
    out += 1;  // Carries correctly into exponent / infinity.
  }
  return static_cast<std::uint16_t>(out);
}

inline float f16_bits_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t mant = h & 0x3FFu;

  if (exp == 0) {
    if (mant == 0) return float_of(sign);  // +/-0
    // Subnormal: value = mant * 2^-24. Normalize into binary32.
    int e = -1;
    std::uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x400u) == 0);
    const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e);
    const std::uint32_t mant32 = (m & 0x3FFu) << 13;
    return float_of(sign | (exp32 << 23) | mant32);
  }
  if (exp == 0x1F) {
    if (mant == 0) return float_of(sign | 0x7F800000u);  // +/-inf
    return float_of(sign | 0x7FC00000u | (mant << 13));  // NaN
  }
  const std::uint32_t exp32 = exp - 15 + 127;
  return float_of(sign | (exp32 << 23) | (mant << 13));
}

// Lazily-built 64K-entry half-bits -> binary32 table: one load replaces
// the branchy software conversion. Only the portable row kernels of
// common/f16_simd.h use it -- the bulk-lane path on CPUs without
// AVX2/F16C, and the reference the AVX2/F16C kernels are tested against.
// Entries match f16_bits_to_f32 exactly by construction, so results are
// bit-identical to the conversion path.
inline const float* f16_to_f32_table() {
  static const float* const table = [] {
    float* t = new float[65536];
    for (std::uint32_t i = 0; i < 65536; ++i) {
      t[i] = f16_bits_to_f32(static_cast<std::uint16_t>(i));
    }
    return t;
  }();
  return table;
}

}  // namespace detail

// A 16-bit IEEE-754 half-precision float value.
class Float16 {
 public:
  constexpr Float16() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like a builtin.
  Float16(float value) : bits_(detail::f32_to_f16_bits(value)) {}

  static constexpr Float16 from_bits(std::uint16_t bits) {
    Float16 h;
    h.bits_ = bits;
    return h;
  }

  std::uint16_t bits() const { return bits_; }
  float to_float() const { return detail::f16_bits_to_f32(bits_); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator float() const { return to_float(); }

  bool is_nan() const {
    return ((bits_ & 0x7C00u) == 0x7C00u) && ((bits_ & 0x3FFu) != 0);
  }
  bool is_inf() const { return (bits_ & 0x7FFFu) == 0x7C00u; }
  bool is_zero() const { return (bits_ & 0x7FFFu) == 0; }

  // Largest finite half value: 65504.
  static constexpr Float16 max_finite() { return from_bits(0x7BFFu); }
  // Most negative finite half value: -65504. Used to initialise maxpool
  // accumulators ("the output tile is initialized with the minimum value
  // of the data type in use", Section V-A).
  static constexpr Float16 lowest() { return from_bits(0xFBFFu); }
  static constexpr Float16 infinity() { return from_bits(0x7C00u); }
  static constexpr Float16 neg_infinity() { return from_bits(0xFC00u); }
  // Smallest positive normal: 2^-14.
  static constexpr Float16 min_normal() { return from_bits(0x0400u); }
  // Machine epsilon for binary16: 2^-10.
  static float epsilon() { return 0.0009765625f; }

  friend bool operator==(Float16 a, Float16 b) {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Float16 a, Float16 b) { return !(a == b); }
  friend bool operator<(Float16 a, Float16 b) {
    return a.to_float() < b.to_float();
  }
  friend bool operator<=(Float16 a, Float16 b) {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>(Float16 a, Float16 b) {
    return a.to_float() > b.to_float();
  }
  friend bool operator>=(Float16 a, Float16 b) {
    return a.to_float() >= b.to_float();
  }

  // Rounds the binary32 result `r` of an arithmetic op whose first
  // operand is `a`. A NaN `a` decides the result (sign | 0x7E00): x86
  // propagates the first NaN operand, but a compiler may swap the operands
  // of + and *, so the choice is pinned here. Other NaN results keep the
  // sign the FPU gave them.
  static Float16 op_result(float r, Float16 a) {
    if (!a.is_nan()) return Float16(r);
    return from_bits(static_cast<std::uint16_t>((a.bits_ & 0x8000u) | 0x7E00u));
  }

  // Single correctly-rounded operations (round via binary32).
  friend Float16 operator+(Float16 a, Float16 b) {
    return op_result(a.to_float() + b.to_float(), a);
  }
  friend Float16 operator-(Float16 a, Float16 b) {
    return op_result(a.to_float() - b.to_float(), a);
  }
  friend Float16 operator*(Float16 a, Float16 b) {
    return op_result(a.to_float() * b.to_float(), a);
  }
  friend Float16 operator/(Float16 a, Float16 b) {
    return op_result(a.to_float() / b.to_float(), a);
  }
  friend Float16 operator-(Float16 a) {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }

  Float16& operator+=(Float16 b) { return *this = *this + b; }
  Float16& operator-=(Float16 b) { return *this = *this - b; }
  Float16& operator*=(Float16 b) { return *this = *this * b; }
  Float16& operator/=(Float16 b) { return *this = *this / b; }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(Float16) == 2, "Float16 must be 2 bytes");

inline Float16 fmax16(Float16 a, Float16 b) {
  // Hardware vmax semantics: propagate the larger value; if either is NaN
  // return the other operand (matches x86/ARM max "number wins" used by
  // AI accelerators).
  if (a.is_nan()) return b;
  if (b.is_nan()) return a;
  return a.to_float() >= b.to_float() ? a : b;
}

inline Float16 fmin16(Float16 a, Float16 b) {
  if (a.is_nan()) return b;
  if (b.is_nan()) return a;
  return a.to_float() <= b.to_float() ? a : b;
}

inline std::string to_string(Float16 h) { return std::to_string(h.to_float()); }

}  // namespace davinci
