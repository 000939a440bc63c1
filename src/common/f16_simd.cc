#include "common/f16_simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DV_HAVE_X86_SIMD 1
#endif

namespace davinci {
namespace {

// ---------------------------------------------------------------------------
// Portable kernels.

// Max/min order in the bits domain: maps the sign-magnitude encoding to a
// signed key that is monotone in the float value and sends -0 and +0 to
// the same key, so "first operand wins ties" matches the float compare.
inline std::int32_t order_key(std::uint16_t u) {
  const std::int32_t mag = u & 0x7FFF;
  const std::int32_t sgn =  // all ones when the sign bit is set
      static_cast<std::int32_t>(static_cast<std::int16_t>(u)) >> 15;
  return (mag ^ sgn) - sgn;
}

template <Fp16RowOp kOp>
inline Float16 portable_lane(Float16 a, Float16 b, const float* cvt) {
  if constexpr (kOp == Fp16RowOp::kMax || kOp == Fp16RowOp::kMin) {
    if (a.is_nan()) return b;
    if (b.is_nan()) return a;
    const bool keep_a = kOp == Fp16RowOp::kMax
                            ? order_key(a.bits()) >= order_key(b.bits())
                            : order_key(a.bits()) <= order_key(b.bits());
    return keep_a ? a : b;
  } else if constexpr (kOp == Fp16RowOp::kCmpEq) {
    return Float16::from_bits(a == b ? 0x3C00 : 0);
  } else {
    const float fa = cvt[a.bits()];
    const float fb = cvt[b.bits()];
    if constexpr (kOp == Fp16RowOp::kAdd) return Float16::op_result(fa + fb, a);
    if constexpr (kOp == Fp16RowOp::kSub) return Float16::op_result(fa - fb, a);
    if constexpr (kOp == Fp16RowOp::kMul) return Float16::op_result(fa * fb, a);
  }
}

template <Fp16RowOp kOp, bool kBroadcast>
void portable_loop(Float16* d, const Float16* a, const Float16* b,
                   std::int64_t n) {
  const float* const cvt = detail::f16_to_f32_table();
  const Float16 b0 = b[0];
  for (std::int64_t i = 0; i < n; ++i) {
    d[i] = portable_lane<kOp>(a[i], kBroadcast ? b0 : b[i], cvt);
  }
}

template <Fp16RowOp kOp, bool kBroadcast>
void portable_rows(Float16* d, const Float16* a, const Float16* b,
                   std::int64_t n, const Fp16Repeat& rep) {
  for (std::int64_t r = 0; r < rep.rows; ++r) {
    portable_loop<kOp, kBroadcast>(d + r * rep.d_stride, a + r * rep.a_stride,
                                   kBroadcast ? b : b + r * rep.b_stride, n);
  }
}

template <bool kBroadcast>
void portable_op(Fp16RowOp op, Float16* d, const Float16* a,
                 const Float16* b, std::int64_t n, const Fp16Repeat& rep) {
  switch (op) {
    case Fp16RowOp::kAdd:
      return portable_rows<Fp16RowOp::kAdd, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kSub:
      return portable_rows<Fp16RowOp::kSub, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kMul:
      return portable_rows<Fp16RowOp::kMul, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kMax:
      return portable_rows<Fp16RowOp::kMax, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kMin:
      return portable_rows<Fp16RowOp::kMin, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kCmpEq:
      return portable_rows<Fp16RowOp::kCmpEq, kBroadcast>(d, a, b, n, rep);
  }
}

// Both implementations read b[0] (the broadcast operand's address for the
// scalar kernels), so empty rows return here.
void portable_binary(Fp16RowOp op, Float16* d, const Float16* a,
                     const Float16* b, std::int64_t n, const Fp16Repeat& rep) {
  if (n > 0) portable_op<false>(op, d, a, b, n, rep);
}

void portable_scalar(Fp16RowOp op, Float16* d, const Float16* a, Float16 s,
                     std::int64_t n, const Fp16Repeat& rep) {
  if (n > 0) portable_op<true>(op, d, a, &s, n, rep);
}

void portable_dup(Float16* d, Float16 s, std::int64_t n,
                  const Fp16Repeat& rep) {
  for (std::int64_t r = 0; r < rep.rows; ++r) {
    Float16* const dr = d + r * rep.d_stride;
    for (std::int64_t i = 0; i < n; ++i) dr[i] = s;
  }
}

// True when d starts strictly inside [src, src + n): the serial loop then
// reads lanes it has already written.
bool starts_inside(const Float16* d, const Float16* src, std::int64_t n) {
  const auto du = reinterpret_cast<std::uintptr_t>(d);
  const auto su = reinterpret_cast<std::uintptr_t>(src);
  return du > su && du < su + static_cast<std::uintptr_t>(n) * sizeof(Float16);
}

// ---------------------------------------------------------------------------
// AVX2/F16C kernels: the same lane functions, 16 lanes per 256-bit step.

#ifdef DV_HAVE_X86_SIMD
#define DV_AVX2_F16C __attribute__((target("avx2,f16c")))

// All ones in the 16-bit lanes that hold a NaN encoding.
DV_AVX2_F16C inline __m256i nan_lanes(__m256i v) {
  const __m256i mag = _mm256_and_si256(v, _mm256_set1_epi16(0x7FFF));
  return _mm256_cmpgt_epi16(mag, _mm256_set1_epi16(0x7C00));
}

// order_key above, in 16-bit lanes (-0x7FFF..0x7FFF fits int16).
DV_AVX2_F16C inline __m256i order_keys(__m256i v) {
  const __m256i mag = _mm256_and_si256(v, _mm256_set1_epi16(0x7FFF));
  const __m256i sgn = _mm256_srai_epi16(v, 15);
  return _mm256_sub_epi16(_mm256_xor_si256(mag, sgn), sgn);
}

template <Fp16RowOp kOp>
DV_AVX2_F16C inline __m256 simd_arith(__m256 a, __m256 b) {
  if constexpr (kOp == Fp16RowOp::kAdd) return _mm256_add_ps(a, b);
  if constexpr (kOp == Fp16RowOp::kSub) return _mm256_sub_ps(a, b);
  if constexpr (kOp == Fp16RowOp::kMul) return _mm256_mul_ps(a, b);
}

template <Fp16RowOp kOp>
DV_AVX2_F16C inline __m256i simd_lanes(__m256i a, __m256i b) {
  if constexpr (kOp == Fp16RowOp::kMax || kOp == Fp16RowOp::kMin) {
    const __m256i ka = order_keys(a);
    const __m256i kb = order_keys(b);
    const __m256i take_b = kOp == Fp16RowOp::kMax ? _mm256_cmpgt_epi16(kb, ka)
                                                  : _mm256_cmpgt_epi16(ka, kb);
    __m256i r = _mm256_blendv_epi8(a, b, take_b);
    r = _mm256_blendv_epi8(r, a, nan_lanes(b));
    return _mm256_blendv_epi8(r, b, nan_lanes(a));
  } else if constexpr (kOp == Fp16RowOp::kCmpEq) {
    const __m256i same = _mm256_andnot_si256(nan_lanes(a),
                                             _mm256_cmpeq_epi16(a, b));
    const __m256i both_zero = _mm256_cmpeq_epi16(
        _mm256_and_si256(_mm256_or_si256(a, b), _mm256_set1_epi16(0x7FFF)),
        _mm256_setzero_si256());
    return _mm256_and_si256(_mm256_or_si256(same, both_zero),
                            _mm256_set1_epi16(0x3C00));
  } else {
    const __m256 lo = simd_arith<kOp>(
        _mm256_cvtph_ps(_mm256_castsi256_si128(a)),
        _mm256_cvtph_ps(_mm256_castsi256_si128(b)));
    const __m256 hi = simd_arith<kOp>(
        _mm256_cvtph_ps(_mm256_extracti128_si256(a, 1)),
        _mm256_cvtph_ps(_mm256_extracti128_si256(b, 1)));
    const __m256i r = _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm256_cvtps_ph(lo, _MM_FROUND_TO_NEAREST_INT)),
        _mm256_cvtps_ph(hi, _MM_FROUND_TO_NEAREST_INT), 1);
    // vcvtps2ph keeps the NaN payload; Float16::op_result returns
    // sign | 0x7E00, with a's sign when a is NaN.
    const __m256i sign_src = _mm256_blendv_epi8(r, a, nan_lanes(a));
    const __m256i canon = _mm256_or_si256(
        _mm256_and_si256(sign_src, _mm256_set1_epi16(-0x8000)),
        _mm256_set1_epi16(0x7E00));
    return _mm256_blendv_epi8(r, canon, nan_lanes(r));
  }
}

template <Fp16RowOp kOp, bool kBroadcast>
DV_AVX2_F16C void simd_loop(Float16* d, const Float16* a, const Float16* b,
                            std::int64_t n) {
  const __m256i bs = _mm256_set1_epi16(static_cast<short>(b[0].bits()));
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        kBroadcast
            ? bs
            : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                        simd_lanes<kOp>(va, vb));
  }
  // The last n % 16 lanes take the portable lane function: it is
  // bit-identical, and reading after every earlier store keeps the alias
  // cases the row contract allows in serial order.
  if (i < n) {
    portable_loop<kOp, kBroadcast>(d + i, a + i, kBroadcast ? b : b + i,
                                   n - i);
  }
}

template <Fp16RowOp kOp, bool kBroadcast>
DV_AVX2_F16C void simd_rows(Float16* d, const Float16* a, const Float16* b,
                            std::int64_t n, const Fp16Repeat& rep) {
  for (std::int64_t r = 0; r < rep.rows; ++r) {
    Float16* const dr = d + r * rep.d_stride;
    const Float16* const ar = a + r * rep.a_stride;
    const Float16* const br = kBroadcast ? b : b + r * rep.b_stride;
    if (starts_inside(dr, ar, n) || (!kBroadcast && starts_inside(dr, br, n))) {
      portable_loop<kOp, kBroadcast>(dr, ar, br, n);
    } else {
      simd_loop<kOp, kBroadcast>(dr, ar, br, n);
    }
  }
}

template <bool kBroadcast>
DV_AVX2_F16C void simd_op(Fp16RowOp op, Float16* d, const Float16* a,
                          const Float16* b, std::int64_t n,
                          const Fp16Repeat& rep) {
  switch (op) {
    case Fp16RowOp::kAdd:
      return simd_rows<Fp16RowOp::kAdd, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kSub:
      return simd_rows<Fp16RowOp::kSub, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kMul:
      return simd_rows<Fp16RowOp::kMul, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kMax:
      return simd_rows<Fp16RowOp::kMax, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kMin:
      return simd_rows<Fp16RowOp::kMin, kBroadcast>(d, a, b, n, rep);
    case Fp16RowOp::kCmpEq:
      return simd_rows<Fp16RowOp::kCmpEq, kBroadcast>(d, a, b, n, rep);
  }
}

void simd_binary(Fp16RowOp op, Float16* d, const Float16* a, const Float16* b,
                 std::int64_t n, const Fp16Repeat& rep) {
  if (n > 0) simd_op<false>(op, d, a, b, n, rep);
}

void simd_scalar(Fp16RowOp op, Float16* d, const Float16* a, Float16 s,
                 std::int64_t n, const Fp16Repeat& rep) {
  if (n > 0) simd_op<true>(op, d, a, &s, n, rep);
}

DV_AVX2_F16C void simd_dup(Float16* d, Float16 s, std::int64_t n,
                           const Fp16Repeat& rep) {
  const __m256i v = _mm256_set1_epi16(static_cast<short>(s.bits()));
  for (std::int64_t r = 0; r < rep.rows; ++r) {
    Float16* const dr = d + r * rep.d_stride;
    std::int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dr + i), v);
    }
    for (; i < n; ++i) dr[i] = s;
  }
}
#endif  // DV_HAVE_X86_SIMD

const Fp16RowKernels kPortable{portable_binary, portable_scalar, portable_dup};

const Fp16RowKernels& active_kernels() {
  static const Fp16RowKernels& k = [] {
    const Fp16RowKernels* simd = fp16_simd_row_kernels();
    return simd != nullptr ? *simd : kPortable;
  }();
  return k;
}

}  // namespace

const Fp16RowKernels& fp16_portable_row_kernels() { return kPortable; }

const Fp16RowKernels* fp16_simd_row_kernels() {
#ifdef DV_HAVE_X86_SIMD
  static const Fp16RowKernels kSimd{simd_binary, simd_scalar, simd_dup};
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
  }();
  return supported ? &kSimd : nullptr;
#else
  return nullptr;
#endif
}

void fp16_binary_row(Fp16RowOp op, Float16* d, const Float16* a,
                     const Float16* b, std::int64_t n, const Fp16Repeat& rep) {
  active_kernels().binary(op, d, a, b, n, rep);
}

void fp16_scalar_row(Fp16RowOp op, Float16* d, const Float16* a, Float16 s,
                     std::int64_t n, const Fp16Repeat& rep) {
  active_kernels().scalar(op, d, a, s, n, rep);
}

void fp16_dup_row(Float16* d, Float16 s, std::int64_t n,
                  const Fp16Repeat& rep) {
  active_kernels().dup(d, s, n, rep);
}

}  // namespace davinci
