// Host-speed probe: a fixed amount of benchmark-owned work shaped like the
// simulator's hot loops, timed on the CPU the benchmark runs on.
//
// A shared VM's CPU speed drifts by up to 2x over minutes (the same
// small_open run took 0.90 ms of CPU per request at one time and 1.60 ms
// twenty minutes later). The host times the benchmark gates are scaled
// by the probes of their run to the reference host speed, so the drift
// cancels and what is left is the program's own cost. The probe uses
// none of the program's code, so no change to the program moves it.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// IEEE binary16 <-> binary32 for normal values (the probe's data has no
// others), rounding to nearest even.
float half_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t man = h & 0x3FFu;
  const std::uint32_t bits = exp == 0 ? sign : sign | ((exp + 112) << 23) | (man << 13);
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

std::uint16_t float_to_half(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof bits);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const int exp = static_cast<int>((bits >> 23) & 0xFFu) - 112;
  if (exp <= 0) return static_cast<std::uint16_t>(sign);
  if (exp >= 31) return static_cast<std::uint16_t>(sign | 0x7C00u);
  const std::uint32_t man = bits & 0x7FFFFFu;
  std::uint32_t h = sign | (static_cast<std::uint32_t>(exp) << 10) | (man >> 13);
  const std::uint32_t rest = man & 0x1FFFu;
  if (rest > 0x1000u || (rest == 0x1000u && (h & 1u) != 0)) ++h;
  return static_cast<std::uint16_t>(h);
}

constexpr int kSide = 128;                     // 128 x 128 fp16 plane
constexpr int kLanes = kSide * kSide;          // one Unified-Buffer-sized span
constexpr int kWin = 3, kStride = 2;
constexpr int kOut = (kSide - kWin) / kStride + 1;

struct ProbeData {
  std::vector<std::uint16_t> a, b, c, cols;
  std::vector<char> src, dst;
  ProbeData()
      : a(kLanes), b(kLanes), c(kLanes), cols(kOut * kOut * kWin * kWin),
        src(1 << 21), dst(1 << 21) {
    for (int i = 0; i < kLanes; ++i) {
      a[i] = float_to_half(1.0f + static_cast<float>(i % 97) / 64.0f);
      b[i] = float_to_half(1.0f + static_cast<float>(i % 89) / 32.0f);
    }
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<char>(i * 131u);
  }
};

// One round: an elementwise max+add over the plane, a 3x3 stride-2
// im2col gather of it and a 2 MB copy. Returns a checksum so the work
// cannot be dropped.
std::uint32_t round_once(ProbeData& d) {
  for (int i = 0; i < kLanes; ++i) {
    const float x = half_to_float(d.a[i]), y = half_to_float(d.b[i]);
    d.c[i] = float_to_half(std::max(x, y) + 0.5f * y);
  }
  std::size_t k = 0;
  for (int oh = 0; oh < kOut; ++oh)
    for (int ow = 0; ow < kOut; ++ow)
      for (int kh = 0; kh < kWin; ++kh)
        for (int kw = 0; kw < kWin; ++kw)
          d.cols[k++] = d.c[(oh * kStride + kh) * kSide + ow * kStride + kw];
  std::memcpy(d.dst.data(), d.src.data(), d.src.size());
  return static_cast<std::uint32_t>(d.cols[k / 2]) ^ static_cast<unsigned char>(d.dst[k]);
}

}  // namespace

double host_probe_s() {
  static ProbeData data;
  static volatile std::uint32_t sink = 0;
  constexpr int kRounds = 8, kTimings = 5;
  std::vector<double> t;
  for (int r = 0; r < kTimings; ++r) {
    const auto t0 = Clock::now();
    std::uint32_t x = 0;
    for (int i = 0; i < kRounds; ++i) x ^= round_once(data);
    t.push_back(seconds_since(t0));
    sink = sink ^ x;
  }
  return median(t);
}

}  // namespace perfbench
