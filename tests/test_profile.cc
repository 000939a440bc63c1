// Tests for the profiling layer: per-unit occupancy counters surfaced
// through Device::RunResult and the Chrome trace_event JSON export.
//
// The headline assertion reproduces Section V of the paper in counter
// form: on an InceptionV3 maxpool shape the direct implementation keeps
// the Vector Unit at ~16 of 128 lanes while the Im2col formulation
// saturates the mask.
#include "sim/trace_export.h"

#include <cctype>
#include <gtest/gtest.h>

#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "nets/pipeline.h"
#include "sim/device.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::run_pool;

// --- Minimal JSON syntax checker (no external deps) -----------------------
// Validates the full grammar the exporter can emit: objects, arrays,
// strings with escapes, numbers, true/false/null. Returns true iff `text`
// is exactly one well-formed JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, AcceptsAndRejectsTheObviousCases) {
  EXPECT_TRUE(JsonChecker("{\"a\": [1, -2.5e3, \"x\\n\", true, null]}")
                  .valid());
  EXPECT_FALSE(JsonChecker("{\"a\": 1,}").valid());
  EXPECT_FALSE(JsonChecker("[1, 2").valid());
  EXPECT_FALSE(JsonChecker("\"unterminated").valid());
}

// --------------------------------------------------------------------------

// The occupancy view of a pooling run on `dev`.
Profile profile_of(const Device& dev, const kernels::PoolResult& r) {
  return Profile(r.run.aggregate, dev.arch(), dev.cost());
}

TensorF16 inception_input() {
  // InceptionV3 (35, 35, 288) -- the paper's largest Figure 7a shape.
  TensorF16 in(Shape{1, c1_of(288), 35, 35, kC0});
  in.fill_random_ints(1);
  return in;
}

// Direct pooling reduces Kh values elementwise over a 16-lane (one C0
// group) slice: ~16 of 128 lanes active. Im2col pooling reduces whole
// rows of the im2col matrix: full 128-lane masks. The counters must show
// exactly that gap.
TEST(Profile, DirectStarvesLanesIm2colSaturatesThem) {
  Device dev;
  const TensorF16 in = inception_input();
  PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2)};

  op.fwd = akg::PoolImpl::kDirect;
  const Profile direct = profile_of(dev, run_pool(dev, op, {.in = &in}));
  EXPECT_GT(direct.vec.instrs, 0);
  EXPECT_LE(direct.vec_lane_utilization(), 0.2);
  // A handful of full-mask setup instructions aside, nothing saturates.
  EXPECT_LE(direct.vec.saturation(), 0.01);

  op.fwd = akg::PoolImpl::kIm2col;
  const Profile im2col = profile_of(dev, run_pool(dev, op, {.in = &in}));
  EXPECT_GT(im2col.vec.instrs, 0);
  EXPECT_GE(im2col.vec_lane_utilization(), 0.9);
  EXPECT_GE(im2col.vec.saturation(), 0.9);
  // Only the Im2col run exercises the SCU.
  EXPECT_EQ(direct.im2col.instrs, 0);
  EXPECT_GT(im2col.im2col.instrs, 0);
}

// The Figure 7a runs (InceptionV3 shapes, K3 S2) in both buffer modes and
// the occupancy each must show: every counter of the view and the CLI's
// summary line.
struct Fig7aOccupancy {
  std::int64_t h;
  akg::PoolImpl impl;
  bool double_buffer;
  UnitOccupancy vec, im2col, mte;
  const char* summary;
};

const Fig7aOccupancy kFig7a[] = {
    {147, akg::PoolImpl::kDirect, true, {64012, 3410560, 24900096, 32},
     {0, 0, 0, 0}, {64, 27992, 32152, 0},
     "vec=14% (sat 0% of 64012 instr) im2col=0% col2im=0% cube=0% mte=87%"},
    {147, akg::PoolImpl::kIm2col, true, {600, 3440640, 3440640, 600},
     {540, 12096, 137700, 0}, {120, 29084, 36884, 0},
     "vec=100% (sat 100% of 600 instr) im2col=9% col2im=0% cube=0% mte=79%"},
    {71, akg::PoolImpl::kDirect, true, {44124, 2352000, 17170944, 12},
     {0, 0, 0, 0}, {24, 18816, 20376, 0},
     "vec=14% (sat 0% of 44124 instr) im2col=0% col2im=0% cube=0% mte=92%"},
    {71, akg::PoolImpl::kIm2col, true, {480, 2457600, 2457600, 480},
     {432, 8640, 110160, 0}, {96, 19500, 25740, 0},
     "vec=100% (sat 100% of 480 instr) im2col=8% col2im=0% cube=0% mte=76%"},
    {35, akg::PoolImpl::kDirect, true, {15642, 832320, 6077952, 18},
     {0, 0, 0, 0}, {36, 6840, 9180, 0},
     "vec=14% (sat 0% of 15642 instr) im2col=0% col2im=0% cube=0% mte=75%"},
    {35, akg::PoolImpl::kIm2col, true, {180, 875520, 875520, 180},
     {162, 3078, 41310, 0}, {36, 6840, 9180, 0},
     "vec=100% (sat 100% of 180 instr) im2col=7% col2im=0% cube=0% mte=75%"},
    {147, akg::PoolImpl::kDirect, false, {63980, 3410560, 24898048, 16},
     {0, 0, 0, 0}, {32, 27400, 29480, 0},
     "vec=14% (sat 0% of 63980 instr) im2col=0% col2im=0% cube=0% mte=93%"},
    {147, akg::PoolImpl::kIm2col, false, {280, 3461120, 3461120, 280},
     {252, 12168, 64260, 0}, {56, 27848, 31488, 0},
     "vec=100% (sat 100% of 280 instr) im2col=19% col2im=0% cube=0% mte=88%"},
    {71, akg::PoolImpl::kDirect, false, {44124, 2352000, 17170944, 12},
     {0, 0, 0, 0}, {24, 18816, 20376, 0},
     "vec=14% (sat 0% of 44124 instr) im2col=0% col2im=0% cube=0% mte=92%"},
    {71, akg::PoolImpl::kIm2col, false, {240, 2396160, 2396160, 240},
     {216, 8424, 55080, 0}, {48, 19032, 22152, 0},
     "vec=100% (sat 100% of 240 instr) im2col=15% col2im=0% cube=0% mte=86%"},
    {35, akg::PoolImpl::kDirect, false, {15642, 832320, 6077952, 18},
     {0, 0, 0, 0}, {36, 6840, 9180, 0},
     "vec=14% (sat 0% of 15642 instr) im2col=0% col2im=0% cube=0% mte=75%"},
    {35, akg::PoolImpl::kIm2col, false, {180, 875520, 875520, 180},
     {162, 3078, 41310, 0}, {36, 6840, 9180, 0},
     "vec=100% (sat 100% of 180 instr) im2col=7% col2im=0% cube=0% mte=75%"},
};

void expect_same_occupancy(const UnitOccupancy& got, const UnitOccupancy& want,
                           const std::string& what) {
  EXPECT_EQ(got.instrs, want.instrs) << what;
  EXPECT_EQ(got.slots_used, want.slots_used) << what;
  EXPECT_EQ(got.slots_capacity, want.slots_capacity) << what;
  EXPECT_EQ(got.saturated_instrs, want.saturated_instrs) << what;
}

TEST(Profile, Fig7aOccupancyMatchesCapturedValues) {
  const std::vector<nets::PoolLayer> layers = nets::inception_v3_fig7_layers();
  for (const Fig7aOccupancy& want : kFig7a) {
    Device dev;
    dev.set_double_buffer(want.double_buffer);
    const nets::PoolLayer* layer = nullptr;
    for (const nets::PoolLayer& l : layers) {
      if (l.h == want.h) layer = &l;
    }
    ASSERT_NE(layer, nullptr);
    const TensorF16 in(Shape{1, c1_of(layer->c), layer->h, layer->w, kC0});
    const PoolOp op{
        .kind = PoolOpKind::kMaxFwd, .window = layer->window, .fwd = want.impl};
    const Profile p = profile_of(dev, run_pool(dev, op, {.in = &in}));
    const std::string what = std::to_string(want.h) + " " +
                             akg::to_string(want.impl) +
                             (want.double_buffer ? " db" : " serial");
    expect_same_occupancy(p.vec, want.vec, what + " vec");
    expect_same_occupancy(p.im2col, want.im2col, what + " im2col");
    expect_same_occupancy(p.col2im, UnitOccupancy{}, what + " col2im");
    expect_same_occupancy(p.cube, UnitOccupancy{}, what + " cube");
    expect_same_occupancy(p.mte, want.mte, what + " mte");
    EXPECT_EQ(p.summary(), want.summary) << what;
  }
}

TEST(Profile, RecordedWithoutTracingEnabled) {
  Device dev;  // no core(i).trace().enable() anywhere
  const TensorF16 in = inception_input();
  const Profile p = profile_of(
      dev, run_pool(dev,
                    PoolOp{.kind = PoolOpKind::kMaxFwd,
                           .window = Window2d::pool(3, 2),
                           .fwd = akg::PoolImpl::kIm2col},
                    PoolInputs{.in = &in}));
  EXPECT_GT(p.vec.instrs, 0);
  EXPECT_GT(p.mte.instrs, 0);
}

TEST(Profile, FaultFreeResilientRunMatchesPlainRun) {
  const TensorF16 in = inception_input();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};

  Device plain;
  auto a = run_pool(plain, op, PoolInputs{.in = &in});

  Device resilient;
  ResilienceOptions opts;  // empty plan, verification off
  resilient.set_resilience(opts);
  auto b = run_pool(resilient, op, PoolInputs{.in = &in});

  EXPECT_EQ(a.run.device_cycles, b.run.device_cycles);
  const Profile pa = profile_of(plain, a);
  const Profile pb = profile_of(resilient, b);
  EXPECT_EQ(pa.vec.instrs, pb.vec.instrs);
  EXPECT_EQ(pa.vec.slots_used, pb.vec.slots_used);
  EXPECT_EQ(pa.im2col.slots_used, pb.im2col.slots_used);
}

TEST(ChromeTrace, ExportIsWellFormedJsonWithPerCoreTracks) {
  Device dev;
  for (int c = 0; c < dev.num_cores(); ++c) dev.core(c).trace().enable();
  const TensorF16 in = inception_input();
  run_pool(dev,
           PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col},
           PoolInputs{.in = &in});

  const std::string json = chrome_trace_json(dev);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("AI Core 0"), std::string::npos);
  EXPECT_NE(json.find("Vector"), std::string::npos);
  EXPECT_NE(json.find("vec active lanes"), std::string::npos);
}

TEST(ChromeTrace, EmptyDeviceExportsValidEmptyTrace) {
  Device dev;  // tracing never enabled
  const std::string json = chrome_trace_json(dev);
  EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(ChromeTrace, TruncatedTraceCarriesMarkerEvent) {
  Trace trace;
  trace.enable();
  for (std::size_t i = 0; i < Trace::kMaxEvents + 10; ++i) {
    trace.record(TraceKind::kVector, "vmax", 1, 128, 128);
  }
  ASSERT_TRUE(trace.truncated());
  const std::string json =
      chrome_trace_json({&trace}, std::vector<int>{0});
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("truncated"), std::string::npos);
}

TEST(ChromeTrace, EscapesControlAndQuoteCharactersInDetails) {
  Trace trace;
  trace.enable();
  trace.record(TraceKind::kMte, "copy \"a\\b\"\n\tq", 3, 1, 2);
  const std::string json =
      chrome_trace_json({&trace}, std::vector<int>{5});
  EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(Pipeline, UtilizationTableListsLayersAndTotal) {
  Device dev;
  nets::Pipeline net;
  net.maxpool(Window2d::pool(3, 2), "pool_a");
  net.maxpool(Window2d::pool(3, 1), "pool_b");
  auto r = net.run(dev, inception_input(), nets::PoolingStack::kAccelerated);
  const std::string table = r.utilization_table(dev.arch(), dev.cost());
  EXPECT_NE(table.find("pool_a"), std::string::npos);
  EXPECT_NE(table.find("pool_b"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_NE(table.find("vec-lanes"), std::string::npos);
  CycleStats total;
  for (const auto& layer : r.layers) total += layer.run.aggregate;
  // Accelerated stack.
  EXPECT_GE(Profile(total, dev.arch(), dev.cost()).vec_lane_utilization(),
            0.9);
}

}  // namespace
}  // namespace davinci
