#include "kernels/lower.h"

#include "common/check.h"
#include "kernels/detail.h"
#include "kernels/pool_fwd_driver.h"

namespace davinci::akg {

namespace {

// Checks that `e` is exactly `coeff * axis (+ reduce_axis) + 0` over the
// expected axes and returns the output-axis coefficient.
std::int64_t coefficient_of_output(const dsl::IndexExpr& e, int out_axis,
                                   int other_allowed_axis, const char* what) {
  DV_CHECK_EQ(dsl::index_constant(e), 0)
      << what << ": constant offsets (padding) are not expressible in the "
      << "pooling pattern";
  for (int id : dsl::index_axes(e)) {
    DV_CHECK(id == out_axis || id == other_allowed_axis)
        << what << ": unexpected axis " << id << " in index expression";
  }
  if (other_allowed_axis >= 0) {
    DV_CHECK_EQ(dsl::index_coefficient(e, other_allowed_axis), 1)
        << what << ": reduce axis must appear with coefficient 1";
  }
  return dsl::index_coefficient(e, out_axis);
}

}  // namespace

PoolingPattern match_pooling(const dsl::Compute& c) {
  DV_CHECK_EQ(c.out_shape.rank(), 5)
      << "pooling computes produce (N, C1, Oh, Ow, C0)";
  DV_CHECK(dsl::is_reduce(c.body))
      << "pooling computes are a top-level reduction";
  const auto& axes = dsl::reduce_axes(c.body);
  DV_CHECK_EQ(axes.size(), 2u)
      << "pooling reduces over exactly (red_h, red_w)";
  const dsl::Expr& body = dsl::reduce_body(c.body);
  DV_CHECK(dsl::is_load(body))
      << "the reduction body must be a single placeholder load";
  DV_CHECK_EQ(dsl::load_input_index(body), 0)
      << "pooling reads the first placeholder";
  const auto& idx = dsl::load_indices(body);
  DV_CHECK_EQ(idx.size(), 5u) << "the input must be NC1HWC0";

  // Axes 0, 1, 4 (N, C1, C0) must pass through unchanged.
  for (int pos : {0, 1, 4}) {
    DV_CHECK_EQ(coefficient_of_output(idx[static_cast<std::size_t>(pos)],
                                      pos, -1, "batch/channel index"),
                1)
        << "N/C1/C0 axes must be identity-indexed";
  }

  PoolingPattern p;
  p.reduce = dsl::reduce_kind(c.body);
  p.window.sh =
      coefficient_of_output(idx[2], 2, axes[0].id, "height index");
  p.window.sw =
      coefficient_of_output(idx[3], 3, axes[1].id, "width index");
  p.window.kh = axes[0].extent;
  p.window.kw = axes[1].extent;
  p.window.validate();

  // The geometry must be consistent: Oh/Ow from Equation (1) on the
  // placeholder's spatial dims.
  const Shape& in_shape = dsl::load_shape(body);
  DV_CHECK_EQ(in_shape.rank(), 5);
  DV_CHECK_EQ(c.out_shape.dim(2), p.window.out_h(in_shape.dim(2)))
      << "output height disagrees with Equation (1)";
  DV_CHECK_EQ(c.out_shape.dim(3), p.window.out_w(in_shape.dim(3)))
      << "output width disagrees with Equation (1)";
  DV_CHECK_EQ(c.out_shape.dim(0), in_shape.dim(0));
  DV_CHECK_EQ(c.out_shape.dim(1), in_shape.dim(1));
  DV_CHECK_EQ(c.out_shape.dim(4), kC0);
  return p;
}

LoweredPoolResult lower_and_run(Device& dev, const dsl::Compute& c,
                                const TensorF16& input) {
  const PoolingPattern p = match_pooling(c);
  const PoolImpl impl = select_fwd_impl(p.window);

  VecOp op = VecOp::kMax;
  Float16 init = Float16::lowest();
  switch (p.reduce) {
    case dsl::ReduceKind::kMax:
      break;
    case dsl::ReduceKind::kMin:
      op = VecOp::kMin;
      init = Float16::max_finite();
      break;
    case dsl::ReduceKind::kSum:
      op = VecOp::kAdd;
      init = Float16();
      break;
  }
  const Shape& s = input.shape();
  DV_CHECK(s.rank() == 5 && s[4] == kC0) << "expected an NC1HWC0 input";
  kernels::ImageTable t;
  t.c1 = s[1];
  t.ih = s[2];
  t.iw = s[3];
  TensorF16 out = kernels::detail::make_output(
      dev, Shape{s[0], t.c1, p.window.out_h(t.ih), p.window.out_w(t.iw), kC0});
  t.in.elems = s.stride(0);
  t.in.append(input);
  t.out.elems = out.shape().stride(0);
  t.out.append(out);
  const PoolPlan plan = plan_fwd(impl, dev.arch(), p.window, t.ih, t.iw,
                                 /*with_mask=*/false, dev.double_buffer());
  const Device::RunResult run = kernels::pooling_forward_impl(
      dev, t, kernels::BlockRange{0, s[0], 0, t.c1}, p.window, impl, op, init,
      Float16(1.0f), plan);
  return LoweredPoolResult{std::move(out), run, impl};
}

}  // namespace davinci::akg
