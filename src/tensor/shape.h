// Fixed-capacity tensor shape. The deepest layout used in the paper is the
// Im2col output tensor (N, C1, Kh, Kw, Oh, Ow, C0) with 7 dimensions, so a
// small inline array avoids heap traffic in hot indexing paths.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>

#include "common/check.h"

namespace davinci {

class Shape {
 public:
  static constexpr int kMaxRank = 8;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) {
    DV_CHECK_LE(dims.size(), static_cast<std::size_t>(kMaxRank));
    for (std::int64_t d : dims) {
      DV_CHECK_GE(d, 0) << "negative dimension";
      dims_[rank_++] = d;
    }
  }

  int rank() const { return rank_; }

  std::int64_t dim(int i) const {
    DV_CHECK(i >= 0 && i < rank_) << "dim index " << i << " rank " << rank_;
    return dims_[i];
  }
  std::int64_t operator[](int i) const { return dim(i); }

  void set_dim(int i, std::int64_t v) {
    DV_CHECK(i >= 0 && i < rank_);
    DV_CHECK_GE(v, 0);
    dims_[i] = v;
  }

  // Throws Error when the product overflows int64: no tensor of that
  // shape can exist.
  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (int i = 0; i < rank_; ++i) {
      DV_CHECK(!__builtin_mul_overflow(n, dims_[i], &n))
          << "element count of shape " << to_string() << " overflows int64";
    }
    return n;
  }

  // Row-major stride of dimension `i` in elements.
  std::int64_t stride(int i) const {
    DV_CHECK(i >= 0 && i < rank_);
    std::int64_t s = 1;
    for (int j = i + 1; j < rank_; ++j) s *= dims_[j];
    return s;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) return false;
    for (int i = 0; i < a.rank_; ++i) {
      if (a.dims_[i] != b.dims_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

  std::string to_string() const {
    std::string s = "(";
    for (int i = 0; i < rank_; ++i) {
      if (i) s += ", ";
      s += std::to_string(dims_[i]);
    }
    s += ")";
    return s;
  }

 private:
  std::array<std::int64_t, kMaxRank> dims_{};
  int rank_ = 0;
};

}  // namespace davinci
