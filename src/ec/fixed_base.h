// Fixed-base scalar multiplication: many scalars against one base P. Groth16's
// trusted setup multiplies the two generators by hundreds of thousands of
// scalars, and every verification sums the same public-input bases ic[1..],
// so a one-time table pays for itself.
//
// For a window width c the table holds the multiples m * 2^(cw) * P for
// m = 1..2^(c-1) and each of ceil(256/c) + 1 windows w, affine (one
// BatchToAffine at construction). A scalar recoded into signed c-bit digits
// (msm_detail::SignedDigits, digits in [-2^(c-1), 2^(c-1)-1]; the extra
// window takes the top carry) then costs one mixed addition per nonzero
// digit, with the entry negated for a negative digit, and no doubling. The
// result is exact for every 256-bit scalar.
#ifndef SRC_EC_FIXED_BASE_H_
#define SRC_EC_FIXED_BASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/ec/batch_affine.h"
#include "src/ec/curve.h"
#include "src/ec/msm.h"

namespace nope {

template <typename Config>
class FixedBaseTable {
 public:
  using Point = EcPoint<Config>;
  using Affine = AffinePoint<Config>;

  FixedBaseTable(const Point& base, size_t c)
      : c_(c), windows_((256 + c - 1) / c + 1), multiples_(size_t{1} << (c - 1)) {
    NOPE_INVARIANT(c >= 2 && c <= 16, "FixedBaseTable: window width must be in [2, 16]");
    std::vector<Point> jac;
    jac.reserve(windows_ * multiples_);
    Point window_base = base;  // 2^(cw) * base
    for (size_t w = 0; w < windows_; ++w) {
      // m * window_base: a doubling for even m, an addition for odd m.
      const size_t first = jac.size();
      jac.push_back(window_base);
      for (size_t m = 2; m <= multiples_; ++m) {
        jac.push_back(m % 2 == 0 ? jac[first + m / 2 - 1].Double()
                                 : jac[first + m - 2].Add(window_base));
      }
      window_base = jac.back().Double();  // 2^c = 2 * 2^(c-1)
    }
    points_ = BatchToAffine(jac);
  }

  // acc + k * base, for any 256-bit k (standard-form limbs).
  Point MulAdd(const MsmScalar& k, Point acc) const {
    int32_t digits[kMaxWindows] = {};
    msm_detail::SignedDigits(k, c_, windows_, digits);
    const Affine* window = points_.data();
    for (size_t w = 0; w < windows_; ++w, window += multiples_) {
      if (digits[w] > 0) {
        acc = acc.AddMixed(window[digits[w] - 1]);
      } else if (digits[w] < 0) {
        acc = acc.AddMixed(window[-digits[w] - 1].Negate());
      }
    }
    return acc;
  }

  Point Mul(const MsmScalar& k) const { return MulAdd(k, Point::Infinity()); }

  // The entries, [window][multiple - 1].
  const std::vector<Affine>& points() const { return points_; }

  size_t SizeBytes() const { return sizeof(*this) + points_.capacity() * sizeof(Affine); }

 private:
  static constexpr size_t kMaxWindows = 256 / 2 + 1;

  size_t c_;
  size_t windows_;
  size_t multiples_;
  std::vector<Affine> points_;
};

}  // namespace nope

#endif  // SRC_EC_FIXED_BASE_H_
