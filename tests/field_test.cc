#include <gtest/gtest.h>

#include <vector>

#include "src/ff/fp12.h"

namespace nope {
namespace {

template <typename Field>
class FpTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fq, Fr, P256Fq, P256Fn>;
TYPED_TEST_SUITE(FpTest, FieldTypes);

TYPED_TEST(FpTest, AdditiveGroupLaws) {
  using F = TypeParam;
  Rng rng(101);
  for (int i = 0; i < 50; ++i) {
    F a = F::Random(&rng);
    F b = F::Random(&rng);
    F c = F::Random(&rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + F::Zero(), a);
    EXPECT_EQ(a - a, F::Zero());
    EXPECT_EQ(a + (-a), F::Zero());
  }
}

TYPED_TEST(FpTest, MultiplicativeGroupLaws) {
  using F = TypeParam;
  Rng rng(102);
  for (int i = 0; i < 50; ++i) {
    F a = F::Random(&rng);
    F b = F::Random(&rng);
    F c = F::Random(&rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * F::One(), a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), F::One());
    }
  }
}

// Standard-form edge values: both ends of [0, p), the halves of p, limb
// boundaries, and the Montgomery constants R and R^2 mod p read as integers.
template <typename F>
std::vector<BigUInt> EdgeCorpus() {
  const BigUInt& p = F::params().modulus_big;
  const BigUInt one(1);
  return {BigUInt(0),
          one,
          BigUInt(2),
          p - one,
          p - BigUInt(2),
          (p - one) >> 1,
          (p + one) >> 1,
          (one << 64) - one,
          one << 64,
          (one << 128) - one,
          one << 192,
          fp_detail::FromLimbs(F::kR),
          fp_detail::FromLimbs(F::kR2)};
}

// Every unary operator on x against BigUInt modular arithmetic.
template <typename F>
void ExpectUnaryMatchesOracle(const BigUInt& x) {
  const BigUInt& p = F::params().modulus_big;
  const F fx = F::FromBigUInt(x);
  ASSERT_EQ(fx.ToBigUInt(), x);
  EXPECT_EQ((-fx).ToBigUInt(), BigUInt(0).SubMod(x, p)) << "-" << x.ToHex();
  EXPECT_EQ(fx.Double().ToBigUInt(), x.AddMod(x, p)) << "2*" << x.ToHex();
  EXPECT_EQ(fx.Square().ToBigUInt(), x.MulMod(x, p)) << x.ToHex() << "^2";
}

// Every binary operator on (x, y) against BigUInt modular arithmetic.
template <typename F>
void ExpectBinaryMatchesOracle(const BigUInt& x, const BigUInt& y) {
  const BigUInt& p = F::params().modulus_big;
  const F fx = F::FromBigUInt(x);
  const F fy = F::FromBigUInt(y);
  EXPECT_EQ((fx + fy).ToBigUInt(), x.AddMod(y, p)) << x.ToHex() << " + " << y.ToHex();
  EXPECT_EQ((fx - fy).ToBigUInt(), x.SubMod(y, p)) << x.ToHex() << " - " << y.ToHex();
  EXPECT_EQ((fx * fy).ToBigUInt(), x.MulMod(y, p)) << x.ToHex() << " * " << y.ToHex();
}

TYPED_TEST(FpTest, MatchesBigUIntArithmetic) {
  using F = TypeParam;
  const BigUInt& p = F::params().modulus_big;
  const std::vector<BigUInt> edges = EdgeCorpus<F>();
  const BigUInt two_256 = BigUInt(1) << 256;
  int carry_out_pairs = 0;
  for (const BigUInt& x : edges) {
    ExpectUnaryMatchesOracle<F>(x);
    for (const BigUInt& y : edges) {
      ExpectBinaryMatchesOracle<F>(x, y);
      if (!(x + y < two_256)) {
        ++carry_out_pairs;
      }
    }
  }
  // The P-256 primes sit next to 2^256, so their edge pairs must run the
  // sum's carry-out path, e.g. (p - 1) + (p - 1).
  if ((F::kModulus[3] >> 63) != 0) {
    EXPECT_GT(carry_out_pairs, 0);
  }
  Rng rng(103);
  for (int i = 0; i < 10000 && !::testing::Test::HasFailure(); ++i) {
    BigUInt x = BigUInt::RandomBelow(&rng, p);
    BigUInt y = BigUInt::RandomBelow(&rng, p);
    ExpectUnaryMatchesOracle<F>(x);
    ExpectBinaryMatchesOracle<F>(x, y);
  }
}

TYPED_TEST(FpTest, InverseMatchesBigUIntOnEdgeValues) {
  using F = TypeParam;
  const BigUInt& p = F::params().modulus_big;
  EXPECT_EQ(F::Zero().Inverse(), F::Zero());
  for (const BigUInt& x : EdgeCorpus<F>()) {
    if (!x.IsZero()) {
      EXPECT_EQ(F::FromBigUInt(x).Inverse().ToBigUInt(), x.InvMod(p)) << x.ToHex();
    }
  }
}

template <typename Tag>
BigUInt ModulusFromDecimal(const Fp<Tag>&) {
  return BigUInt::FromDecimal(Tag::ModulusDecimal());
}

TYPED_TEST(FpTest, ConstantsMatchBigUInt) {
  using F = TypeParam;
  const BigUInt p = ModulusFromDecimal(F());
  const BigUInt r = BigUInt(1) << 256;
  EXPECT_EQ(fp_detail::FromLimbs(F::kModulus), p);
  EXPECT_EQ(F::params().modulus_big, p);
  EXPECT_EQ(F::params().modulus_minus_2, p - BigUInt(2));
  EXPECT_EQ(fp_detail::FromLimbs(F::kR), r % p);
  EXPECT_EQ(fp_detail::FromLimbs(F::kR2), (r * r) % p);
  EXPECT_EQ(F::kModulus[0] * F::kInv, ~uint64_t{0});  // p0 * (-p^-1) = -1 mod 2^64
  EXPECT_EQ(F::One().limbs(), F::kR);
}

TYPED_TEST(FpTest, FromU64MatchesFromBigUInt) {
  using F = TypeParam;
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 32, ~uint64_t{0}}) {
    EXPECT_EQ(F::FromU64(v), F::FromBigUInt(BigUInt(v))) << v;
  }
}

// The x86-64 carry helpers use the adc/sbb intrinsics; other hosts use the
// portable uint128 forms, which are compiled everywhere so this host checks
// them too.
TEST(CarryHelpers, MatchPortableForms) {
  std::vector<uint64_t> words = {0,
                                 1,
                                 2,
                                 0xffffffffull,
                                 0x100000000ull,
                                 0x7fffffffffffffffull,
                                 0x8000000000000000ull,
                                 ~uint64_t{0} - 1,
                                 ~uint64_t{0}};
  Rng rng(108);
  for (int i = 0; i < 64; ++i) {
    words.push_back(rng.NextU64());
  }
  using fp_detail::uint128;
  for (uint64_t a : words) {
    for (uint64_t b : words) {
      for (unsigned char flag : {0, 1}) {
        unsigned char carry = flag;
        unsigned char carry_portable = flag;
        const uint64_t sum = fp_detail::AddCarry(a, b, &carry);
        ASSERT_EQ(sum, fp_detail::AddCarryPortable(a, b, &carry_portable));
        ASSERT_EQ(carry, carry_portable);
        ASSERT_EQ((static_cast<uint128>(carry) << 64) + sum,
                  static_cast<uint128>(a) + b + flag);

        unsigned char borrow = flag;
        unsigned char borrow_portable = flag;
        const uint64_t diff = fp_detail::SubBorrow(a, b, &borrow);
        ASSERT_EQ(diff, fp_detail::SubBorrowPortable(a, b, &borrow_portable));
        ASSERT_EQ(borrow, borrow_portable);
        ASSERT_EQ(static_cast<uint128>(diff) + b + flag,
                  (static_cast<uint128>(borrow) << 64) + a);
      }
    }
  }
}

TYPED_TEST(FpTest, RoundTripAndReduction) {
  using F = TypeParam;
  const BigUInt& p = F::params().modulus_big;
  EXPECT_EQ(F::FromBigUInt(p), F::Zero());
  EXPECT_EQ(F::FromBigUInt(p + BigUInt(5)), F::FromU64(5));
  EXPECT_EQ(F::FromU64(1), F::One());
  EXPECT_EQ(F::One().ToBigUInt(), BigUInt(1));
}

TYPED_TEST(FpTest, FermatLittleTheorem) {
  using F = TypeParam;
  Rng rng(104);
  F a = F::Random(&rng);
  EXPECT_EQ(a.Pow(F::params().modulus_big - BigUInt(1)), F::One());
}

TEST(Fp2Test, FieldLaws) {
  Rng rng(105);
  auto random_fp2 = [&] { return Fp2{Fq::Random(&rng), Fq::Random(&rng)}; };
  for (int i = 0; i < 30; ++i) {
    Fp2 a = random_fp2();
    Fp2 b = random_fp2();
    Fp2 c = random_fp2();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp2::One());
    }
  }
  // u^2 == -1.
  Fp2 u{Fq::Zero(), Fq::One()};
  Fp2 minus_one{-Fq::One(), Fq::Zero()};
  EXPECT_EQ(u * u, minus_one);
}

TEST(Fp6Test, FieldLawsAndVReduction) {
  Rng rng(106);
  auto rf2 = [&] { return Fp2{Fq::Random(&rng), Fq::Random(&rng)}; };
  auto rf6 = [&] { return Fp6{rf2(), rf2(), rf2()}; };
  for (int i = 0; i < 20; ++i) {
    Fp6 a = rf6();
    Fp6 b = rf6();
    Fp6 c = rf6();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp6::One());
    }
    // Multiplication by v matches structural MulByV.
    Fp6 v{Fp2::Zero(), Fp2::One(), Fp2::Zero()};
    EXPECT_EQ(a * v, a.MulByV());
  }
  // v^3 == xi.
  Fp6 v{Fp2::Zero(), Fp2::One(), Fp2::Zero()};
  Fp6 xi{Xi(), Fp2::Zero(), Fp2::Zero()};
  EXPECT_EQ(v * v * v, xi);
}

TEST(Fp12Test, FieldLawsAndFrobenius) {
  Rng rng(107);
  auto rf2 = [&] { return Fp2{Fq::Random(&rng), Fq::Random(&rng)}; };
  auto rf6 = [&] { return Fp6{rf2(), rf2(), rf2()}; };
  auto rf12 = [&] { return Fp12{rf6(), rf6()}; };
  for (int i = 0; i < 10; ++i) {
    Fp12 a = rf12();
    Fp12 b = rf12();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp12::One());
    }
    // Frobenius is the p-power map.
    EXPECT_EQ(a.Frobenius(1), a.Pow(Fq::params().modulus_big));
    // 12 applications are the identity.
    EXPECT_EQ(a.Frobenius(12), a);
    // Frobenius(2) == Frobenius applied twice.
    EXPECT_EQ(a.Frobenius(2), a.Frobenius(1).Frobenius(1));
  }
  // w^2 == v.
  Fp12 w{Fp6::Zero(), Fp6::One()};
  Fp12 v{Fp6{Fp2::Zero(), Fp2::One(), Fp2::Zero()}, Fp6::Zero()};
  EXPECT_EQ(w * w, v);
}

}  // namespace
}  // namespace nope
