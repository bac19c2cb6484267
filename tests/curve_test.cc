#include <gtest/gtest.h>

#include "src/ec/bn254.h"
#include "src/ec/msm.h"
#include "src/ec/p256.h"

namespace nope {
namespace {

TEST(G1, GeneratorOnCurveAndOrder) {
  G1 g = G1Generator();
  EXPECT_TRUE(g.IsOnCurve());
  EXPECT_TRUE(g.ScalarMul(Bn254Order()).IsInfinity());
  EXPECT_FALSE(g.ScalarMul(BigUInt(12345)).IsInfinity());
}

TEST(G2, GeneratorOnCurveAndOrder) {
  G2 g = G2Generator();
  EXPECT_TRUE(g.IsOnCurve());
  EXPECT_TRUE(g.ScalarMul(Bn254Order()).IsInfinity());
}

TEST(P256, GeneratorOnCurveAndOrder) {
  P256Point g = P256Generator();
  EXPECT_TRUE(g.IsOnCurve());
  EXPECT_TRUE(g.ScalarMul(P256Order()).IsInfinity());
}

template <typename Point>
void CheckGroupLaws(Point g, const BigUInt& order) {
  Rng rng(201);
  BigUInt a = BigUInt::RandomBelow(&rng, order);
  BigUInt b = BigUInt::RandomBelow(&rng, order);
  Point pa = g.ScalarMul(a);
  Point pb = g.ScalarMul(b);

  // Commutativity and consistency with scalar arithmetic.
  EXPECT_TRUE(pa.Add(pb).Equals(pb.Add(pa)));
  EXPECT_TRUE(pa.Add(pb).Equals(g.ScalarMul(a.AddMod(b, order))));
  EXPECT_TRUE(pa.Double().Equals(g.ScalarMul(a.MulMod(BigUInt(2), order))));
  // Identity and inverse.
  EXPECT_TRUE(pa.Add(Point::Infinity()).Equals(pa));
  EXPECT_TRUE(pa.Add(pa.Negate()).IsInfinity());
  // Results stay on the curve.
  EXPECT_TRUE(pa.Add(pb).IsOnCurve());
  EXPECT_TRUE(pa.Double().IsOnCurve());
  // Doubling path in Add().
  EXPECT_TRUE(pa.Add(pa).Equals(pa.Double()));
}

TEST(G1, GroupLaws) { CheckGroupLaws(G1Generator(), Bn254Order()); }
TEST(G2, GroupLaws) { CheckGroupLaws(G2Generator(), Bn254Order()); }
TEST(P256, GroupLaws) { CheckGroupLaws(P256Generator(), P256Order()); }

TEST(P256, KnownScalarMultiple) {
  // k = 2 from SEC test data: 2G has known coordinates.
  auto two_g = P256Generator().ScalarMul(BigUInt(2)).ToAffine();
  EXPECT_EQ(two_g.x.ToBigUInt().ToHex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(two_g.y.ToBigUInt().ToHex(),
            "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(Msm, MatchesNaiveSum) {
  Rng rng(202);
  for (size_t n : {1u, 2u, 5u, 33u, 100u}) {
    std::vector<G1> bases;
    std::vector<BigUInt> scalars;
    G1 expected = G1::Infinity();
    for (size_t i = 0; i < n; ++i) {
      BigUInt k = BigUInt::RandomBelow(&rng, Bn254Order());
      G1 p = G1Generator().ScalarMul(BigUInt::RandomBelow(&rng, Bn254Order()));
      bases.push_back(p);
      scalars.push_back(k);
      expected = expected.Add(p.ScalarMul(k));
    }
    EXPECT_TRUE(MsmAffine(BatchToAffine(bases), scalars).Equals(expected)) << "n=" << n;
  }
}

TEST(Msm, HandlesZeroScalarsAndInfinity) {
  std::vector<G1> bases = {G1Generator(), G1::Infinity(), G1Generator().Double()};
  std::vector<BigUInt> scalars = {BigUInt(), BigUInt(7), BigUInt(3)};
  G1 expected = G1Generator().Double().ScalarMul(BigUInt(3));
  EXPECT_TRUE(MsmAffine(BatchToAffine(bases), scalars).Equals(expected));
  EXPECT_TRUE(MsmAffine(std::vector<G1Affine>{}, std::vector<BigUInt>{}).IsInfinity());
  // Size mismatches are programming errors: Msm aborts via NOPE_INVARIANT
  // instead of throwing (the library is exception-free, see result.h).
  EXPECT_DEATH(MsmAffine(std::vector<G1Affine>{G1Generator().ToAffine()}, std::vector<BigUInt>{}),
               "bases/scalars size mismatch");
}

TEST(EcPoint, AffineRoundTrip) {
  Rng rng(203);
  G1 p = G1Generator().ScalarMul(BigUInt::RandomBelow(&rng, Bn254Order()));
  auto aff = p.ToAffine();
  EXPECT_FALSE(aff.infinity);
  EXPECT_TRUE(G1::FromAffine(aff.x, aff.y).Equals(p));
  EXPECT_TRUE(G1::Infinity().ToAffine().infinity);
}

}  // namespace
}  // namespace nope
