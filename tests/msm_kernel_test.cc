// Differential and unit coverage for the signed-digit batch-affine MSM
// kernel and its building blocks: AddMixed vs Add, BatchToAffine vs
// per-point ToAffine (infinities at block boundaries), the limb GLV
// decomposition's round trip and the endomorphism eigenvalue, limb
// signed-digit recoding exactness, and the full kernel (density split
// included) against a naive sum of double-and-adds under adversarial and
// witness-shaped inputs (zero scalars, one, 2^64 - 1 and 2^64, r-1, scalars
// >= r, duplicated scalars, duplicated bases, P/-P pairs, infinity bases,
// all-zero, all-short and all-full vectors), and the fixed-base table
// against ScalarMul at both window widths in use.
#include "src/ec/msm.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/ec/batch_affine.h"
#include "src/ec/bn254.h"
#include "src/ec/fixed_base.h"
#include "src/ec/glv.h"
#include "tests/witness_mix.h"

namespace nope {
namespace {

template <typename Point>
Point NaiveMsm(const std::vector<Point>& bases,
               const std::vector<BigUInt>& scalars) {
  Point acc = Point::Infinity();
  for (size_t i = 0; i < bases.size(); ++i) {
    acc = acc.Add(bases[i].ScalarMul(scalars[i]));
  }
  return acc;
}

std::vector<MsmScalar> ToLimbs(const std::vector<BigUInt>& scalars) {
  std::vector<MsmScalar> out(scalars.size(), MsmScalar{});
  for (size_t i = 0; i < scalars.size(); ++i) {
    const std::vector<uint64_t>& limbs = scalars[i].limbs();
    std::copy(limbs.begin(), limbs.end(), out[i].begin());
  }
  return out;
}

BigUInt FromLimbs(const MsmScalar& k) { return BigUInt::FromLimbsLE(k.data(), 4); }

std::vector<G1> RandomG1Bases(Rng* rng, size_t n) {
  std::vector<G1> out;
  out.reserve(n);
  G1 p = G1Generator();
  for (size_t i = 0; i < n; ++i) {
    p = p.ScalarMul(BigUInt(2 + (rng->NextU64() % 1000)));
    out.push_back(p);
  }
  return out;
}

// --- AddMixed ---------------------------------------------------------------

TEST(AddMixed, MatchesFullAddOnGenericPoints) {
  Rng rng(11);
  G1 p = G1Generator();
  for (int i = 0; i < 20; ++i) {
    G1 q = G1Generator().ScalarMul(BigUInt(3 + rng.NextU64() % 5000));
    // Give p a non-trivial z so the mixed path is actually exercised.
    p = p.Add(q).Double();
    G1::Affine qa = q.ToAffine();
    EXPECT_TRUE(p.AddMixed(qa).Equals(p.Add(q))) << "iteration " << i;
  }
}

TEST(AddMixed, HandlesDegenerateCases) {
  G1 g = G1Generator();
  G1 p = g.Double().Add(g);  // 3G with z != 1
  G1::Affine pa = p.ToAffine();

  // P + P must fall through to the doubling formula.
  EXPECT_TRUE(p.AddMixed(pa).Equals(p.Double()));
  // P + (-P) == infinity.
  EXPECT_TRUE(p.AddMixed(pa.Negate()).IsInfinity());
  // infinity + P == P.
  EXPECT_TRUE(G1::Infinity().AddMixed(pa).Equals(p));
  // P + infinity == P.
  EXPECT_TRUE(p.AddMixed(G1::Affine::Infinity()).Equals(p));
}

TEST(AddMixed, WorksOnG2) {
  G2 p = G2Generator().Double();
  G2 q = G2Generator().Double().Add(G2Generator());
  EXPECT_TRUE(p.AddMixed(q.ToAffine()).Equals(p.Add(q)));
}

// --- BatchToAffine ----------------------------------------------------------

TEST(BatchToAffine, MatchesPerPointToAffineWithInfinities) {
  // Sizes straddle the 1024 block grid; infinities land on block boundaries.
  for (size_t n : {size_t{5}, size_t{1023}, size_t{1024}, size_t{1025},
                   size_t{3000}}) {
    std::vector<G1> jac;
    jac.reserve(n);
    G1 p = G1Generator();
    for (size_t i = 0; i < n; ++i) {
      if (i == 0 || i == 1023 || i == 1024 || i + 1 == n) {
        jac.push_back(G1::Infinity());
      } else {
        p = p.Double();
        jac.push_back(p);
      }
    }
    std::vector<G1Affine> got = BatchToAffine(jac);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      G1::Affine want = jac[i].ToAffine();
      ASSERT_EQ(got[i].infinity, want.infinity) << "n=" << n << " i=" << i;
      if (!want.infinity) {
        ASSERT_EQ(got[i].x, want.x) << "n=" << n << " i=" << i;
        ASSERT_EQ(got[i].y, want.y) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(BatchToAffine, AllInfinitiesAndEmpty) {
  EXPECT_TRUE(BatchToAffine(std::vector<G1>{}).empty());
  std::vector<G1Affine> got = BatchToAffine(std::vector<G1>(7, G1::Infinity()));
  for (const auto& a : got) {
    EXPECT_TRUE(a.infinity);
  }
}

// --- Signed digits ----------------------------------------------------------

// Every window width the kernel can pick, over scalars whose windows
// straddle limb boundaries, live only in the top limb, or fill all 256 bits.
TEST(SignedDigits, LimbRecodingIsExactAndBoundedForEveryWidth) {
  Rng rng(21);
  const uint64_t ones = ~uint64_t{0};
  std::vector<MsmScalar> cases = {
      {0, 0, 0, 0},          {1, 0, 0, 0},          {ones, 0, 0, 0},
      {0, 1, 0, 0},          {ones, ones, 0, 0},    {0, 0, 1, 0},
      {0, 0, 0, 1},          {0, 0, 0, ones},       {0, 0, 0, uint64_t{1} << 63},
      {ones, ones, ones, ones},
      {uint64_t{1} << 63, uint64_t{1} << 63, uint64_t{1} << 63, 0},
  };
  for (int i = 0; i < 40; ++i) {
    MsmScalar k = {rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64()};
    if (i % 4 == 1) {
      k = {0, 0, 0, rng.NextU64()};  // top limb only
    } else if (i % 4 == 2) {
      k = ToLimbs({BigUInt::RandomBelow(&rng, Bn254Order())})[0];
    }
    cases.push_back(k);
  }
  for (size_t c = 2; c <= 16; ++c) {
    const int64_t half = int64_t{1} << (c - 1);
    for (const MsmScalar& k : cases) {
      const BigUInt want = FromLimbs(k);
      size_t max_bits = std::max<size_t>(want.BitLength(), 1);
      // One window more than the kernel sizes: the extra one must read zero.
      size_t windows = (max_bits + c - 1) / c + 2;
      ASSERT_EQ(msm_detail::ScalarBitLength(k), want.BitLength());
      std::vector<int32_t> digits(windows);
      msm_detail::SignedDigits(k, c, windows, digits.data());
      // Reconstruct sum digit_w * 2^(c*w) as (pos, neg) magnitudes.
      BigUInt pos, neg;
      for (size_t w = 0; w < windows; ++w) {
        ASSERT_GE(digits[w], -half) << "c=" << c;
        ASSERT_LT(digits[w], half) << "c=" << c;
        if (digits[w] > 0) {
          pos = pos + (BigUInt(static_cast<uint64_t>(digits[w])) << (c * w));
        } else if (digits[w] < 0) {
          neg = neg + (BigUInt(static_cast<uint64_t>(-digits[w])) << (c * w));
        }
      }
      EXPECT_EQ(digits[windows - 1], 0) << "c=" << c << " k=" << want.ToHex();
      ASSERT_TRUE(pos >= neg);
      ASSERT_EQ(pos - neg, want) << "c=" << c << " k=" << want.ToHex();
    }
  }
}

// --- GLV --------------------------------------------------------------------

TEST(Glv, LambdaIsCubeRootOfUnity) {
  const BigUInt& r = Bn254Order();
  const BigUInt& lambda = GlvLambda();
  EXPECT_EQ(lambda.MulMod(lambda, r).MulMod(lambda, r), BigUInt(1));
  EXPECT_NE(lambda, BigUInt(1));
  // lambda^2 + lambda + 1 == 0 (mod r): primitive, not just any cube root.
  EXPECT_TRUE(lambda.MulMod(lambda, r).AddMod(lambda, r).AddMod(BigUInt(1), r)
                  .IsZero());
}

TEST(Glv, EndomorphismActsAsLambda) {
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    G1 p = G1Generator().ScalarMul(BigUInt::RandomBelow(&rng, Bn254Order()));
    G1Affine phi = GlvEndomorphism(p.ToAffine());
    EXPECT_TRUE(G1::FromAffinePoint(phi).Equals(p.ScalarMul(GlvLambda())))
        << "iteration " << i;
  }
  EXPECT_TRUE(GlvEndomorphism(G1Affine::Infinity()).infinity);
}

// The limb decomposition against BigUInt arithmetic: k1 + lambda*k2 == k
// (mod r) with |k1|, |k2| < 2^130, for inputs below r and up to 2^256 - 1.
TEST(Glv, LimbDecompositionRoundTripsAndIsHalfSize) {
  const BigUInt& r = Bn254Order();
  const BigUInt& lambda = GlvLambda();
  const BigUInt one(1);
  const BigUInt two64 = one << 64;
  const BigUInt two128 = one << 128;
  std::vector<BigUInt> cases = {
      BigUInt(),        one,           BigUInt(2),    lambda,
      r - lambda,       r - one,       two64 - one,   two64,
      two64 + one,      two128 - one,  two128,        two128 + one,
      r,                r + BigUInt(5), r * BigUInt(3), (one << 256) - one,
  };
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    cases.push_back(i % 10 == 0 ? BigUInt::Random(&rng, 256)
                                : BigUInt::RandomBelow(&rng, r));
  }
  for (const BigUInt& k : cases) {
    GlvDecomposition d = GlvDecompose(ToLimbs({k})[0]);
    const BigUInt k1 = FromLimbs(d.k1);
    const BigUInt k2 = FromLimbs(d.k2);
    // The invariant is |ki| < 2^130; the derived basis keeps them to 129 bits.
    ASSERT_LE(k1.BitLength(), 129u) << "k=" << k.ToHex();
    ASSERT_LE(k2.BitLength(), 129u) << "k=" << k.ToHex();
    // Zero carries no sign.
    ASSERT_FALSE(k1.IsZero() && d.k1_neg);
    ASSERT_FALSE(k2.IsZero() && d.k2_neg);
    BigUInt acc = d.k1_neg ? (r - k1) % r : k1;
    BigUInt lk2 = lambda.MulMod(k2, r);
    acc = d.k2_neg ? acc.AddMod(r - lk2, r) : acc.AddMod(lk2, r);
    ASSERT_EQ(acc, k % r) << "k=" << k.ToHex();
  }
}

// --- Full kernel differentials ----------------------------------------------

// Adversarial scalar mix: 0, 1, r-1, duplicated scalars on distinct bases,
// identical bases with distinct scalars, plus random fill.
void FillAdversarial(Rng* rng, size_t n, std::vector<G1>* bases,
                     std::vector<BigUInt>* scalars) {
  const BigUInt& r = Bn254Order();
  *bases = RandomG1Bases(rng, n);
  scalars->assign(n, BigUInt());
  for (size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 0:
        (*scalars)[i] = BigUInt();  // zero
        break;
      case 1:
        (*scalars)[i] = BigUInt(1);
        break;
      case 2:
        (*scalars)[i] = r - BigUInt(1);
        break;
      case 3:
        (*scalars)[i] = BigUInt(0xdeadbeef);  // duplicated scalar
        break;
      case 4:
        (*bases)[i] = G1Generator();  // duplicated base
        (*scalars)[i] = BigUInt::RandomBelow(rng, r);
        break;
      case 5:
        (*bases)[i] = G1::Infinity();  // infinity base
        (*scalars)[i] = BigUInt::RandomBelow(rng, r);
        break;
      default:
        (*scalars)[i] = BigUInt::RandomBelow(rng, r);
    }
  }
}

TEST(MsmKernel, MatchesNaiveOnAdversarialInputs) {
  Rng rng(51);
  for (size_t n : {size_t{1}, size_t{2}, size_t{255}, size_t{256},
                   size_t{257}}) {
    std::vector<G1> bases;
    std::vector<BigUInt> scalars;
    FillAdversarial(&rng, n, &bases, &scalars);
    G1 want = NaiveMsm(bases, scalars);
    EXPECT_TRUE(MsmAffine(BatchToAffine(bases), scalars).Equals(want)) << "n=" << n;
    const std::vector<MsmScalar> limbs = ToLimbs(scalars);
    EXPECT_TRUE(MsmAffine(BatchToAffine(bases), limbs.data(), n).Equals(want))
        << "n=" << n;
  }
}

TEST(MsmKernel, MatchesNaiveAt4096) {
  Rng rng(61);
  const size_t n = 4096;
  std::vector<G1> bases = RandomG1Bases(&rng, n);
  std::vector<BigUInt> scalars;
  scalars.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
  }
  EXPECT_TRUE(MsmAffine(BatchToAffine(bases), scalars).Equals(NaiveMsm(bases, scalars)));
}

TEST(MsmKernel, AllZeroScalarsAndAllInfinityBases) {
  Rng rng(71);
  std::vector<G1> bases = RandomG1Bases(&rng, 600);
  std::vector<BigUInt> zeros(600);
  EXPECT_TRUE(MsmAffine(BatchToAffine(bases), zeros).IsInfinity());

  std::vector<G1> inf(600, G1::Infinity());
  std::vector<BigUInt> scalars;
  for (size_t i = 0; i < 600; ++i) {
    scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
  }
  EXPECT_TRUE(MsmAffine(BatchToAffine(inf), scalars).IsInfinity());
}

// The signed kernel must treat scalars as plain integers (no mod-r
// assumption): scalars >= r are legal for G2 callers too.
TEST(MsmKernel, G2MatchesNaive) {
  Rng rng(81);
  const size_t n = 40;
  std::vector<G2> bases;
  G2 p = G2Generator();
  for (size_t i = 0; i < n; ++i) {
    p = p.Double().Add(G2Generator());
    bases.push_back(p);
  }
  std::vector<BigUInt> scalars;
  for (size_t i = 0; i < n; ++i) {
    scalars.push_back(i == 0 ? BigUInt() : BigUInt::RandomBelow(&rng, Bn254Order()));
  }
  G2 want = NaiveMsm(bases, scalars);
  EXPECT_TRUE(MsmAffine(BatchToAffine(bases), scalars).Equals(want));
  EXPECT_TRUE(MsmSignedAffine(BatchToAffine(bases), ToLimbs(scalars)).Equals(want));
}

// Scalars above r: G1's GLV path reduces mod r (cofactor 1 makes that
// sound); the result must match naive double-and-add with the raw scalar.
TEST(MsmKernel, ScalarsAboveGroupOrder) {
  Rng rng(91);
  std::vector<G1> bases = RandomG1Bases(&rng, 5);
  std::vector<BigUInt> scalars;
  const BigUInt& r = Bn254Order();
  scalars.push_back(r);                  // == 0 on the group
  scalars.push_back(r + BigUInt(5));     // == 5
  scalars.push_back(r * BigUInt(3));     // == 0
  scalars.push_back(r + r - BigUInt(1)); // == r - 1
  scalars.push_back(BigUInt::RandomBelow(&rng, r) + r);
  EXPECT_TRUE(MsmAffine(BatchToAffine(bases), scalars).Equals(NaiveMsm(bases, scalars)));
}

TEST(MsmKernel, BigUIntAdapterMatchesLimbEntryPoint) {
  Rng rng(101);
  const size_t n = 700;
  std::vector<G1> bases = RandomG1Bases(&rng, n);
  std::vector<BigUInt> scalars;
  for (size_t i = 0; i < n; ++i) {
    scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
  }
  G1 via_adapter = MsmAffine(BatchToAffine(bases), scalars);
  EXPECT_TRUE(via_adapter.Equals(NaiveMsm(bases, scalars)));
  // The BigUInt adapter is a conversion in front of the limb entry point:
  // the results are bit-identical, not merely equal as group elements.
  const std::vector<MsmScalar> limbs = ToLimbs(scalars);
  G1 via_limbs = MsmAffine(BatchToAffine(bases), limbs.data(), n);
  EXPECT_EQ(via_limbs.x, via_adapter.x);
  EXPECT_EQ(via_limbs.y, via_adapter.y);
  EXPECT_EQ(via_limbs.z, via_adapter.z);
}

// --- Density split -------------------------------------------------------------

template <typename Point>
void ExpectSplitMatchesNaive(const std::vector<Point>& bases,
                             const std::vector<BigUInt>& scalars, const char* label) {
  const std::vector<MsmScalar> limbs = ToLimbs(scalars);
  Point got = MsmAffine(BatchToAffine(bases), limbs.data(), limbs.size());
  EXPECT_TRUE(got.Equals(NaiveMsm(bases, scalars)))
      << label << " n=" << bases.size();
}

TEST(MsmSplit, WitnessShapedG1MatchesNaive) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{63}, size_t{64}, size_t{65},
                   size_t{513}, size_t{4097}}) {
    std::vector<G1> bases;
    std::vector<BigUInt> scalars;
    WitnessMix(G1Generator(), n, 1000 + n, &bases, &scalars);
    ExpectSplitMatchesNaive(bases, scalars, "witness");
  }
}

TEST(MsmSplit, WitnessShapedG2MatchesNaive) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{63}, size_t{64}, size_t{65},
                   size_t{513}}) {
    std::vector<G2> bases;
    std::vector<BigUInt> scalars;
    WitnessMix(G2Generator(), n, 2000 + n, &bases, &scalars);
    ExpectSplitMatchesNaive(bases, scalars, "witness");
  }
}

// Vectors that leave parts of the split empty: nothing, only the short part,
// only the full part.
template <typename Point>
void ExpectUniformVectorsMatchNaive(const Point& gen, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> bases;
  std::vector<BigUInt> ignored;
  WitnessMix(gen, n, seed, &bases, &ignored);
  std::vector<BigUInt> zeros(n), shorts(n), fulls(n);
  for (size_t i = 0; i < n; ++i) {
    shorts[i] = i == 1 ? BigUInt(~uint64_t{0}) : BigUInt(rng.NextU64());
    fulls[i] = i == 1 ? BigUInt(1) << 64 : BigUInt::RandomBelow(&rng, Bn254Order());
  }
  ExpectSplitMatchesNaive(bases, zeros, "all-zero");
  ExpectSplitMatchesNaive(bases, shorts, "all-short");
  ExpectSplitMatchesNaive(bases, fulls, "all-full");
  const std::vector<MsmScalar> zero_limbs = ToLimbs(zeros);
  EXPECT_TRUE(MsmAffine(BatchToAffine(bases), zero_limbs.data(), n).IsInfinity());
}

TEST(MsmSplit, AllZeroAllShortAllFullMatchNaive) {
  ExpectUniformVectorsMatchNaive(G1Generator(), 300, 3001);
  ExpectUniformVectorsMatchNaive(G2Generator(), 65, 3002);
}

// --- Fixed-base table ----------------------------------------------------------

// Setup's width (8) and the prepared key's (4), on the scalars where the
// signed recoding carries or reaches the top window (0, 1, 2, r - 1, r,
// 2^64 +- 1, 2^128 +- 1, 2^254, 2^256 - 1) and on random 256-bit scalars;
// MulAdd onto a non-infinity accumulator too.
template <typename Point>
void ExpectFixedBaseTableMatchesScalarMul(const Point& gen, uint64_t seed) {
  Rng rng(seed);
  const BigUInt one(1);
  const BigUInt& r = Bn254Order();
  std::vector<BigUInt> scalars = {BigUInt(),          one,
                                  BigUInt(2),         r - one,
                                  r,                  (one << 64) - one,
                                  (one << 64) + one,  (one << 128) - one,
                                  (one << 128) + one, one << 254,
                                  (one << 256) - one};
  for (int i = 0; i < 64; ++i) {
    scalars.push_back(BigUInt::RandomBelow(&rng, one << 256));
  }
  const std::vector<MsmScalar> limbs = ToLimbs(scalars);
  const Point base = gen.ScalarMul(BigUInt::RandomBelow(&rng, r));
  const Point acc = gen.ScalarMul(BigUInt::RandomBelow(&rng, r));
  std::vector<Point> want;
  for (const BigUInt& k : scalars) {
    want.push_back(base.ScalarMul(k));
  }
  for (size_t c : {size_t{4}, size_t{8}}) {
    const FixedBaseTable<typename Point::ConfigType> table(base, c);
    EXPECT_EQ(table.points().size(), ((256 + c - 1) / c + 1) << (c - 1));
    for (size_t i = 0; i < scalars.size(); ++i) {
      EXPECT_TRUE(table.Mul(limbs[i]).Equals(want[i]))
          << "c=" << c << " k=" << scalars[i].ToHex();
      EXPECT_TRUE(table.MulAdd(limbs[i], acc).Equals(acc.Add(want[i])))
          << "c=" << c << " k=" << scalars[i].ToHex();
    }
  }
}

TEST(FixedBaseTable, MatchesScalarMulOnG1AndG2) {
  ExpectFixedBaseTableMatchesScalarMul(G1Generator(), 4001);
  ExpectFixedBaseTableMatchesScalarMul(G2Generator(), 4002);
}

}  // namespace
}  // namespace nope
