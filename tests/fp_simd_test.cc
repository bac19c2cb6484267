// Differential tests pinning the SIMD Montgomery kernels bit-identical to
// the scalar CIOS path, across all four moduli. The P-256 base field is the
// adversarial one: its prime sits within 2^-32 of 2^256, so the t < 2p
// pre-subtraction value genuinely needs the kernels' extra carry digit.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/ec/batch_affine.h"
#include "src/ec/bn254.h"
#include "src/ff/fp.h"
#include "src/ff/fp_simd.h"

namespace nope {
namespace {

template <typename Field>
class FpSimdTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fq, Fr, P256Fq, P256Fn>;
TYPED_TEST_SUITE(FpSimdTest, FieldTypes);

// Draws a uniform canonical limb array and adopts it as Montgomery form --
// much faster than Random() (no modular reduction, no R^2 multiply), which
// matters for the 10^5-element sweeps. The distribution of raw limb
// patterns is what the kernels see, so uniformity over [0, p) is exactly
// the right sweep space.
template <typename F>
F RandomRaw(Rng* rng) {
  const auto& p = F::kModulus;
  const int shift = __builtin_clzll(p[3]);
  const uint64_t top_mask = ~0ull >> shift;
  while (true) {
    std::array<uint64_t, 4> limbs = {rng->NextU64(), rng->NextU64(),
                                     rng->NextU64(), rng->NextU64() & top_mask};
    bool below = false;
    for (int i = 3; i >= 0; --i) {
      if (limbs[i] != p[i]) {
        below = limbs[i] < p[i];
        break;
      }
    }
    if (below) {
      return F::FromMontLimbs(limbs);
    }
  }
}

// Raw limb edge values: both boundaries of the canonical range, values a
// power of two below p (every carry-chain cutover), the all-ones / 32-bit
// checkerboard limb patterns, and the Montgomery images of tiny integers.
template <typename F>
std::vector<F> EdgeValues() {
  const auto& p = F::kModulus;
  auto sub_small = [&](uint64_t k) {  // p - k as raw limbs (k >= 1)
    std::array<uint64_t, 4> out = p;
    uint64_t borrow = k;
    for (int i = 0; i < 4 && borrow != 0; ++i) {
      uint64_t before = out[i];
      out[i] = before - borrow;
      borrow = before < borrow ? 1 : 0;
    }
    return out;
  };
  std::vector<std::array<uint64_t, 4>> raw;
  raw.push_back({0, 0, 0, 0});
  raw.push_back({1, 0, 0, 0});
  raw.push_back({2, 0, 0, 0});
  raw.push_back(F::One().limbs());
  raw.push_back(sub_small(1));
  raw.push_back(sub_small(2));
  // p - 2^k at every limb boundary and mid-limb: exercises borrows that
  // ripple a controlled distance, and products whose high halves land right
  // at the carry-digit cutover.
  for (int k : {1, 31, 32, 33, 63, 64, 65, 127, 128, 191, 192, 255}) {
    std::array<uint64_t, 4> out = p;
    const int limb = k / 64;
    const uint64_t bit = 1ull << (k % 64);
    uint64_t before = out[limb];
    out[limb] = before - bit;
    if (before < bit) {
      for (int i = limb + 1; i < 4; ++i) {
        if (out[i]-- != 0) {
          break;
        }
      }
    }
    raw.push_back(out);
  }
  // Saturated-digit patterns (filtered to < p below): all-ones limbs stress
  // every 32-bit digit at its maximum, the checkerboards stress alternating
  // zero/max digits.
  const uint64_t pats[] = {0ull, 1ull, ~0ull, 0xffffffff00000000ull,
                           0x00000000ffffffffull};
  for (uint64_t l3 : pats) {
    for (uint64_t l0 : pats) {
      raw.push_back({l0, ~0ull, ~0ull, l3});
      raw.push_back({l0, 0, 0, l3});
    }
  }
  std::vector<F> out;
  for (const auto& limbs : raw) {
    bool below = false;
    for (int i = 3; i >= 0; --i) {
      if (limbs[i] != p[i]) {
        below = limbs[i] < p[i];
        break;
      }
    }
    if (below) {
      out.push_back(F::FromMontLimbs(limbs));
    }
  }
  return out;
}

TEST(FpSimdDispatch, ReportsBackend) {
  const fp_simd::Backend& be = fp_simd::ActiveBackend();
  ASSERT_GE(be.lanes, 1u);
  EXPECT_EQ(be.lanes == 1, be.mont_mul == nullptr);
  RecordProperty("backend", be.name);
  std::printf("[ SIMD     ] backend=%s lanes=%zu\n", be.name, be.lanes);
}

TEST(FpSimdDispatch, ParseRequestCoversEverySpelling) {
  using fp_simd::ParseRequest;
  using fp_simd::Request;
  for (const char* v : {"off", "OFF", "Off", "0", "scalar", "Scalar"}) {
    EXPECT_EQ(ParseRequest(v), Request::kScalar) << v;
  }
  for (const char* v : {"avx2", "AVX2", "Avx2"}) {
    EXPECT_EQ(ParseRequest(v), Request::kAvx2) << v;
  }
  for (const char* v : {"avx512", "AVX512", "Avx512"}) {
    EXPECT_EQ(ParseRequest(v), Request::kAvx512) << v;
  }
  // Every other value means automatic, including ones that read as "switch
  // it on" and kernels that do not exist or were removed.
  EXPECT_EQ(ParseRequest(nullptr), Request::kAuto);
  for (const char* v : {"", "auto", "AUTO", "on", "1", "true", "yes", "AVX-512",
                        "avx-512", "avx512f", "avx", "neon", "sse2", " off",
                        "off ", "00", "-1"}) {
    EXPECT_EQ(ParseRequest(v), Request::kAuto) << "'" << v << "'";
  }
}

TEST(FpSimdDispatch, InitIsThreadSafe) {
  // First-call init is a magic static; hammer it from several threads (the
  // TSan CI stage runs this test in a fresh process so the init really is
  // concurrent there).
  std::vector<std::thread> threads;
  std::vector<size_t> lanes(8);
  for (size_t t = 0; t < lanes.size(); ++t) {
    threads.emplace_back([&lanes, t] {
      lanes[t] = fp_simd::ActiveBackend().lanes;
      Fr a[16];
      Fr out[16];
      for (int i = 0; i < 16; ++i) {
        a[i] = Fr::FromU64(t * 100 + i + 1);
      }
      Fr::MulBatch(a, a, out, 16);
      for (int i = 0; i < 16; ++i) {
        lanes[t] += out[i] == a[i].Square() ? 0 : 1000;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (size_t t = 1; t < lanes.size(); ++t) {
    EXPECT_EQ(lanes[t], lanes[0]);
  }
}

TYPED_TEST(FpSimdTest, RandomSweepMatchesScalar) {
  using F = TypeParam;
  // >= 10^5 random values per modulus; mul and square, batch vs scalar.
  constexpr size_t kN = 100000;
  Rng rng(20240801);
  std::vector<F> a(kN);
  std::vector<F> b(kN);
  for (size_t i = 0; i < kN; ++i) {
    a[i] = RandomRaw<F>(&rng);
    b[i] = RandomRaw<F>(&rng);
  }
  std::vector<F> out(kN);
  F::MulBatch(a.data(), b.data(), out.data(), kN);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i].limbs(), (a[i] * b[i]).limbs()) << "mul mismatch at " << i;
  }
  F::SquareBatch(a.data(), out.data(), kN);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i].limbs(), a[i].Square().limbs()) << "sqr mismatch at " << i;
  }
}

TYPED_TEST(FpSimdTest, AdversarialEdgePairs) {
  using F = TypeParam;
  std::vector<F> edges = EdgeValues<F>();
  ASSERT_GE(edges.size(), 20u);
  // All pairs, in every lane position: for each rotation r, lane e of the
  // batch multiplies edges[i] by edges[(i + r) % E], so every pair lands in
  // every lane slot across rotations.
  const size_t e = edges.size();
  std::vector<F> a(e * e);
  std::vector<F> b(e * e);
  size_t idx = 0;
  for (size_t r = 0; r < e; ++r) {
    for (size_t i = 0; i < e; ++i) {
      a[idx] = edges[i];
      b[idx] = edges[(i + r) % e];
      ++idx;
    }
  }
  std::vector<F> out(e * e);
  F::MulBatch(a.data(), b.data(), out.data(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i].limbs(), (a[i] * b[i]).limbs())
        << "edge pair mismatch at " << i;
  }
}

TYPED_TEST(FpSimdTest, TailAndAliasing) {
  using F = TypeParam;
  Rng rng(7);
  for (size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33}) {
    std::vector<F> a(n);
    std::vector<F> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = RandomRaw<F>(&rng);
      b[i] = RandomRaw<F>(&rng);
    }
    std::vector<F> expect(n);
    for (size_t i = 0; i < n; ++i) {
      expect[i] = a[i] * b[i];
    }
    std::vector<F> out(n);
    F::MulBatch(a.data(), b.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i].limbs(), expect[i].limbs()) << "n=" << n << " i=" << i;
    }
    // Elementwise aliasing: out == a.
    std::vector<F> alias = a;
    F::MulBatch(alias.data(), b.data(), alias.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(alias[i].limbs(), expect[i].limbs())
          << "alias n=" << n << " i=" << i;
    }
  }
}

TYPED_TEST(FpSimdTest, ToStdLimbsBatchMatchesToBigUInt) {
  using F = TypeParam;
  Rng rng(11);
  for (size_t n : {0, 1, 63, 64, 65, 200}) {
    std::vector<F> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = RandomRaw<F>(&rng);
    }
    std::vector<std::array<uint64_t, 4>> limbs(n);
    F::ToStdLimbsBatch(vals.data(), limbs.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(BigUInt::FromLimbsLE(limbs[i].data(), 4), vals[i].ToBigUInt());
    }
  }
}

TYPED_TEST(FpSimdTest, BatchInvertFieldMatchesInverse) {
  using F = TypeParam;
  Rng rng(13);
  for (size_t n : {0, 1, 5, 15, 16, 63, 64, 256, 1000, 4099}) {
    std::vector<F> vals(n);
    for (size_t i = 0; i < n; ++i) {
      // Sprinkle zeros (the "no pair here" holes the MSM fold relies on).
      vals[i] = i % 7 == 3 ? F::Zero() : RandomRaw<F>(&rng);
    }
    std::vector<F> orig = vals;
    BatchInvertField(&vals);
    for (size_t i = 0; i < n; ++i) {
      if (orig[i].IsZero()) {
        EXPECT_TRUE(vals[i].IsZero()) << "n=" << n << " i=" << i;
      } else {
        ASSERT_EQ(vals[i].limbs(), orig[i].Inverse().limbs())
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(FpSimdBatchAffine, MatchesPerPointToAffine) {
  Rng rng(17);
  for (size_t n : {1u, 7u, 300u, 1025u}) {
    std::vector<G1> points(n);
    G1 acc = G1Generator();
    for (size_t i = 0; i < n; ++i) {
      points[i] = i % 11 == 5 ? G1::Infinity() : acc;
      acc = acc.Double().Add(G1Generator());
    }
    std::vector<G1Affine> batch = BatchToAffine(points);
    ASSERT_EQ(batch.size(), n);
    for (size_t i = 0; i < n; ++i) {
      G1Affine single = points[i].ToAffine();
      EXPECT_EQ(batch[i].infinity, single.infinity) << i;
      if (!single.infinity) {
        EXPECT_EQ(batch[i].x, single.x) << i;
        EXPECT_EQ(batch[i].y, single.y) << i;
      }
    }
  }
}

TEST(FpSimdInvariants, ToLimbsRejectsWideValues) {
  BigUInt wide = BigUInt(1) << 256;  // five limbs once normalized
  EXPECT_DEATH(fp_detail::ToLimbs(wide), "does not fit");
}

TEST(FpSimdInvariants, FromMontLimbsRejectsNonCanonical) {
  EXPECT_DEATH(Fr::FromMontLimbs(Fr::kModulus), "canonical");
}

}  // namespace
}  // namespace nope
