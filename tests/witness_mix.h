// Witness-shaped MSM inputs for the kernel tests and the determinism digest:
// a prover witness in miniature. Scalars are ~67% zero, 28% one, 3% up to
// 64 bits and 2% full width (below r), with 2^64 - 1 and 2^64 on either side
// of MsmAffine's short/full split. Bases walk gen, 3gen, 7gen, ... and every
// 97th slot holds an infinity base, a repeated base or a P/-P pair with equal
// scalars, so every part of the split meets the kernel's degenerate cases.
#ifndef TESTS_WITNESS_MIX_H_
#define TESTS_WITNESS_MIX_H_

#include <cstdint>
#include <vector>

#include "src/base/biguint.h"
#include "src/base/bytes.h"
#include "src/ff/fp.h"

namespace nope {

template <typename Point>
void WitnessMix(const Point& gen, size_t n, uint64_t seed, std::vector<Point>* bases,
                std::vector<BigUInt>* scalars) {
  Rng rng(seed);
  bases->assign(n, Point::Infinity());
  scalars->assign(n, BigUInt());
  Point acc = gen;
  for (size_t i = 0; i < n; ++i) {
    (*bases)[i] = acc;
    acc = acc.Double().Add(gen);
    uint64_t roll = rng.NextBelow(100);
    if (roll < 67) {
      (*scalars)[i] = BigUInt();
    } else if (roll < 95) {
      (*scalars)[i] = BigUInt(1);
    } else if (roll < 98) {
      (*scalars)[i] = BigUInt(rng.NextU64());
    } else {
      (*scalars)[i] = BigUInt::RandomBelow(&rng, Fr::params().modulus_big);
    }
    switch (i % 97) {
      case 3:
        (*bases)[i] = Point::Infinity();
        break;
      case 5:
        (*bases)[i] = (*bases)[i - 1];
        break;
      case 9:
        (*bases)[i] = (*bases)[i - 1].Negate();
        (*scalars)[i] = (*scalars)[i - 1];
        break;
      case 13:
        (*scalars)[i] = BigUInt(~uint64_t{0});
        break;
      case 14:
        (*scalars)[i] = BigUInt(1) << 64;
        break;
    }
  }
}

}  // namespace nope

#endif  // TESTS_WITNESS_MIX_H_
