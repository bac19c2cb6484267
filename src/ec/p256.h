// NIST P-256 (secp256r1), the ECDSA curve used by modern DNSSEC zones
// (algorithm 13, RFC 6605). a = -3; standard generator.
#ifndef SRC_EC_P256_H_
#define SRC_EC_P256_H_

#include "src/ec/curve.h"
#include "src/ff/fp.h"

namespace nope {

struct P256Config {
  using Field = P256Fq;
  static constexpr bool kAIsZero = false;
  static constexpr bool kAIsMinus3 = true;
  static Field A() {
    static const Field a = Field::Zero() - Field::FromU64(3);
    return a;
  }
  static Field B() {
    static const Field b = Field::FromBigUInt(BigUInt::FromHex(
        "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"));
    return b;
  }
};

using P256Point = EcPoint<P256Config>;

// Group order n.
const BigUInt& P256Order();

P256Point P256Generator();

}  // namespace nope

#endif  // SRC_EC_P256_H_
