#include "src/sig/ecdsa.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/sha256.h"

namespace nope {
namespace {

Bytes Ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

uint64_t Fnv1a(const Bytes& data, uint64_t h = 0xcbf29ce484222325ull) {
  for (uint8_t b : data) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

bool InRange(const EcdsaSignature& sig) {
  const BigUInt& n = P256Order();
  return !sig.r.IsZero() && !sig.s.IsZero() && sig.r < n && sig.s < n;
}

// The textbook R = u1*G + u2*Q of an in-range signature: s^-1 by
// BigUInt::InvMod, then two separate double-and-add ScalarMuls.
P256Point OracleR(const EcdsaPublicKey& key, const Bytes& digest, const EcdsaSignature& sig) {
  const BigUInt& n = P256Order();
  BigUInt w = sig.s.InvMod(n);
  BigUInt u1 = (BigUInt::FromBytes(digest) % n).MulMod(w, n);
  return P256Generator().ScalarMul(u1).Add(key.q.ScalarMul(sig.r.MulMod(w, n)));
}

// Textbook verification, the oracle of the differential corpus: R's affine
// x-coordinate reduced mod n.
bool OracleVerify(const EcdsaPublicKey& key, const P256Point& r, const EcdsaSignature& sig) {
  return InRange(sig) && !key.q.IsInfinity() && key.q.IsOnCurve() && !r.IsInfinity() &&
         r.ToAffine().x.ToBigUInt() % P256Order() == sig.r;
}

struct Triple {
  EcdsaPublicKey key;
  Bytes digest;
  EcdsaSignature sig;
};

// Triples whose R = u1*G + u2*Q has x(R) in [n, p), so x(R) mod n == r
// only through x(R) == r + n. R is a point with such an x; for random u1,
// u2 the key is Q = u2^-1 (R - u1*G), s = r u2^-1 and z = u1 s, which makes
// the verifier's u1 and u2 exactly the chosen ones.
std::vector<Triple> RPlusNTriples(Rng* rng, size_t count) {
  const BigUInt& n = P256Order();
  const BigUInt& p = P256Fq::params().modulus_big;
  const BigUInt sqrt_exp = (p + BigUInt(1)) >> 2;
  std::vector<Triple> out;
  for (BigUInt x = n + BigUInt(1); out.size() < count; x = x + BigUInt(1)) {
    P256Fq xf = P256Fq::FromBigUInt(x);
    P256Fq rhs = xf.Square() * xf + P256Config::A() * xf + P256Config::B();
    P256Fq y = rhs.Pow(sqrt_exp);
    if (y.Square() != rhs) {
      continue;
    }
    for (const P256Fq& yy : {y, -y}) {
      P256Point big_r = P256Point::FromAffine(xf, yy);
      BigUInt u1 = BigUInt::RandomBelow(rng, n);
      BigUInt u2 = BigUInt::RandomBelow(rng, n - BigUInt(1)) + BigUInt(1);
      BigUInt u2_inv = u2.InvMod(n);
      P256Point q = big_r.Add(P256Generator().ScalarMul(n - u1)).ScalarMul(u2_inv);
      BigUInt r = x - n;
      BigUInt s = r.MulMod(u2_inv, n);
      out.push_back({EcdsaPublicKey{q}, u1.MulMod(s, n).ToBytes(32), EcdsaSignature{r, s}});
    }
  }
  return out;
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  Rng rng(501);
  EcdsaKeyPair kp = GenerateEcdsaKey(&rng);
  Bytes msg = Ascii("example.com. 3600 IN DNSKEY 257 3 13 ...");
  EcdsaSignature sig = EcdsaSign(kp.priv, msg);
  EXPECT_TRUE(EcdsaVerify(kp.pub, msg, sig));

  Bytes bad = msg;
  bad.back() ^= 1;
  EXPECT_FALSE(EcdsaVerify(kp.pub, bad, sig));

  EcdsaSignature bad_sig = sig;
  bad_sig.s = bad_sig.s + BigUInt(1);
  EXPECT_FALSE(EcdsaVerify(kp.pub, msg, bad_sig));
}

TEST(Ecdsa, WrongKeyRejects) {
  Rng rng(502);
  EcdsaKeyPair kp1 = GenerateEcdsaKey(&rng);
  EcdsaKeyPair kp2 = GenerateEcdsaKey(&rng);
  Bytes msg = Ascii("msg");
  EXPECT_FALSE(EcdsaVerify(kp2.pub, msg, EcdsaSign(kp1.priv, msg)));
}

TEST(Ecdsa, DeterministicNonces) {
  Rng rng(503);
  EcdsaKeyPair kp = GenerateEcdsaKey(&rng);
  Bytes msg = Ascii("rfc6979");
  EcdsaSignature s1 = EcdsaSign(kp.priv, msg);
  EcdsaSignature s2 = EcdsaSign(kp.priv, msg);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Ecdsa, Rfc6979KnownVector) {
  // RFC 6979 A.2.5, P-256 + SHA-256, message "sample".
  EcdsaPrivateKey priv{BigUInt::FromHex(
      "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")};
  EcdsaSignature sig = EcdsaSign(priv, Ascii("sample"));
  EXPECT_EQ(sig.r.ToHex(), "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  EXPECT_EQ(sig.s.ToHex(), "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
  // And verify against the RFC's public key.
  EcdsaPublicKey pub{P256Generator().ScalarMul(priv.d)};
  auto aff = pub.q.ToAffine();
  EXPECT_EQ(aff.x.ToBigUInt().ToHex(),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  EXPECT_TRUE(EcdsaVerify(pub, Ascii("sample"), sig));
}

TEST(Ecdsa, EncodingRoundTrips) {
  Rng rng(504);
  EcdsaKeyPair kp = GenerateEcdsaKey(&rng);
  Result<EcdsaPublicKey> pub = EcdsaPublicKey::TryDecode(kp.pub.Encode());
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub.value(), kp.pub);
  EcdsaSignature sig = EcdsaSign(kp.priv, Ascii("m"));
  EcdsaSignature decoded = EcdsaSignature::Decode(sig.Encode());
  EXPECT_EQ(decoded.r, sig.r);
  EXPECT_EQ(decoded.s, sig.s);
  EXPECT_THROW(EcdsaSignature::Decode(Bytes(10)), std::invalid_argument);
  EXPECT_FALSE(EcdsaPublicKey::TryDecode(Bytes(65, 1)).ok());
}

TEST(Ecdsa, GlvSideInfoIsHalfSize) {
  Rng rng(505);
  BigUInt bound = BigUInt(1) << 130;
  for (int i = 0; i < 20; ++i) {
    BigUInt h1 = BigUInt::RandomBelow(&rng, P256Order());
    GlvSideInfo side = ComputeGlvSideInfo(h1);
    EXPECT_TRUE(side.v < bound);
    EXPECT_TRUE(side.h1v < bound);
    BigUInt prod = h1.MulMod(side.v, P256Order());
    if (side.h1v_negated) {
      prod = (P256Order() - prod) % P256Order();
    }
    EXPECT_EQ(prod, side.h1v % P256Order());
  }
}

TEST(Ecdsa, GlvVerifyMatchesStandardVerify) {
  Rng rng(506);
  for (int i = 0; i < 8; ++i) {
    EcdsaKeyPair kp = GenerateEcdsaKey(&rng);
    Bytes msg = rng.NextBytes(40);
    EcdsaSignature sig = EcdsaSign(kp.priv, msg);
    EXPECT_TRUE(EcdsaVerifyGlv(kp.pub, msg, sig));
    // Invalid signature rejected by both.
    EcdsaSignature bad = sig;
    bad.r = (bad.r + BigUInt(1)) % P256Order();
    EXPECT_EQ(EcdsaVerify(kp.pub, msg, bad), EcdsaVerifyGlv(kp.pub, msg, bad));
    Bytes bad_msg = msg;
    bad_msg[0] ^= 0xff;
    EXPECT_FALSE(EcdsaVerifyGlv(kp.pub, bad_msg, sig));
  }
}

// A seeded corpus of 10,000+ (key, digest, signature) triples, each
// verified by EcdsaVerifyDigest and by the textbook oracle above. Per key:
// a valid signature, r + 1, s + 1, the high-s twin n - s (valid), r or s
// equal to 0 or to n or above n, the previous key, a flipped digest bit,
// and the digest z = -r d mod n that sends u1*G + u2*Q to infinity. Plus
// signatures that verify only through the r + n branch, and their
// corrupted copies.
TEST(Ecdsa, DifferentialCorpusMatchesTextbookVerify) {
  Rng rng(19002);
  const BigUInt& n = P256Order();
  std::vector<Triple> corpus;
  EcdsaKeyPair prev = GenerateEcdsaKey(&rng);
  for (int i = 0; i < 1100; ++i) {
    EcdsaKeyPair kp = GenerateEcdsaKey(&rng);
    Bytes msg = rng.NextBytes(1 + i % 64);
    Bytes digest = Sha256::Hash(msg);
    EcdsaSignature sig = EcdsaSign(kp.priv, msg);
    auto add = [&](const EcdsaPublicKey& key, const Bytes& d, const BigUInt& r, const BigUInt& s) {
      corpus.push_back({key, d, EcdsaSignature{r, s}});
    };
    const BigUInt big[] = {BigUInt(0), n, n + BigUInt(static_cast<uint64_t>(1 + i)),
                           BigUInt(1) << 256};
    add(kp.pub, digest, sig.r, sig.s);
    add(kp.pub, digest, (sig.r + BigUInt(1)) % n, sig.s);
    add(kp.pub, digest, sig.r, (sig.s + BigUInt(1)) % n);
    add(kp.pub, digest, sig.r, n - sig.s);
    add(kp.pub, digest, i % 2 == 0 ? big[i / 2 % 4] : sig.r, i % 2 == 0 ? sig.s : big[i / 2 % 4]);
    add(prev.pub, digest, sig.r, sig.s);
    Bytes flipped = digest;
    flipped[i % 32] ^= static_cast<uint8_t>(1u << (i % 8));
    add(kp.pub, flipped, sig.r, sig.s);
    BigUInt z_inf = (n - sig.r.MulMod(kp.priv.d, n)) % n;
    add(kp.pub, z_inf.ToBytes(32), sig.r, sig.s);
    add(kp.pub, z_inf.ToBytes(32), sig.r, n - sig.s);
    prev = kp;
  }
  for (Triple& t : RPlusNTriples(&rng, 40)) {
    corpus.push_back(t);
    Triple bad = t;
    bad.digest[31] ^= 1;
    corpus.push_back(bad);
    bad = t;
    bad.sig.r = bad.sig.r + BigUInt(1);
    corpus.push_back(bad);
  }
  ASSERT_GE(corpus.size(), 10000u);

  size_t accepted = 0, infinity = 0, r_plus_n = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Triple& t = corpus[i];
    const P256Point r = InRange(t.sig) ? OracleR(t.key, t.digest, t.sig) : P256Point::Infinity();
    const bool want = OracleVerify(t.key, r, t.sig);
    ASSERT_EQ(EcdsaVerifyDigest(t.key, t.digest, t.sig), want) << "triple " << i;
    accepted += want ? 1 : 0;
    infinity += InRange(t.sig) && r.IsInfinity() ? 1 : 0;
    r_plus_n += want && r.ToAffine().x.ToBigUInt() >= n ? 1 : 0;
  }
  // Each class the corpus is built to reach is reached.
  EXPECT_EQ(accepted, 2 * 1100u + 40u);  // valid, high-s twin, r + n
  EXPECT_EQ(infinity, 2 * 1100u);
  EXPECT_EQ(r_plus_n, 40u);
}

// An FNV-1a digest of 1,000 seeded public keys and signatures, captured from
// the double-and-add implementation this one replaced. RFC 6979 fixes k,
// and r = x(kG) mod n does not depend on how kG is computed, so the bytes
// must not move.
TEST(Ecdsa, KeysAndSignaturesArePinned) {
  Rng rng(19001);
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 1000; ++i) {
    EcdsaKeyPair kp = GenerateEcdsaKey(&rng);
    Bytes msg = rng.NextBytes(32);
    h = Fnv1a(kp.pub.Encode(), h);
    h = Fnv1a(EcdsaSign(kp.priv, msg).Encode(), h);
  }
  EXPECT_EQ(h, 0xf850fdcd597ea782ull);
}

}  // namespace
}  // namespace nope
