#include "src/sig/ecdsa.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "src/base/hmac.h"
#include "src/base/sha256.h"
#include "src/ec/batch_affine.h"
#include "src/ec/msm.h"

namespace nope {

namespace {

using P256Affine = AffinePoint<P256Config>;

// The digest as a scalar mod n. P-256's order is 256 bits, so the full
// digest is used (no truncation).
P256Fn DigestToScalar(const Bytes& digest) {
  return P256Fn::FromBigUInt(BigUInt::FromBytes(digest));
}

// sqrt in P-256's base field (p == 3 mod 4): a^((p+1)/4).
bool SqrtP256(const P256Fq& a, P256Fq* out) {
  static const BigUInt exp = (P256Fq::params().modulus_big + BigUInt(1)) >> 2;
  P256Fq r = a.Pow(exp);
  if (r.Square() != a) {
    return false;
  }
  *out = r;
  return true;
}

// --- u1*G + u2*Q -------------------------------------------------------------
//
// Window widths of the two recodings. G's odd multiples are one static
// table, so its window is wider than Q's, whose table is built per call.
constexpr size_t kGWindow = 7;  // G, 3G, ..., 63G: 32 affine points
constexpr size_t kQWindow = 5;  // Q, 3Q, ..., 15Q: 8 Jacobian points

// Bit positions a recoded scalar below 2^256 can reach: the top window of
// SignedDigits holds at most a carry of 1, at bit c * ceil(256 / c) < 256 + c.
constexpr size_t kDigitSlots = 256 + std::max(kGWindow, kQWindow);

// Recodes k into odd signed digits: out[i] is zero or odd, and
// k == sum_i out[i] * 2^i. SignedDigits gives one digit d in
// [-2^(c-1), 2^(c-1)) per c-bit window; an even d == d' * 2^t moves t bits
// up as its odd part d', so a table needs only the odd multiples
// 1, 3, ..., 2^(c-1) - 1 of its point.
std::array<int8_t, kDigitSlots> OddDigits(const MsmScalar& k, size_t c) {
  const size_t windows = (256 + c - 1) / c + 1;
  int32_t digits[256 / 2 + 2] = {};
  msm_detail::SignedDigits(k, c, windows, digits);
  std::array<int8_t, kDigitSlots> out{};
  for (size_t w = 0; w < windows; ++w) {
    if (digits[w] != 0) {
      const int t = __builtin_ctz(static_cast<unsigned>(std::abs(digits[w])));
      out[w * c + t] = static_cast<int8_t>(digits[w] >> t);
    }
  }
  return out;
}

// p, 3p, ..., (2^(c-1) - 1) p.
std::vector<P256Point> OddMultiples(const P256Point& p, size_t c) {
  std::vector<P256Point> out(size_t{1} << (c - 2));
  const P256Point twice = p.Double();
  out[0] = p;
  for (size_t i = 1; i < out.size(); ++i) {
    out[i] = out[i - 1].Add(twice);
  }
  return out;
}

// The odd multiples of G, affine (one BatchToAffine on first use), shared by
// verification, signing and key generation.
const std::vector<P256Affine>& GeneratorTable() {
  static const std::vector<P256Affine> table =
      BatchToAffine(OddMultiples(P256Generator(), kGWindow));
  return table;
}

// u1*G + u2*Q in one Straus-Shamir loop: each bit costs one shared doubling
// (the a = -3 formula), then the odd digits of u1 and u2 at that bit add
// their table entries, G's by mixed addition. u2 == 0 skips Q's table, so
// u1*G alone costs the same loop.
P256Point MulAdd(const MsmScalar& u1, const MsmScalar& u2, const P256Point& q) {
  const std::array<int8_t, kDigitSlots> dg = OddDigits(u1, kGWindow);
  const std::array<int8_t, kDigitSlots> dq = OddDigits(u2, kQWindow);
  const std::vector<P256Affine>& g_odd = GeneratorTable();
  std::vector<P256Point> q_odd;
  if ((u2[0] | u2[1] | u2[2] | u2[3]) != 0) {
    q_odd = OddMultiples(q, kQWindow);
  }
  P256Point acc = P256Point::Infinity();
  for (size_t i = kDigitSlots; i-- > 0;) {
    acc = acc.Double();
    if (dg[i] > 0) {
      acc = acc.AddMixed(g_odd[dg[i] >> 1]);
    } else if (dg[i] < 0) {
      acc = acc.AddMixed(g_odd[-dg[i] >> 1].Negate());
    }
    if (dq[i] > 0) {
      acc = acc.Add(q_odd[dq[i] >> 1]);
    } else if (dq[i] < 0) {
      acc = acc.Add(q_odd[-dq[i] >> 1].Negate());
    }
  }
  return acc;
}

P256Point MulGenerator(const BigUInt& k) {
  return MulAdd(fp_detail::ToLimbs(k), MsmScalar{}, P256Point::Infinity());
}

// x(R) mod n == r, without inverting Z. x(R) = X / Z^2 lies in [0, p) and
// p < 2n, so x(R) mod n == r iff X == r Z^2, or X == (r + n) Z^2 where
// r + n < p. Requires 0 < r < n and R finite.
bool XMatches(const P256Point& rp, const BigUInt& r) {
  static const BigUInt p_minus_n = P256Fq::params().modulus_big - P256Order();
  static const P256Fq n_fq = P256Fq::FromBigUInt(P256Order());
  const P256Fq zz = rp.z.Square();
  const P256Fq r_fq = P256Fq::FromBigUInt(r);
  if (r_fq * zz == rp.x) {
    return true;
  }
  return r < p_minus_n && (r_fq + n_fq) * zz == rp.x;
}

}  // namespace

Bytes EcdsaPublicKey::Encode() const {
  auto affine = q.ToAffine();
  if (affine.infinity) {
    throw std::invalid_argument("cannot encode point at infinity");
  }
  Bytes out;
  out.push_back(0x04);
  AppendBytes(&out, affine.x.ToBigUInt().ToBytes(32));
  AppendBytes(&out, affine.y.ToBigUInt().ToBytes(32));
  return out;
}

Result<EcdsaPublicKey> EcdsaPublicKey::TryDecode(const Bytes& encoded) {
  if (encoded.size() != 65 || encoded[0] != 0x04) {
    return Error(ErrorCode::kBadEncoding, "bad SEC1 uncompressed point");
  }
  BigUInt x = BigUInt::FromBytes(Bytes(encoded.begin() + 1, encoded.begin() + 33));
  BigUInt y = BigUInt::FromBytes(Bytes(encoded.begin() + 33, encoded.end()));
  if (!(x < P256Fq::params().modulus_big) || !(y < P256Fq::params().modulus_big)) {
    return Error(ErrorCode::kOutOfRange, "P-256 coordinate not reduced mod p");
  }
  P256Point p = P256Point::FromAffine(P256Fq::FromBigUInt(x), P256Fq::FromBigUInt(y));
  if (!p.IsOnCurve()) {
    return Error(ErrorCode::kNotOnCurve, "point not on P-256");
  }
  return EcdsaPublicKey{p};
}

Bytes EcdsaSignature::Encode() const {
  Bytes out = r.ToBytes(32);
  AppendBytes(&out, s.ToBytes(32));
  return out;
}

EcdsaSignature EcdsaSignature::Decode(const Bytes& encoded) {
  if (encoded.size() != 64) {
    throw std::invalid_argument("bad ECDSA signature length");
  }
  Bytes rb(encoded.begin(), encoded.begin() + 32);
  Bytes sb(encoded.begin() + 32, encoded.end());
  return EcdsaSignature{BigUInt::FromBytes(rb), BigUInt::FromBytes(sb)};
}

EcdsaKeyPair GenerateEcdsaKey(Rng* rng) {
  BigUInt d = BigUInt::RandomBelow(rng, P256Order() - BigUInt(1)) + BigUInt(1);
  return EcdsaKeyPair{EcdsaPrivateKey{d}, EcdsaPublicKey{MulGenerator(d)}};
}

BigUInt Rfc6979Nonce(const BigUInt& d, const Bytes& digest) {
  const BigUInt& n = P256Order();
  Bytes x = d.ToBytes(32);
  Bytes h1 = digest;

  Bytes v(32, 0x01);
  Bytes k(32, 0x00);

  auto concat = [](const Bytes& a, uint8_t sep, const Bytes& b, const Bytes& c) {
    Bytes out = a;
    out.push_back(sep);
    AppendBytes(&out, b);
    AppendBytes(&out, c);
    return out;
  };

  k = HmacSha256(k, concat(v, 0x00, x, h1));
  v = HmacSha256(k, v);
  k = HmacSha256(k, concat(v, 0x01, x, h1));
  v = HmacSha256(k, v);

  while (true) {
    v = HmacSha256(k, v);
    BigUInt candidate = BigUInt::FromBytes(v);
    if (!candidate.IsZero() && candidate < n) {
      return candidate;
    }
    Bytes next = v;
    next.push_back(0x00);
    k = HmacSha256(k, next);
    v = HmacSha256(k, v);
  }
}

EcdsaSignature EcdsaSign(const EcdsaPrivateKey& key, const Bytes& message) {
  const BigUInt& n = P256Order();
  Bytes digest = Sha256::Hash(message);
  const P256Fn z = DigestToScalar(digest);
  const P256Fn d = P256Fn::FromBigUInt(key.d);

  BigUInt k = Rfc6979Nonce(key.d, digest);
  while (true) {
    BigUInt r = MulGenerator(k).ToAffine().x.ToBigUInt() % n;
    if (!r.IsZero()) {
      P256Fn s = P256Fn::FromBigUInt(k).Inverse() * (z + P256Fn::FromBigUInt(r) * d);
      if (!s.IsZero()) {
        return EcdsaSignature{r, s.ToBigUInt()};
      }
    }
    // Vanishing r or s is astronomically unlikely; perturb deterministically.
    k = (k + BigUInt(1)) % n;
  }
}

bool EcdsaVerify(const EcdsaPublicKey& key, const Bytes& message, const EcdsaSignature& sig) {
  return EcdsaVerifyDigest(key, Sha256::Hash(message), sig);
}

bool EcdsaVerifyDigest(const EcdsaPublicKey& key, const Bytes& digest32,
                       const EcdsaSignature& sig) {
  const BigUInt& n = P256Order();
  if (sig.r.IsZero() || sig.s.IsZero() || sig.r >= n || sig.s >= n) {
    return false;
  }
  if (key.q.IsInfinity() || !key.q.IsOnCurve()) {
    return false;
  }
  const P256Fn s_inv = P256Fn::FromBigUInt(sig.s).Inverse();
  const P256Fn u[2] = {DigestToScalar(digest32) * s_inv, P256Fn::FromBigUInt(sig.r) * s_inv};
  MsmScalar limbs[2] = {};
  P256Fn::ToStdLimbsBatch(u, limbs, 2);
  const P256Point rp = MulAdd(limbs[0], limbs[1], key.q);
  return !rp.IsInfinity() && XMatches(rp, sig.r);
}

GlvSideInfo ComputeGlvSideInfo(const BigUInt& h1) {
  const BigUInt& n = P256Order();
  auto half = BigUInt::HalfGcd(n, h1);
  // Invariant: h1 * t1 == r1 (mod n) with signed t1; we expose v = |t1| > 0
  // and w = r1 >= 0 with h1 * v == (h1v_negated ? -w : w) (mod n).
  GlvSideInfo out;
  out.v = half.v;
  out.v_negated = false;
  out.h1v = half.w;
  out.h1v_negated = half.v_negated;
  if (out.v.IsZero()) {
    // Degenerate h1 (e.g., 0); fall back to the trivial decomposition.
    out.v = BigUInt(1);
    out.h1v = h1 % n;
    out.h1v_negated = false;
  }
  return out;
}

bool EcdsaVerifyGlv(const EcdsaPublicKey& key, const Bytes& message, const EcdsaSignature& sig) {
  const BigUInt& n = P256Order();
  if (sig.r.IsZero() || sig.s.IsZero() || sig.r >= n || sig.s >= n) {
    return false;
  }
  const P256Fn s_inv = P256Fn::FromBigUInt(sig.s).Inverse();
  BigUInt h0 = (DigestToScalar(Sha256::Hash(message)) * s_inv).ToBigUInt();
  BigUInt h1 = (P256Fn::FromBigUInt(sig.r) * s_inv).ToBigUInt();

  GlvSideInfo side = ComputeGlvSideInfo(h1);

  // t = h0 * v mod n, split at 2^128 against the precomputed H = 2^128 G.
  BigUInt t = h0.MulMod(side.v, n);
  BigUInt shift = BigUInt(1) << 128;
  BigUInt v0 = t % shift;
  BigUInt v1 = t / shift;

  static const P256Point h_point = P256Generator().ScalarMul(BigUInt(1) << 128);

  // Reconstruct R from r (try both square roots).
  P256Fq rx = P256Fq::FromBigUInt(sig.r);
  P256Fq rhs = rx.Square() * rx + P256Config::A() * rx + P256Config::B();
  P256Fq ry;
  if (!SqrtP256(rhs, &ry)) {
    return false;
  }

  P256Point q_term = key.q.ScalarMul(side.h1v);
  if (side.h1v_negated) {
    q_term = q_term.Negate();
  }
  P256Point lhs = P256Generator().ScalarMul(v0).Add(h_point.ScalarMul(v1)).Add(q_term);

  for (int sign = 0; sign < 2; ++sign) {
    P256Point r_point = P256Point::FromAffine(rx, sign == 0 ? ry : -ry);
    if (lhs.Equals(r_point.ScalarMul(side.v))) {
      return true;
    }
  }
  return false;
}

}  // namespace nope
