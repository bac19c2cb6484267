// ECDSA over P-256 with SHA-256 (DNSSEC algorithm 13, RFC 6605), with
// deterministic nonces (RFC 6979).
//
// Also implements the Antipa et al. accelerated-verification transform the
// paper exploits in §5.3 / Appendix C: the 256-bit double-scalar
// multiplication R = h0*G + h1*Q is rewritten, using a half-size v found by
// partial extended Euclid, as a 128-bit MSM. NOPE computes v outside the
// constraints and validates it inside; `ComputeGlvSideInfo` is that outside
// computation, and `EcdsaVerifyGlv` is a native-code reference of the
// transformed check used to validate the gadget.
#ifndef SRC_SIG_ECDSA_H_
#define SRC_SIG_ECDSA_H_

#include "src/base/biguint.h"
#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/ec/p256.h"

namespace nope {

struct EcdsaPrivateKey {
  BigUInt d;
};

struct EcdsaPublicKey {
  P256Point q;

  // SEC1 uncompressed encoding (0x04 || X || Y).
  Bytes Encode() const;
  // Strict decoder for untrusted bytes: canonical coordinates (< p) and
  // on-curve (P-256 has cofactor 1, so on-curve implies in-subgroup).
  static Result<EcdsaPublicKey> TryDecode(const Bytes& encoded);
  bool operator==(const EcdsaPublicKey& o) const { return q.Equals(o.q); }
};

struct EcdsaSignature {
  BigUInt r;
  BigUInt s;

  // Fixed-width 64-byte encoding (DNSSEC wire format, RFC 6605 §4).
  Bytes Encode() const;
  static EcdsaSignature Decode(const Bytes& encoded);
};

struct EcdsaKeyPair {
  EcdsaPrivateKey priv;
  EcdsaPublicKey pub;
};

EcdsaKeyPair GenerateEcdsaKey(Rng* rng);

// Deterministic nonce per RFC 6979 (HMAC-SHA256).
BigUInt Rfc6979Nonce(const BigUInt& d, const Bytes& digest);

// Sign/verify a message (SHA-256 applied internally).
EcdsaSignature EcdsaSign(const EcdsaPrivateKey& key, const Bytes& message);
bool EcdsaVerify(const EcdsaPublicKey& key, const Bytes& message, const EcdsaSignature& sig);
// Verify over a caller-provided 32-byte digest (DNSSEC path).
bool EcdsaVerifyDigest(const EcdsaPublicKey& key, const Bytes& digest32,
                       const EcdsaSignature& sig);

// Side information for the 128-bit MSM transform: a non-zero v with both v
// and (h1 * v mod n) representable in ~128 bits (possibly after negation).
struct GlvSideInfo {
  BigUInt v;
  bool v_negated;   // the small pair corresponds to -v
  BigUInt h1v;      // |h1 * v mod n| in the half-size range
  bool h1v_negated; // whether h1*v mod n was n - h1v
};
GlvSideInfo ComputeGlvSideInfo(const BigUInt& h1);

// Verification via the transformed 128-bit MSM check (Appendix C). Must
// accept exactly when EcdsaVerify accepts.
bool EcdsaVerifyGlv(const EcdsaPublicKey& key, const Bytes& message, const EcdsaSignature& sig);

}  // namespace nope

#endif  // SRC_SIG_ECDSA_H_
