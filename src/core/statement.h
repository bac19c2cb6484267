// S_NOPE — the paper's proof statement (§3.2), assembled from the §4 parsing
// and §5 cryptography gadgets.
//
// The statement establishes, over a witnessed set of RFC 4034 canonical
// signing buffers, that a valid DNSSEC chain runs from the (baked-in) root
// ZSK down to a KSK for the public domain name D, and that the prover knows
// that KSK's private key. The TLS key digest, CA name digest, and truncated
// timestamp are public inputs with no constraints: the proof itself is the
// signature of knowledge binding them (§3.2). Toggling `StatementOptions`
// reproduces the Figure 6 ablation rows.
//
// Public input layout (after the constant 1):
//   [0 .. name_chunks)   packed D wire-form bytes (16-byte chunks, padded)
//   [+0]                 packed TLS-key digest, high half
//   [+1]                 packed TLS-key digest, low half
//   [+2], [+3]           packed CA-name digest halves
//   [+4]                 truncated timestamp TS
// The root ZSK is a circuit constant (the trust anchor is fixed at setup,
// like the hard-coded root key in DNSSEC itself); see DESIGN.md.
#ifndef SRC_CORE_STATEMENT_H_
#define SRC_CORE_STATEMENT_H_

#include "src/dns/dnssec.h"
#include "src/r1cs/constraint_system.h"

namespace nope {

struct StatementOptions {
  // §3: bind T/N/TS through the signature of knowledge instead of an
  // explicit in-circuit KSK signature over them (the straw man).
  bool use_signature_of_knowledge = true;
  // §4: NOPE mask/slice vs. the naive per-element forms.
  bool use_nope_parsing = true;
  // §5.1-§5.2: carry-polynomial congruences + hint-based EC ops vs. naive
  // schoolbook products with a long-division reduction per multiplication.
  bool use_nope_crypto = true;
  // §5.3: half-width GLV MSM for ECDSA verification.
  bool use_glv_msm = true;
  // Misc: packed slicing for key extraction.
  bool use_misc_optimizations = true;
  // Appendix A: NOPE-managed. Instead of proving knowledge of the KSK's
  // private key, prove that a TXT record on D — signed by D's own ZSK —
  // commits to hash(T || N || TS). For domain owners whose DNSSEC keys live
  // at a managed DNS provider. Roughly doubles the statement (one extra
  // DNSKEY parse + TXT search + signature) and needs no zero-knowledge.
  bool managed_mode = false;
  // Run the R1CS optimizer pipeline (src/r1cs/opt) on the synthesized system
  // once, at trusted setup; the deployment keeps the optimized matrices and
  // every proof maps its statement's assignment onto them. Off reproduces
  // the unoptimized circuit sizes.
  bool optimize_circuit = true;

  static StatementOptions Baseline() {
    return {false, false, false, false, false};
  }
  static StatementOptions Full() { return {true, true, true, true, true}; }
};

struct StatementParams {
  const CryptoSuite* suite = &CryptoSuite::Toy();
  size_t num_levels = 1;      // intermediate zones between D and the root
  size_t max_name_len = 32;   // bound on D's wire-form length
  StatementOptions options;
};

// Everything the prover supplies.
struct StatementWitness {
  ChainOfTrust chain;
  BigUInt leaf_ksk_private_key;  // unused in managed mode
  Bytes tls_key_digest;   // 32 bytes
  Bytes ca_name_digest;   // 32 bytes
  uint64_t truncated_ts = 0;
  // Managed mode (App. A): D's own DNSKEY RRset (KSK-signed) and the TXT
  // RRset (ZSK-signed) carrying the binding digest.
  SignedRrset managed_dnskey;
  SignedRrset managed_txt;
};

// The 32-byte value a NOPE-managed domain posts in a TXT record:
// Digest32(T_digest || N_digest || TS) under the suite's hash.
Bytes ManagedBinding(const CryptoSuite& suite, const Bytes& tls_key_digest,
                     const Bytes& ca_name_digest, uint64_t truncated_ts);

// Computes the public input vector (excluding the constant 1) for a given
// instance; shared by prover and verifier.
std::vector<Fr> NopePublicInputs(const StatementParams& params, const DnsName& domain,
                                 const Bytes& tls_key_digest, const Bytes& ca_name_digest,
                                 uint64_t truncated_ts);

// Builds S_NOPE into cs. The witness must be consistent with params (same
// suite, num_levels matching chain.levels.size()). The root ZSK constant is
// taken from witness.chain.root_zsk. Returns the number of public inputs.
size_t BuildNopeStatement(ConstraintSystem* cs, const StatementParams& params,
                          const StatementWitness& witness);

// Convenience: digest helpers shared with the client side.
Bytes TlsKeyDigest(const Bytes& tls_public_key);
Bytes CaNameDigest(const std::string& organization);
// Timestamps are truncated to 10-minute buckets (§3.2).
uint64_t TruncateTimestamp(uint64_t unix_seconds);

}  // namespace nope

#endif  // SRC_CORE_STATEMENT_H_
