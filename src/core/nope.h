// End-to-end NOPE: trusted setup, the server-side proving tool (Fig. 2 steps
// 1-7), and the NOPE-aware client (steps 8-11).
#ifndef SRC_CORE_NOPE_H_
#define SRC_CORE_NOPE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/downgrade.h"
#include "src/core/statement.h"
#include "src/groth16/groth16.h"
#include "src/pki/san_encoding.h"
#include "src/tls/handshake.h"

namespace nope {

// One proof-system deployment: a statement shape, the circuit its Groth16
// keys were set up for, and the keys. The root ZSK (trust anchor) is baked
// into the circuit at setup, mirroring the hard-coded DNSSEC root key.
//
// `circuit` holds the constraint matrices pk was set up for: the output of
// the R1CS optimizer when params.options.optimize_circuit is set, the
// statement's own matrices otherwise. Its wire i takes the value of statement
// wire circuit_wires[i] (the identity map for an unoptimized circuit), and
// the statement BuildNopeStatement synthesizes for params has
// statement_wires wires. Setup fills all three, so a key rotation maps its
// statement's assignment onto the circuit and proves without re-running the
// optimizer. A deployment assembled by hand, without NopeTrustedSetup,
// leaves them empty and cannot prove.
struct NopeDeployment {
  StatementParams params;
  DnskeyRdata root_zsk;
  groth16::ProvingKey pk;
  ConstraintSystem circuit;
  std::vector<Var> circuit_wires;
  size_t statement_wires = 0;

  const groth16::VerifyingKey& vk() const { return pk.vk(); }
};

// Runs the one-time trusted setup for the statement shape that fits
// `domain` inside `dns`: synthesizes the statement for a sample witness,
// optimizes it when options.optimize_circuit is set, and keeps the circuit
// in the deployment. The sample witness only shapes the matrices; the
// resulting keys verify proofs for any witness of the same shape.
NopeDeployment NopeTrustedSetup(DnssecHierarchy* dns, const DnsName& domain,
                                StatementOptions options, Rng* rng);

// Builds the statement witness for `domain` against the current hierarchy.
StatementWitness BuildWitness(DnssecHierarchy* dns, const DnsName& domain,
                              const Bytes& tls_public_key, const std::string& ca_name,
                              uint64_t expected_issuance_time);

// Fig. 2 steps 1-2: produce the proof and its SAN encoding. Computes the
// statement's values for the current chain (kCount synthesis: no matrices),
// maps them onto deployment.circuit's wires and proves that assignment
// against the stored circuit in place. Throws std::invalid_argument when the
// statement does not fit the deployment's circuit (a different wire count,
// or a deployment not made by NopeTrustedSetup) or when groth16::Prove
// rejects the assignment or the key; the message carries Prove's status.
struct NopeProofBundle {
  groth16::Proof proof;
  std::vector<std::string> sans;
  double proof_seconds = 0;  // measured wall-clock proving time
};
NopeProofBundle GenerateNopeProof(const NopeDeployment& deployment, DnssecHierarchy* dns,
                                  const DnsName& domain, const Bytes& tls_public_key,
                                  const std::string& ca_name, uint64_t expected_issuance_time,
                                  Rng* rng);

// Fig. 2 steps 3-7 (plus 1-2 when with_nope): the whole issuance pipeline
// against the simulated CA, with the Figure 5 latency model.
struct IssuanceTimeline {
  double proof_generation_s = 0;   // measured
  double acme_initiation_s = 0;    // modeled
  double dns_propagation_s = 0;    // modeled (Certbot default: 30 s per round)
  double acme_verification_s = 0;  // modeled
  size_t dns_retries = 0;          // extra propagation rounds before the CA saw the TXT
  double total() const {
    return proof_generation_s + acme_initiation_s + dns_propagation_s + acme_verification_s;
  }
};
struct IssuanceResult {
  CertificateChain chain;
  IssuanceTimeline timeline;
};
// injected_dns_retries simulates slow challenge propagation: the CA's first
// that-many TXT polls see an empty answer, so validation retries after
// another propagation wait — each failed round adds kDnsPropagationSeconds
// to the timeline (how Fig. 5 shifts when the DNS edge is slow).
std::optional<IssuanceResult> IssueCertificate(const NopeDeployment* deployment,
                                               DnssecHierarchy* dns, CertificateAuthority* ca,
                                               const DnsName& domain,
                                               const Bytes& tls_public_key, uint64_t now,
                                               Rng* rng, bool with_nope,
                                               size_t injected_dns_retries = 0);

// --- Client side --------------------------------------------------------------

enum class NopeVerifyStatus {
  kOk,
  kLegacyFailure,
  kNoNopeProof,
  kBadProofEncoding,
  kProofRejected,
  kTimestampMismatch,  // certificate TS vs SCT cross-check (§3.2)
};
constexpr int kNumNopeVerifyStatuses = static_cast<int>(NopeVerifyStatus::kTimestampMismatch) + 1;
const char* NopeVerifyStatusName(NopeVerifyStatus status);

struct NopeClientResult {
  NopeVerifyStatus status = NopeVerifyStatus::kLegacyFailure;
  LegacyStatus legacy = LegacyStatus::kOk;
  // §7 graceful degradation: whether the connection may proceed at all. A
  // missing or malformed proof downgrades to legacy-only validation (the
  // client behaves like a NOPE-unaware one); a present, well-formed proof
  // that fails verification — or an SCT/timestamp cross-check mismatch — is
  // a hard failure, since it indicates active tampering rather than a
  // deployment gap.
  bool accepted = false;
  // True only when the NOPE proof itself verified (status == kOk).
  bool nope_validated = false;
  // Non-empty when NOPE validation was skipped and the client fell back to
  // legacy-only; records why the downgrade happened. downgrade_kind is the
  // typed bucket (kNone unless the client degraded), downgrade_reason the
  // human-readable detail.
  DowngradeReason downgrade_kind = DowngradeReason::kNone;
  std::string downgrade_reason;
};

// Full NOPE-aware client verification: legacy checks, proof extraction from
// the SANs, N/TS binding, SCT-timestamp cross-check, and Groth16
// verification. Exception-free on every byte of the presented chain. The
// Groth16 check runs against the deployment's prepared verifying key
// (deployment.pk.pvk, built by Setup).
NopeClientResult NopeClientVerify(const NopeDeployment& deployment,
                                  const CertificateChain& chain, const TrustStore& trust,
                                  const DnsName& domain, uint64_t now,
                                  const OcspResponse* stapled_ocsp);

}  // namespace nope

#endif  // SRC_CORE_NOPE_H_
