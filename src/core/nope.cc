#include "src/core/nope.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/r1cs/opt/optimizer.h"

namespace nope {

namespace {

// Figure 5 latency model (seconds). Proof generation is measured; the ACME
// legs use the paper's observed/defaulted values (Certbot's 30 s propagation
// delay; §8.2).
constexpr double kAcmeInitiationSeconds = 1.4;
constexpr double kDnsPropagationSeconds = 30.0;
constexpr double kAcmeVerificationSeconds = 4.6;

StatementParams ShapeFor(const CryptoSuite& suite, const DnsName& domain,
                         StatementOptions options) {
  StatementParams params;
  params.suite = &suite;
  params.num_levels = domain.NumLabels() - 1;
  size_t wire = domain.ToWire().size();
  params.max_name_len = std::max<size_t>(32, ((wire + 15) / 16) * 16);
  params.options = options;
  return params;
}

}  // namespace

StatementWitness BuildWitness(DnssecHierarchy* dns, const DnsName& domain,
                              const Bytes& tls_public_key, const std::string& ca_name,
                              uint64_t expected_issuance_time) {
  Zone* zone = dns->Find(domain);
  if (zone == nullptr) {
    throw std::invalid_argument("domain is not a zone: " + domain.ToString());
  }
  StatementWitness witness;
  witness.chain = dns->BuildChain(domain);
  witness.leaf_ksk_private_key = zone->ksk().ec_priv;
  witness.tls_key_digest = TlsKeyDigest(tls_public_key);
  witness.ca_name_digest = CaNameDigest(ca_name);
  witness.truncated_ts = TruncateTimestamp(expected_issuance_time);
  return witness;
}

// NOPE-managed (App. A): the domain owner writes the binding digest into a
// TXT record on D and has the (managed) provider ZSK-sign it; the witness
// additionally carries D's own DNSKEY RRset.
static void PopulateManagedWitness(DnssecHierarchy* dns, const DnsName& domain,
                                   StatementWitness* witness) {
  Bytes binding = ManagedBinding(dns->suite(), witness->tls_key_digest,
                                 witness->ca_name_digest, witness->truncated_ts);
  std::string value(binding.begin(), binding.end());
  auto existing = dns->QueryTxt(domain);
  if (std::find(existing.begin(), existing.end(), value) == existing.end()) {
    dns->SetTxt(domain, value);
  }
  witness->managed_txt = dns->SignedTxt(domain);
  Zone* zone = dns->Find(domain);
  witness->managed_dnskey = zone->Sign(zone->DnskeyRrset(), dns->rng());
}

NopeDeployment NopeTrustedSetup(DnssecHierarchy* dns, const DnsName& domain,
                                StatementOptions options, Rng* rng) {
  NopeDeployment deployment;
  deployment.params = ShapeFor(dns->suite(), domain, options);
  deployment.root_zsk = dns->root().ZskRdata();

  // A sample witness shapes the matrices; its values are irrelevant to the
  // keys (the toxic waste is sampled and dropped inside Setup).
  StatementWitness sample =
      BuildWitness(dns, domain, Bytes(65, 0x04), "setup-sample", 1700000000);
  if (options.managed_mode) {
    PopulateManagedWitness(dns, domain, &sample);
  }
  {  // the statement and the optimizer's state are freed before Setup runs
    ConstraintSystem cs;
    BuildNopeStatement(&cs, deployment.params, sample);
    deployment.statement_wires = cs.NumVariables();
    if (options.optimize_circuit) {
      OptimizeResult opt = Optimize(cs);
      deployment.circuit = std::move(opt.cs);
      deployment.circuit_wires = std::move(opt.inverse_map);
    } else {
      deployment.circuit_wires.resize(cs.NumVariables());
      std::iota(deployment.circuit_wires.begin(), deployment.circuit_wires.end(), kOneVar);
      deployment.circuit = std::move(cs);
    }
  }
  deployment.pk = groth16::Setup(deployment.circuit, rng);
  return deployment;
}

// Synthesizes the statement for `witness` in kCount mode (every value, no
// matrices) and returns its assignment in the indexing of deployment.circuit.
// Statement matrices depend on the shape only, never on witness values, so
// every witness of the setup shape has setup's wire count and lines up with
// the stored map.
static std::vector<Fr> CircuitAssignment(const NopeDeployment& deployment,
                                         const StatementWitness& witness) {
  ConstraintSystem statement(ConstraintSystem::Mode::kCount);
  BuildNopeStatement(&statement, deployment.params, witness);
  const size_t wires = statement.NumVariables();
  if (wires != deployment.statement_wires) {
    throw std::invalid_argument("GenerateNopeProof: the statement has " + std::to_string(wires) +
                                " wires but the deployment's circuit was set up for " +
                                std::to_string(deployment.statement_wires));
  }
  std::vector<Fr> assignment;
  assignment.reserve(deployment.circuit_wires.size());
  for (Var v : deployment.circuit_wires) {
    if (v >= wires) {
      throw std::invalid_argument("GenerateNopeProof: circuit wire map points past the statement");
    }
    assignment.push_back(statement.ValueOf(v));
  }
  return assignment;
}

NopeProofBundle GenerateNopeProof(const NopeDeployment& deployment, DnssecHierarchy* dns,
                                  const DnsName& domain, const Bytes& tls_public_key,
                                  const std::string& ca_name, uint64_t expected_issuance_time,
                                  Rng* rng) {
  auto start = std::chrono::steady_clock::now();
  StatementWitness witness =
      BuildWitness(dns, domain, tls_public_key, ca_name, expected_issuance_time);
  if (deployment.params.options.managed_mode) {
    PopulateManagedWitness(dns, domain, &witness);
  }
  groth16::ProveResult proved = groth16::Prove(deployment.pk, deployment.circuit,
                                               CircuitAssignment(deployment, witness), rng,
                                               CancellationToken(), nullptr);
  if (!proved.ok()) {
    throw std::invalid_argument("GenerateNopeProof: " + proved.status.ToString());
  }
  NopeProofBundle bundle;
  bundle.proof = proved.proof;
  bundle.sans = EncodeProofSans(bundle.proof.ToBytes(), domain);
  bundle.proof_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return bundle;
}

std::optional<IssuanceResult> IssueCertificate(const NopeDeployment* deployment,
                                               DnssecHierarchy* dns, CertificateAuthority* ca,
                                               const DnsName& domain,
                                               const Bytes& tls_public_key, uint64_t now,
                                               Rng* rng, bool with_nope,
                                               size_t injected_dns_retries) {
  IssuanceResult result;
  CertificateSigningRequest csr;
  csr.subject = domain;
  csr.public_key = tls_public_key;

  if (with_nope) {
    if (deployment == nullptr) {
      throw std::invalid_argument("NOPE issuance needs a deployment");
    }
    NopeProofBundle bundle =
        GenerateNopeProof(*deployment, dns, domain, tls_public_key, ca->organization(), now, rng);
    csr.sans = bundle.sans;
    result.timeline.proof_generation_s = bundle.proof_seconds;
  }

  // ACME DNS-01 (Fig. 2 steps 3-7).
  AcmeOrder order = ca->NewOrder(csr);
  result.timeline.acme_initiation_s = kAcmeInitiationSeconds;
  dns->SetTxt(domain.Child("_acme-challenge"), order.challenge_token);
  result.timeline.dns_propagation_s = kDnsPropagationSeconds;
  // Slow-propagation model: the first injected_dns_retries polls race ahead
  // of the TXT record and see nothing, so the CA's validation fails and the
  // requester waits out another propagation round before re-finalizing.
  size_t empty_polls = injected_dns_retries;
  auto resolver = [dns, &empty_polls](const DnsName& name) -> std::vector<std::string> {
    if (empty_polls > 0) {
      --empty_polls;
      return {};
    }
    return dns->QueryTxt(name);
  };
  std::optional<Certificate> cert;
  for (size_t round = 0; round <= injected_dns_retries; ++round) {
    cert = ca->FinalizeOrder(order, csr, resolver, now);
    if (cert.has_value()) {
      break;
    }
    ++result.timeline.dns_retries;
    result.timeline.dns_propagation_s += kDnsPropagationSeconds;
  }
  result.timeline.acme_verification_s = kAcmeVerificationSeconds;
  if (!cert.has_value()) {
    return std::nullopt;
  }
  result.chain = CertificateChain{*cert, ca->intermediate()};
  return result;
}

const char* NopeVerifyStatusName(NopeVerifyStatus status) {
  switch (status) {
    case NopeVerifyStatus::kOk:
      return "ok";
    case NopeVerifyStatus::kLegacyFailure:
      return "legacy-failure";
    case NopeVerifyStatus::kNoNopeProof:
      return "no-nope-proof";
    case NopeVerifyStatus::kBadProofEncoding:
      return "bad-proof-encoding";
    case NopeVerifyStatus::kProofRejected:
      return "proof-rejected";
    case NopeVerifyStatus::kTimestampMismatch:
      return "timestamp-mismatch";
  }
  return "unknown";
}

NopeClientResult NopeClientVerify(const NopeDeployment& deployment,
                                  const CertificateChain& chain, const TrustStore& trust,
                                  const DnsName& domain, uint64_t now,
                                  const OcspResponse* stapled_ocsp) {
  NopeClientResult result;
  result.legacy = LegacyVerifyChain(chain, trust, domain, now, stapled_ocsp);
  if (result.legacy != LegacyStatus::kOk) {
    result.status = NopeVerifyStatus::kLegacyFailure;
    result.accepted = false;
    return result;
  }

  Result<Bytes> proof_bytes = DecodeProofFromSans(chain.leaf.body.sans, domain);
  if (!proof_bytes.ok()) {
    // §7 graceful degradation: a certificate with no NOPE SANs (or with SANs
    // the client cannot decode) falls back to legacy-only validation — the
    // legacy checks above already passed — with the downgrade recorded.
    result.status = proof_bytes.error().code == ErrorCode::kMissing
                        ? NopeVerifyStatus::kNoNopeProof
                        : NopeVerifyStatus::kBadProofEncoding;
    // The client-side taxonomy is proof-shaped, not chain-shaped: anything
    // decodable-but-wrong is a bad encoding regardless of the error code.
    result.downgrade_kind = proof_bytes.error().code == ErrorCode::kMissing
                                ? DowngradeReason::kNoProof
                                : DowngradeReason::kBadProofEncoding;
    result.accepted = true;
    result.downgrade_reason = proof_bytes.error().ToString();
    return result;
  }
  Result<groth16::Proof> proof = groth16::Proof::TryFromBytes(proof_bytes.value());
  if (!proof.ok()) {
    result.status = NopeVerifyStatus::kBadProofEncoding;
    result.downgrade_kind = DowngradeReason::kBadProofEncoding;
    result.accepted = true;
    result.downgrade_reason = proof.error().ToString();
    return result;
  }

  // SCT timestamps must corroborate the certificate's issuance time: a
  // compromised CA that backdates not_before to reuse an old proof would
  // diverge from the CT-controlled SCTs (§3.2). This is a hard failure, not
  // a downgrade.
  for (const Sct& sct : chain.leaf.body.scts) {
    uint64_t lo = std::min(sct.timestamp, chain.leaf.body.not_before);
    uint64_t hi = std::max(sct.timestamp, chain.leaf.body.not_before);
    if (hi - lo > 600) {
      result.status = NopeVerifyStatus::kTimestampMismatch;
      result.accepted = false;
      return result;
    }
  }

  uint64_t ts = TruncateTimestamp(chain.leaf.body.not_before);
  std::vector<Fr> pub = NopePublicInputs(
      deployment.params, domain, TlsKeyDigest(chain.leaf.body.subject_public_key),
      CaNameDigest(chain.leaf.body.issuer_organization), ts);
  if (groth16::Verify(deployment.pk.pvk, pub, proof.value())) {
    result.status = NopeVerifyStatus::kOk;
    result.accepted = true;
    result.nope_validated = true;
  } else {
    // A well-formed proof that fails verification means active tampering; do
    // not downgrade.
    result.status = NopeVerifyStatus::kProofRejected;
    result.accepted = false;
  }
  return result;
}

}  // namespace nope
