// Deterministic fault-injection harness over the untrusted-input surface.
//
// Each campaign takes a valid artifact (SAN list, Groth16 proof, certificate,
// DCE bundle, DNSSEC records), applies >= 1000 seeded structural mutations
// (bit flips, truncation/extension, length-field corruption, field swaps with
// a second valid donor artifact), and asserts two properties on the verifier:
//
//  (a) no input ever crashes or throws — malformed bytes come back as typed
//      errors (Result/Status), never as exceptions or UB;
//  (b) the verifier never accepts a mutant unless it round-trips
//      byte-identically to a valid artifact. The Try* parsers guarantee
//      canonical encodings (parse-ok implies re-serialize == input), which is
//      what makes this oracle exact.
//
// All randomness is seeded, so a failure reproduces from the seed and
// iteration number alone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/mutator.h"
#include "src/core/nope.h"

namespace nope {
namespace {

constexpr uint64_t kNow = 1750000000;

Error Sentinel() { return Error(ErrorCode::kMissing, "uninitialized"); }

// One shared environment: the Groth16 trusted setup dominates the fixture
// cost, so it is paid once for the whole suite (same pattern as
// end_to_end_test).
struct Environment {
  Rng rng{9001};
  DnssecHierarchy dns{CryptoSuite::Toy(), 9002};
  CtLog log1{1, &rng};
  CtLog log2{2, &rng};
  CertificateAuthority ca{"lets-encrypt-sim", {&log1, &log2}, &rng};
  DnsName domain = DnsName::FromString("nope-tools.org");
  DnsName donor_domain = DnsName::FromString("donor-zone.org");
  EcdsaKeyPair tls_key;
  EcdsaKeyPair donor_tls_key;
  NopeDeployment deployment;

  CertificateChain nope_chain;   // NOPE-issued leaf for `domain`
  Bytes proof_bytes;             // the canonical 128-byte proof from its SANs
  Bytes donor_proof_bytes;       // second valid encoding (randomized proof)
  std::vector<Fr> public_inputs;
  Certificate legacy_cert;       // donor: valid certificate without NOPE SANs
  DceBundle bundle;              // valid DCE bundle for `domain`
  DceBundle donor_bundle;        // valid DCE bundle for `donor_domain`

  Environment() {
    dns.AddZone(DnsName::FromString("org"));
    dns.AddZone(domain);
    dns.AddZone(donor_domain);
    tls_key = GenerateEcdsaKey(&rng);
    donor_tls_key = GenerateEcdsaKey(&rng);
    deployment = NopeTrustedSetup(&dns, domain, StatementOptions::Full(), &rng);

    auto issued = IssueCertificate(&deployment, &dns, &ca, domain, tls_key.pub.Encode(), kNow,
                                   &rng, /*with_nope=*/true);
    if (!issued.has_value()) {
      throw std::logic_error("fixture issuance failed");
    }
    nope_chain = issued->chain;
    Result<Bytes> decoded = DecodeProofFromSans(nope_chain.leaf.body.sans, domain);
    if (!decoded.ok()) {
      throw std::logic_error("fixture proof decode failed");
    }
    proof_bytes = decoded.value();
    Result<groth16::Proof> proof = groth16::Proof::TryFromBytes(proof_bytes);
    if (!proof.ok()) {
      throw std::logic_error("fixture proof parse failed");
    }
    donor_proof_bytes = groth16::RandomizeProof(deployment.vk(), proof.value(), &rng).ToBytes();
    public_inputs = NopePublicInputs(
        deployment.params, domain, TlsKeyDigest(nope_chain.leaf.body.subject_public_key),
        CaNameDigest(nope_chain.leaf.body.issuer_organization),
        TruncateTimestamp(nope_chain.leaf.body.not_before));

    CertificateSigningRequest legacy_csr;
    legacy_csr.subject = donor_domain;
    legacy_csr.public_key = donor_tls_key.pub.Encode();
    legacy_cert = ca.IssueWithoutValidation(legacy_csr, kNow);

    bundle = BuildDceBundle(&dns, domain, tls_key.pub.Encode());
    donor_bundle = BuildDceBundle(&dns, donor_domain, donor_tls_key.pub.Encode());
  }

  TrustStore Trust() { return TrustStore{ca.root_public_key(), 2}; }
};

Environment* env() {
  static Environment* instance = new Environment();
  return instance;
}

// The §7 degradation contract must hold for every possible outcome, not just
// the ones a specific mutant happens to hit.
void CheckDegradationInvariants(const NopeClientResult& verdict, int iteration) {
  switch (verdict.status) {
    case NopeVerifyStatus::kOk:
      EXPECT_TRUE(verdict.accepted) << "iteration " << iteration;
      EXPECT_TRUE(verdict.nope_validated) << "iteration " << iteration;
      EXPECT_TRUE(verdict.downgrade_reason.empty()) << "iteration " << iteration;
      break;
    case NopeVerifyStatus::kNoNopeProof:
    case NopeVerifyStatus::kBadProofEncoding:
      // Graceful degradation: legacy-only acceptance with a recorded reason.
      EXPECT_TRUE(verdict.accepted) << "iteration " << iteration;
      EXPECT_FALSE(verdict.nope_validated) << "iteration " << iteration;
      EXPECT_FALSE(verdict.downgrade_reason.empty()) << "iteration " << iteration;
      break;
    case NopeVerifyStatus::kLegacyFailure:
    case NopeVerifyStatus::kProofRejected:
    case NopeVerifyStatus::kTimestampMismatch:
      EXPECT_FALSE(verdict.accepted) << "iteration " << iteration;
      EXPECT_FALSE(verdict.nope_validated) << "iteration " << iteration;
      break;
  }
}

// --- Campaign 1: SAN strings --------------------------------------------------

TEST(FaultInjection, SanMutationCampaign) {
  Environment* e = env();
  Mutator mut(0x5A11);
  const std::vector<std::string> original = e->nope_chain.leaf.body.sans;
  int decode_ok = 0;
  for (int i = 0; i < 1200; ++i) {
    std::vector<std::string> sans = original;
    uint64_t op = mut.rng()->NextBelow(10);
    if (op == 0 && sans.size() > 1) {
      sans.erase(sans.begin() + static_cast<long>(mut.rng()->NextBelow(sans.size())));
    } else if (op == 1) {
      sans.push_back(sans[mut.rng()->NextBelow(sans.size())]);
    } else if (op == 2 && sans.size() > 1) {
      size_t a = mut.rng()->NextBelow(sans.size());
      size_t b = mut.rng()->NextBelow(sans.size());
      std::swap(sans[a], sans[b]);
    } else {
      size_t idx = mut.rng()->NextBelow(sans.size());
      sans[idx] = mut.MutateString(sans[idx]);
    }

    // The decode boundary itself must be exception-free...
    Result<Bytes> decoded = Sentinel();
    ASSERT_NO_THROW(decoded = DecodeProofFromSans(sans, e->domain)) << "iteration " << i;
    if (decoded.ok()) {
      ++decode_ok;
    }

    // ...and so must the full client path, with the mutated SANs riding in a
    // freshly signed certificate (otherwise the legacy signature check would
    // shadow the SAN decoder entirely).
    CertificateSigningRequest csr;
    csr.subject = e->domain;
    csr.public_key = e->tls_key.pub.Encode();
    csr.sans = sans;
    CertificateChain chain{e->ca.IssueWithoutValidation(csr, kNow), e->ca.intermediate()};
    NopeClientResult verdict;
    ASSERT_NO_THROW(verdict = NopeClientVerify(e->deployment, chain, e->Trust(), e->domain,
                                               kNow + 60, nullptr))
        << "iteration " << i;
    CheckDegradationInvariants(verdict, i);
    if (verdict.status == NopeVerifyStatus::kOk) {
      // Acceptance requires the embedded proof to round-trip byte-identically.
      ASSERT_TRUE(decoded.ok()) << "iteration " << i;
      EXPECT_EQ(decoded.value(), e->proof_bytes) << "iteration " << i;
    }
  }
  // The campaign must exercise both sides of the boundary: most mutants fail
  // to decode, but benign list mutations (duplicate/swapped entries) pass.
  EXPECT_GT(decode_ok, 0);
  EXPECT_LT(decode_ok, 1200);
}

// --- Campaign 2: Groth16 proof bytes ------------------------------------------

TEST(FaultInjection, ProofBytesMutationCampaign) {
  Environment* e = env();
  Mutator mut(0x9F00F);
  int parse_ok = 0;
  for (int i = 0; i < 1500; ++i) {
    Bytes m = (i % 4 == 0) ? mut.Mutate(e->proof_bytes, e->donor_proof_bytes)
                           : mut.Mutate(e->proof_bytes);
    Result<groth16::Proof> parsed = Sentinel();
    ASSERT_NO_THROW(parsed = groth16::Proof::TryFromBytes(m)) << "iteration " << i;
    if (!parsed.ok()) {
      continue;
    }
    ++parse_ok;
    // Canonical encodings: decode-ok implies byte-identical re-encode.
    EXPECT_EQ(parsed.value().ToBytes(), m) << "iteration " << i;
    if (m == e->proof_bytes || m == e->donor_proof_bytes) {
      continue;  // a verbatim valid proof may of course verify
    }
    EXPECT_FALSE(groth16::Verify(e->deployment.vk(), e->public_inputs, parsed.value()))
        << "iteration " << i;
  }
  // Bit flips inside a G1 x-coordinate frequently land on another curve
  // point, so a healthy fraction of mutants must reach the verify stage.
  EXPECT_GT(parse_ok, 0);
  EXPECT_LT(parse_ok, 1500);
}

// --- Campaign 3: certificates -------------------------------------------------

TEST(FaultInjection, CertificateMutationCampaign) {
  Environment* e = env();
  Mutator mut(0xCE47);
  const Bytes wire = e->nope_chain.leaf.Serialize();
  const Bytes donor_wire = e->legacy_cert.Serialize();
  int parse_ok = 0;
  for (int i = 0; i < 1200; ++i) {
    Bytes m = (i % 3 == 0) ? mut.Mutate(wire, donor_wire) : mut.Mutate(wire);
    Result<Certificate> parsed = Sentinel();
    ASSERT_NO_THROW(parsed = Certificate::TryDeserialize(m)) << "iteration " << i;
    if (!parsed.ok()) {
      continue;
    }
    ++parse_ok;
    EXPECT_EQ(parsed.value().Serialize(), m) << "iteration " << i;
    CertificateChain chain{parsed.value(), e->ca.intermediate()};
    NopeClientResult verdict;
    ASSERT_NO_THROW(verdict = NopeClientVerify(e->deployment, chain, e->Trust(), e->domain,
                                               kNow + 60, nullptr))
        << "iteration " << i;
    CheckDegradationInvariants(verdict, i);
    if (m != wire) {
      // Every certificate byte is covered by the issuer signature (or IS the
      // signature), so any non-identical mutant must fail the legacy checks.
      EXPECT_NE(verdict.status, NopeVerifyStatus::kOk) << "iteration " << i;
      EXPECT_FALSE(verdict.accepted) << "iteration " << i;
    }
  }
  EXPECT_GT(parse_ok, 0);
  EXPECT_LT(parse_ok, 1200);
}

// --- Campaign 4: DCE bundles --------------------------------------------------

TEST(FaultInjection, DceBundleMutationCampaign) {
  Environment* e = env();
  Mutator mut(0xDCE0);
  const Bytes wire = e->bundle.Serialize();
  const Bytes donor_wire = e->donor_bundle.Serialize();
  const DnskeyRdata anchor = e->dns.root().ZskRdata();
  int parse_ok = 0;
  for (int i = 0; i < 1200; ++i) {
    Bytes m = (i % 3 == 0) ? mut.Mutate(wire, donor_wire) : mut.Mutate(wire);
    Result<DceBundle> parsed = Sentinel();
    ASSERT_NO_THROW(parsed = DceBundle::TryDeserialize(m)) << "iteration " << i;
    if (!parsed.ok()) {
      continue;
    }
    ++parse_ok;
    EXPECT_EQ(parsed.value().Serialize(), m) << "iteration " << i;
    Status verdict;
    ASSERT_NO_THROW(verdict = DceVerify(CryptoSuite::Toy(), parsed.value(), e->domain,
                                        e->tls_key.pub.Encode(), anchor))
        << "iteration " << i;
    if (m != wire) {
      EXPECT_FALSE(verdict.ok()) << "iteration " << i;
    } else {
      EXPECT_TRUE(verdict.ok()) << "iteration " << i;
    }
  }
  // Parse-ok mutants are rare (strict framing + the canonical-encoding rule)
  // but must exist — e.g. whole-donor swaps parse fine and fail verification.
  EXPECT_GT(parse_ok, 0);
  EXPECT_LT(parse_ok, 1200);
}

// --- Campaign 5: DNSSEC records -----------------------------------------------

TEST(FaultInjection, DnssecRecordMutationCampaign) {
  Environment* e = env();
  Mutator mut(0xD1139EC);
  const ChainOfTrust chain = e->dns.BuildChain(e->domain);

  const Bytes dnskey_wire = chain.root_zsk.Encode();
  const Bytes ds_wire = chain.leaf_ds.rrset.rdatas.at(0);
  const Bytes rrsig_wire = chain.leaf_ds.rrsig.Encode();
  const Bytes name_wire = e->domain.ToWire();
  const Bytes donor_name_wire = e->donor_domain.ToWire();

  for (int i = 0; i < 1200; ++i) {
    switch (i % 4) {
      case 0: {
        Bytes m = mut.Mutate(dnskey_wire);
        Result<DnskeyRdata> parsed = Sentinel();
        ASSERT_NO_THROW(parsed = DnskeyRdata::TryDecode(m)) << "iteration " << i;
        if (parsed.ok()) {
          EXPECT_EQ(parsed.value().Encode(), m) << "iteration " << i;
        }
        break;
      }
      case 1: {
        Bytes m = mut.Mutate(ds_wire);
        Result<DsRdata> parsed = Sentinel();
        ASSERT_NO_THROW(parsed = DsRdata::TryDecode(m)) << "iteration " << i;
        if (parsed.ok()) {
          EXPECT_EQ(parsed.value().Encode(), m) << "iteration " << i;
        }
        break;
      }
      case 2: {
        Bytes m = mut.Mutate(rrsig_wire, dnskey_wire);
        Result<RrsigRdata> parsed = Sentinel();
        ASSERT_NO_THROW(parsed = RrsigRdata::TryDecode(m)) << "iteration " << i;
        if (parsed.ok()) {
          EXPECT_EQ(parsed.value().Encode(), m) << "iteration " << i;
        }
        break;
      }
      default: {
        Bytes m = mut.Mutate(name_wire, donor_name_wire);
        size_t pos = 0;
        Result<DnsName> parsed = Sentinel();
        ASSERT_NO_THROW(parsed = DnsName::TryFromWire(m, &pos)) << "iteration " << i;
        if (parsed.ok()) {
          // Injective up to the bytes consumed.
          EXPECT_EQ(parsed.value().ToWire(), Bytes(m.begin(), m.begin() + pos))
              << "iteration " << i;
        }
        break;
      }
    }
  }

  // Chain-level tamper loop: flipping any bit of any signed byte (rdatas and
  // signatures are all covered, unlike TTLs) must fail validation.
  ASSERT_TRUE(ValidateChain(e->dns.suite(), chain, chain.root_zsk).ok());
  Rng tamper_rng(0xC4A17);
  for (int i = 0; i < 300; ++i) {
    ChainOfTrust bad = chain;
    std::vector<Bytes*> targets;
    targets.push_back(&bad.leaf_ksk.public_key);
    for (Bytes& rdata : bad.leaf_ds.rrset.rdatas) targets.push_back(&rdata);
    targets.push_back(&bad.leaf_ds.rrsig.signature);
    for (ChainLink& link : bad.levels) {
      for (Bytes& rdata : link.dnskey.rrset.rdatas) targets.push_back(&rdata);
      targets.push_back(&link.dnskey.rrsig.signature);
      for (Bytes& rdata : link.ds.rrset.rdatas) targets.push_back(&rdata);
      targets.push_back(&link.ds.rrsig.signature);
    }
    Bytes* target = targets[tamper_rng.NextBelow(targets.size())];
    if (target->empty()) {
      continue;
    }
    (*target)[tamper_rng.NextBelow(target->size())] ^=
        static_cast<uint8_t>(1u << tamper_rng.NextBelow(8));
    Status verdict;
    ASSERT_NO_THROW(verdict = ValidateChain(e->dns.suite(), bad, chain.root_zsk))
        << "iteration " << i;
    EXPECT_FALSE(verdict.ok()) << "iteration " << i;
  }
}

// --- Error-code name coverage -------------------------------------------------

TEST(FaultInjection, ErrorCodeNamesAreCompleteAndDistinct) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumErrorCodes; ++i) {
    std::string name = ErrorCodeName(static_cast<ErrorCode>(i));
    EXPECT_NE(name, "unknown") << "code " << i;
    for (const std::string& prior : names) {
      EXPECT_NE(name, prior) << "code " << i;
    }
    names.push_back(name);
  }
}

}  // namespace
}  // namespace nope
