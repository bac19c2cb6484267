#include <gtest/gtest.h>

#include "src/pki/ca.h"
#include "src/pki/san_encoding.h"
#include "src/tls/handshake.h"

namespace nope {
namespace {

constexpr uint64_t kNow = 1750000000;

struct PkiFixture {
  Rng rng{3001};
  CtLog log1{1, &rng};
  CtLog log2{2, &rng};
  DnssecHierarchy dns{CryptoSuite::Toy(), 3002};
  CertificateAuthority ca{"lets-encrypt-sim", {&log1, &log2}, &rng};

  PkiFixture() {
    dns.AddZone(DnsName::FromString("com"));
    dns.AddZone(DnsName::FromString("example.com"));
  }

  CertificateSigningRequest Csr(const std::string& domain) {
    CertificateSigningRequest csr;
    csr.subject = DnsName::FromString(domain);
    csr.public_key = GenerateEcdsaKey(&rng).pub.Encode();
    return csr;
  }

  TxtResolver Resolver() {
    return [this](const DnsName& name) { return dns.QueryTxt(name); };
  }
};

TEST(Certificate, SerializationRoundTrip) {
  PkiFixture f;
  auto csr = f.Csr("example.com");
  csr.sans = {"alt.example.com"};
  Certificate cert = f.ca.IssueWithoutValidation(csr, kNow);
  Bytes wire = cert.Serialize();
  Certificate parsed = Certificate::Deserialize(wire);
  EXPECT_EQ(parsed.body.serial, cert.body.serial);
  EXPECT_EQ(parsed.body.subject, cert.body.subject);
  EXPECT_EQ(parsed.body.sans, cert.body.sans);
  EXPECT_EQ(parsed.body.scts.size(), 2u);
  EXPECT_EQ(parsed.signature, cert.signature);
  EXPECT_EQ(parsed.Serialize(), wire);
}

TEST(Certificate, SizeBreakdownSumsSensibly) {
  PkiFixture f;
  Certificate cert = f.ca.IssueWithoutValidation(f.Csr("example.com"), kNow);
  auto sizes = cert.SizeBreakdown();
  EXPECT_GT(sizes["total"], 0u);
  EXPECT_GT(sizes["sct"], 0u);
  EXPECT_EQ(sizes["signature"], 3u + 64u);
  // Component sizes must not exceed the total.
  size_t sum = sizes["metadata"] + sizes["subject_name"] + sizes["subject_public_key"] +
               sizes["san_extension"] + sizes["ocsp"] + sizes["sct"] + sizes["signature"];
  EXPECT_LE(sum, sizes["total"] + 8);
  EXPECT_GE(sum, sizes["total"] - 8);
}

TEST(Acme, Dns01HappyPath) {
  PkiFixture f;
  auto csr = f.Csr("example.com");
  AcmeOrder order = f.ca.NewOrder(csr);
  // Post the challenge, then finalize.
  f.dns.SetTxt(DnsName::FromString("_acme-challenge.example.com"), order.challenge_token);
  auto cert = f.ca.FinalizeOrder(order, csr, f.Resolver(), kNow);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->body.subject, csr.subject);
  EXPECT_GE(cert->body.scts.size(), 2u);
  EXPECT_TRUE(VerifyCertificateSignature(*cert, f.ca.intermediate_public_key()));
}

TEST(Acme, FailsWithoutChallenge) {
  PkiFixture f;
  auto csr = f.Csr("example.com");
  AcmeOrder order = f.ca.NewOrder(csr);
  EXPECT_FALSE(f.ca.FinalizeOrder(order, csr, f.Resolver(), kNow).has_value());
  // Wrong token also fails.
  f.dns.SetTxt(DnsName::FromString("_acme-challenge.example.com"), "wrong");
  EXPECT_FALSE(f.ca.FinalizeOrder(order, csr, f.Resolver(), kNow).has_value());
}

TEST(Acme, LegacyDnsAttackerDefeatsValidation) {
  // The paper's legacy-DNS attacker intercepts the CA's resolver (§3.1).
  PkiFixture f;
  auto csr = f.Csr("example.com");  // attacker's key!
  AcmeOrder order = f.ca.NewOrder(csr);
  TxtResolver attacker_resolver = [&order](const DnsName&) {
    return std::vector<std::string>{order.challenge_token};
  };
  auto cert = f.ca.FinalizeOrder(order, csr, attacker_resolver, kNow);
  EXPECT_TRUE(cert.has_value());  // rogue cert issued
}

TEST(CtLogTest, SctIssueAndVerify) {
  Rng rng(3003);
  CtLog log(7, &rng);
  Bytes precert = rng.NextBytes(100);
  Sct sct = log.Submit(precert, kNow);
  log.Publish();
  EXPECT_TRUE(log.VerifySct(precert, sct));
  Bytes other = rng.NextBytes(100);
  EXPECT_FALSE(log.VerifySct(other, sct));
  Sct bad = sct;
  bad.timestamp += 1;
  EXPECT_FALSE(log.VerifySct(precert, bad));
}

TEST(CtLogTest, MerkleInclusionProofs) {
  Rng rng(3004);
  CtLog log(8, &rng);
  std::vector<Bytes> entries;
  for (int i = 0; i < 13; ++i) {
    entries.push_back(rng.NextBytes(40));
    log.Submit(entries.back(), kNow + i);
  }
  log.Publish();
  Bytes root = log.RootHash();
  for (const Bytes& e : entries) {
    auto proof = log.ProveInclusion(e);
    ASSERT_TRUE(proof.has_value());
    EXPECT_TRUE(CtLog::VerifyInclusion(root, e, *proof));
    // Wrong leaf fails.
    EXPECT_FALSE(CtLog::VerifyInclusion(root, rng.NextBytes(40), *proof));
  }
  EXPECT_FALSE(log.ProveInclusion(rng.NextBytes(40)).has_value());
}

TEST(CtLogTest, MonitorSeesNewEntries) {
  Rng rng(3005);
  CtLog log(9, &rng);
  log.Submit(Bytes{1}, kNow);
  log.Publish();
  size_t checkpoint = log.TreeSize();
  log.Submit(Bytes{2}, kNow + 1);
  log.Submit(Bytes{3}, kNow + 2);
  log.Publish();
  auto fresh = log.EntriesSince(checkpoint);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0], Bytes{2});
}

TEST(CtLogTest, RogueSctVerifiesButIsNotLogged) {
  Rng rng(3006);
  CtLog log(10, &rng);
  Bytes precert = rng.NextBytes(64);
  Sct rogue = log.IssueRogueSct(precert, kNow);
  EXPECT_TRUE(log.VerifySct(precert, rogue));
  EXPECT_FALSE(log.ProveInclusion(precert).has_value());  // never merged
}

TEST(Revocation, OcspLifecycle) {
  PkiFixture f;
  Certificate cert = f.ca.IssueWithoutValidation(f.Csr("example.com"), kNow);
  OcspResponse good = f.ca.SignOcsp(cert.body.serial, kNow);
  EXPECT_FALSE(good.revoked);
  EXPECT_TRUE(f.ca.VerifyOcsp(good));
  f.ca.Revoke(cert.body.serial);
  OcspResponse after = f.ca.SignOcsp(cert.body.serial, kNow + 100);
  EXPECT_TRUE(after.revoked);
  EXPECT_TRUE(f.ca.VerifyOcsp(after));
  // Tampered response rejected.
  after.revoked = false;
  EXPECT_FALSE(f.ca.VerifyOcsp(after));
  EXPECT_EQ(f.ca.CrlSnapshot(), std::vector<uint64_t>{cert.body.serial});
}

TEST(SanEncoding, RoundTrip128Bytes) {
  Rng rng(3007);
  Bytes proof = rng.NextBytes(kSanProofBytes);
  DnsName domain = DnsName::FromString("example.com");
  auto sans = EncodeProofSans(proof, domain);
  ASSERT_FALSE(sans.empty());
  for (const std::string& san : sans) {
    EXPECT_LE(san.size(), 253u);
    EXPECT_EQ(san.rfind("n", 0), 0u);
    // Ends with the domain.
    EXPECT_NE(san.find("example.com"), std::string::npos);
  }
  Result<Bytes> decoded = DecodeProofFromSans(sans, domain);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), proof);
}

TEST(SanEncoding, MultiSanSplitForLongDomains) {
  Rng rng(3008);
  Bytes proof = rng.NextBytes(kSanProofBytes);
  std::string long_label(60, 'x');
  DnsName domain = DnsName::FromString(long_label + "." + long_label + "." + long_label + ".com");
  auto sans = EncodeProofSans(proof, domain);
  EXPECT_GE(sans.size(), 2u);  // labels spread across n0pe. / n1pe.
  Result<Bytes> decoded = DecodeProofFromSans(sans, domain);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), proof);
}

TEST(SanEncoding, ChecksumCatchesCorruption) {
  Rng rng(3009);
  Bytes proof = rng.NextBytes(kSanProofBytes);
  DnsName domain = DnsName::FromString("example.com");
  auto sans = EncodeProofSans(proof, domain);
  // Flip one payload character to a different alphabet character.
  std::string& san = sans[0];
  size_t pos = san.find('.') + 3;
  san[pos] = san[pos] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(DecodeProofFromSans(sans, domain).ok());
}

TEST(SanEncoding, MissingOrForeignSansIgnored) {
  DnsName domain = DnsName::FromString("example.com");
  EXPECT_FALSE(DecodeProofFromSans({"www.example.com"}, domain).ok());
  EXPECT_FALSE(DecodeProofFromSans({}, domain).ok());
}

TEST(SanEncoding, MissingSansReportedAsMissing) {
  DnsName domain = DnsName::FromString("example.com");
  Result<Bytes> no_sans = DecodeProofFromSans({}, domain);
  ASSERT_FALSE(no_sans.ok());
  EXPECT_EQ(no_sans.error().code, ErrorCode::kMissing);
  Result<Bytes> foreign = DecodeProofFromSans({"www.example.com"}, domain);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.error().code, ErrorCode::kMissing);
}

TEST(SanEncoding, RejectsOutOfAlphabetCharacters) {
  Rng rng(3010);
  Bytes proof = rng.NextBytes(kSanProofBytes);
  DnsName domain = DnsName::FromString("example.com");
  auto sans = EncodeProofSans(proof, domain);
  size_t payload = sans[0].find('.') + 3;
  for (char bad : {'A', 'Z', '_', '~', ' ', '\0', '\x7f', '\x80'}) {
    auto mutated = sans;
    mutated[0][payload] = bad;
    Result<Bytes> decoded = DecodeProofFromSans(mutated, domain);
    ASSERT_FALSE(decoded.ok()) << "char " << static_cast<int>(bad);
    EXPECT_EQ(decoded.error().code, ErrorCode::kBadEncoding)
        << "char " << static_cast<int>(bad);
  }
}

TEST(SanEncoding, RejectsOverLengthPayloadLabels) {
  Rng rng(3011);
  Bytes proof = rng.NextBytes(kSanProofBytes);
  DnsName domain = DnsName::FromString("example.com");
  auto sans = EncodeProofSans(proof, domain);
  // Grow the first payload label past the 50-character budget.
  size_t dot = sans[0].find('.');
  sans[0].insert(dot + 5, std::string(kSanLabelChars, 'a'));
  Result<Bytes> decoded = DecodeProofFromSans(sans, domain);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kBadLength);
}

TEST(SanEncoding, RejectsEmptyPayloadLabel) {
  Rng rng(3012);
  Bytes proof = rng.NextBytes(kSanProofBytes);
  DnsName domain = DnsName::FromString("example.com");
  auto sans = EncodeProofSans(proof, domain);
  size_t dot = sans[0].find('.');
  sans[0].insert(dot + 1, ".");  // empty label inside the payload
  Result<Bytes> decoded = DecodeProofFromSans(sans, domain);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kBadEncoding);
}

TEST(SanEncoding, RejectsTruncatedPayload) {
  Rng rng(3013);
  Bytes proof = rng.NextBytes(kSanProofBytes);
  DnsName domain = DnsName::FromString("example.com");
  auto sans = EncodeProofSans(proof, domain);
  size_t dot = sans[0].find('.');
  sans[0].erase(dot + 1, 10);  // drop ten payload characters
  Result<Bytes> decoded = DecodeProofFromSans(sans, domain);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kBadLength);
}

TEST(Handshake, LegacyStatusNamesAreCompleteAndDistinct) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumLegacyStatuses; ++i) {
    std::string name = LegacyStatusName(static_cast<LegacyStatus>(i));
    EXPECT_NE(name, "unknown") << "status " << i;
    for (const std::string& prior : names) {
      EXPECT_NE(name, prior) << "status " << i;
    }
    names.push_back(name);
  }
}

TEST(Handshake, LegacyVerifyPaths) {
  PkiFixture f;
  auto csr = f.Csr("example.com");
  Certificate cert = f.ca.IssueWithoutValidation(csr, kNow);
  CertificateChain chain{cert, f.ca.intermediate()};
  TrustStore trust{f.ca.root_public_key(), 2};
  DnsName domain = DnsName::FromString("example.com");

  EXPECT_EQ(LegacyVerifyChain(chain, trust, domain, kNow + 100, nullptr), LegacyStatus::kOk);
  EXPECT_EQ(LegacyVerifyChain(chain, trust, DnsName::FromString("evil.com"), kNow + 100, nullptr),
            LegacyStatus::kWrongDomain);
  EXPECT_EQ(LegacyVerifyChain(chain, trust, domain, cert.body.not_after + 1, nullptr),
            LegacyStatus::kExpired);
  // Untrusted root.
  Rng rng2(77);
  TrustStore wrong_trust{GenerateEcdsaKey(&rng2).pub, 2};
  EXPECT_EQ(LegacyVerifyChain(chain, wrong_trust, domain, kNow + 100, nullptr),
            LegacyStatus::kBadChainSignature);
  // Tampered leaf body.
  CertificateChain tampered = chain;
  tampered.leaf.body.subject_public_key[10] ^= 1;
  EXPECT_EQ(LegacyVerifyChain(tampered, trust, domain, kNow + 100, nullptr),
            LegacyStatus::kBadChainSignature);
  // OCSP: revoked and stale.
  f.ca.Revoke(cert.body.serial);
  OcspResponse revoked = f.ca.SignOcsp(cert.body.serial, kNow + 100);
  EXPECT_EQ(LegacyVerifyChain(chain, trust, domain, kNow + 100, &revoked),
            LegacyStatus::kRevoked);
  OcspResponse stale = f.ca.SignOcsp(cert.body.serial, kNow - 10 * 24 * 3600);
  EXPECT_EQ(LegacyVerifyChain(chain, trust, domain, kNow + 100, &stale),
            LegacyStatus::kStaleOcsp);
}

TEST(Handshake, ClockSkewToleranceWidensValidityWindow) {
  PkiFixture f;
  Certificate cert = f.ca.IssueWithoutValidation(f.Csr("example.com"), kNow);
  CertificateChain chain{cert, f.ca.intermediate()};
  DnsName domain = DnsName::FromString("example.com");
  const uint64_t nb = cert.body.not_before;
  const uint64_t na = cert.body.not_after;

  // Strict store (the default): boundary instants are inclusive, one second
  // past either edge rejects.
  TrustStore strict{f.ca.root_public_key(), 2};
  EXPECT_EQ(strict.clock_skew_tolerance_s, 0u);
  EXPECT_EQ(LegacyVerifyChain(chain, strict, domain, nb, nullptr), LegacyStatus::kOk);
  EXPECT_EQ(LegacyVerifyChain(chain, strict, domain, na, nullptr), LegacyStatus::kOk);
  EXPECT_EQ(LegacyVerifyChain(chain, strict, domain, nb - 1, nullptr),
            LegacyStatus::kExpired);
  EXPECT_EQ(LegacyVerifyChain(chain, strict, domain, na + 1, nullptr),
            LegacyStatus::kExpired);

  // Tolerant store: the window widens by exactly the tolerance on both ends.
  constexpr uint64_t kSkew = 300;
  TrustStore tolerant{f.ca.root_public_key(), 2, kSkew};
  EXPECT_EQ(LegacyVerifyChain(chain, tolerant, domain, nb - kSkew, nullptr),
            LegacyStatus::kOk);
  EXPECT_EQ(LegacyVerifyChain(chain, tolerant, domain, na + kSkew, nullptr),
            LegacyStatus::kOk);
  EXPECT_EQ(LegacyVerifyChain(chain, tolerant, domain, nb - kSkew - 1, nullptr),
            LegacyStatus::kExpired);
  EXPECT_EQ(LegacyVerifyChain(chain, tolerant, domain, na + kSkew + 1, nullptr),
            LegacyStatus::kExpired);
}

TEST(Handshake, ClockSkewToleranceAppliesToOcspStaleness) {
  PkiFixture f;
  Certificate cert = f.ca.IssueWithoutValidation(f.Csr("example.com"), kNow);
  CertificateChain chain{cert, f.ca.intermediate()};
  DnsName domain = DnsName::FromString("example.com");
  OcspResponse ocsp = f.ca.SignOcsp(cert.body.serial, kNow);
  const uint64_t edge = ocsp.next_update;

  TrustStore strict{f.ca.root_public_key(), 2};
  EXPECT_EQ(LegacyVerifyChain(chain, strict, domain, edge, &ocsp), LegacyStatus::kOk);
  EXPECT_EQ(LegacyVerifyChain(chain, strict, domain, edge + 1, &ocsp),
            LegacyStatus::kStaleOcsp);

  constexpr uint64_t kSkew = 300;
  TrustStore tolerant{f.ca.root_public_key(), 2, kSkew};
  EXPECT_EQ(LegacyVerifyChain(chain, tolerant, domain, edge + kSkew, &ocsp),
            LegacyStatus::kOk);
  EXPECT_EQ(LegacyVerifyChain(chain, tolerant, domain, edge + kSkew + 1, &ocsp),
            LegacyStatus::kStaleOcsp);
}

TEST(Handshake, DceBundleVerifies) {
  PkiFixture f;
  DnsName domain = DnsName::FromString("example.com");
  Bytes tls_key = GenerateEcdsaKey(&f.rng).pub.Encode();
  DceBundle bundle = BuildDceBundle(&f.dns, domain, tls_key);
  const CryptoSuite& suite = CryptoSuite::Toy();
  DnskeyRdata anchor = f.dns.root().ZskRdata();

  EXPECT_TRUE(DceVerify(suite, bundle, domain, tls_key, anchor).ok());
  // Wrong TLS key rejected.
  Bytes other_key = GenerateEcdsaKey(&f.rng).pub.Encode();
  EXPECT_FALSE(DceVerify(suite, bundle, domain, other_key, anchor).ok());
  // Tampered TLSA signature rejected.
  DceBundle bad = bundle;
  bad.tlsa.rrsig.signature[0] ^= 1;
  EXPECT_FALSE(DceVerify(suite, bad, domain, tls_key, anchor).ok());
  // Bandwidth: the serialized bundle is what DCE ships per handshake.
  EXPECT_GT(bundle.Serialize().size(), 200u);
}

}  // namespace
}  // namespace nope
