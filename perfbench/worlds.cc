#include "perfbench/worlds.h"

#include "perfbench/harness.h"

namespace perfbench {

namespace {

using nope::Bytes;
using nope::DnsName;
using nope::Fr;
using nope::NopeVerifyStatus;

// "<label>.<tld>": a 6-10 character label under one of four TLDs. Wire form
// stays under 32 bytes, so every deployment here has the same shape.
DnsName SeededDomain(nope::Rng* rng, const std::string& tld) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string label(1, kAlphabet[rng->NextBelow(26)]);
  size_t len = 6 + rng->NextBelow(5);
  while (label.size() < len) {
    label += kAlphabet[rng->NextBelow(36)];
  }
  return DnsName::FromString(label + "." + tld);
}

std::string SeededTld(nope::Rng* rng) {
  static const char* const kTlds[] = {"org", "com", "net", "dev"};
  return kTlds[rng->NextBelow(4)];
}

// The stand-in circuit: the statement's public inputs plus one product
// constraint over two of them, so Setup and Prove see a non-empty system.
nope::ConstraintSystem StandInSystem(const std::vector<Fr>& public_inputs) {
  nope::ConstraintSystem cs;
  std::vector<nope::Var> vars;
  for (const Fr& x : public_inputs) {
    vars.push_back(cs.AddPublicInput(x));
  }
  nope::Var product = cs.AddWitness(public_inputs[0] * public_inputs[1]);
  cs.Enforce(vars[0], vars[1], product);
  return cs;
}

std::vector<Fr> PublicInputsFor(const nope::StatementParams& params, const DnsName& domain,
                                const Bytes& tls_key, const std::string& ca_name) {
  return nope::NopePublicInputs(params, domain, nope::TlsKeyDigest(tls_key),
                                nope::CaNameDigest(ca_name), nope::TruncateTimestamp(kNow));
}

}  // namespace

RotationWorld::RotationWorld(uint64_t seed)
    : dns(nope::CryptoSuite::Toy(), DeriveSeed(seed, "hierarchy")),
      key_rng(DeriveSeed(seed, "tls-keys")),
      prover_rng(DeriveSeed(seed, "prover")) {
  nope::Rng names(DeriveSeed(seed, "names"));
  std::string tld = SeededTld(&names);
  dns.AddZone(DnsName::FromString(tld));
  domain = SeededDomain(&names, tld);
  dns.AddZone(domain);
  nope::Rng setup_rng(DeriveSeed(seed, "setup"));
  deployment = nope::NopeTrustedSetup(&dns, domain, nope::StatementOptions::Full(), &setup_rng);
}

bool RotationOutputOk(const RotationWorld& world, const Bytes& tls_key, uint64_t ts,
                      const nope::NopeProofBundle& bundle, std::string* why) {
  std::vector<Fr> pub = nope::NopePublicInputs(world.deployment.params, world.domain,
                                               nope::TlsKeyDigest(tls_key),
                                               nope::CaNameDigest(world.ca_name),
                                               nope::TruncateTimestamp(ts));
  if (!nope::groth16::Verify(world.deployment.vk(), pub, bundle.proof)) {
    *why = "rotation proof does not verify on its public inputs";
    return false;
  }
  nope::Result<Bytes> decoded = nope::DecodeProofFromSans(bundle.sans, world.domain);
  if (!decoded.ok() || decoded.value().size() != nope::kSanProofBytes ||
      decoded.value() != bundle.proof.ToBytes()) {
    *why = "rotation SANs do not decode to the proof's 128 bytes";
    return false;
  }
  return true;
}

const char* ChainClassName(ChainClass cls) {
  switch (cls) {
    case ChainClass::kNope:
      return "nope";
    case ChainClass::kLegacy:
      return "legacy";
    case ChainClass::kStolenProof:
      return "stolen_proof";
    case ChainClass::kMauledProof:
      return "mauled_proof";
    case ChainClass::kCorruptSan:
      return "corrupt_san";
  }
  return "unknown";
}

NopeVerifyStatus ExpectedStatus(ChainClass cls) {
  switch (cls) {
    case ChainClass::kNope:
      return NopeVerifyStatus::kOk;
    case ChainClass::kLegacy:
      return NopeVerifyStatus::kNoNopeProof;
    case ChainClass::kStolenProof:
    case ChainClass::kMauledProof:
      return NopeVerifyStatus::kProofRejected;
    case ChainClass::kCorruptSan:
      return NopeVerifyStatus::kBadProofEncoding;
  }
  return NopeVerifyStatus::kLegacyFailure;
}

bool ExpectedAccepted(ChainClass cls) {
  return cls == ChainClass::kNope || cls == ChainClass::kLegacy ||
         cls == ChainClass::kCorruptSan;
}

HandshakeWorld::HandshakeWorld(uint64_t seed)
    : rng(DeriveSeed(seed, "handshake")),
      log1(1, &rng),
      log2(2, &rng),
      ca("lets-encrypt-sim", {&log1, &log2}, &rng),
      trust{ca.root_public_key(), 2} {
  nope::Rng names(DeriveSeed(seed, "names"));
  std::string tld = SeededTld(&names);
  constexpr size_t kNopeDomains = 3;
  constexpr size_t kLegacyDomains = 2;

  // One deployment for every NOPE domain; shape as NopeTrustedSetup gives a
  // one-level domain whose wire form fits 32 bytes.
  deployment.params.suite = &nope::CryptoSuite::Toy();
  deployment.params.num_levels = 1;
  deployment.params.max_name_len = 32;
  deployment.params.options = nope::StatementOptions::Full();
  nope::Rng setup_rng(DeriveSeed(seed, "setup"));
  nope::Rng prover_rng(DeriveSeed(seed, "prover"));
  nope::Rng key_rng(DeriveSeed(seed, "tls-keys"));
  DnsName sample = SeededDomain(&names, tld);
  deployment.pk = nope::groth16::Setup(
      StandInSystem(PublicInputsFor(deployment.params, sample, Bytes(65, 0x04), "setup-sample")),
      &setup_rng);

  auto issue = [&](const DnsName& domain, const Bytes& tls_key,
                   const std::vector<std::string>& sans) {
    nope::CertificateSigningRequest csr;
    csr.subject = domain;
    csr.public_key = tls_key;
    csr.sans = sans;
    return nope::CertificateChain{ca.IssueWithoutValidation(csr, kNow), ca.intermediate()};
  };
  auto prove = [&](const DnsName& domain, const Bytes& tls_key) {
    nope::ConstraintSystem cs =
        StandInSystem(PublicInputsFor(deployment.params, domain, tls_key, ca.organization()));
    return nope::groth16::Prove(deployment.pk, cs, &prover_rng).ToBytes();
  };

  std::vector<DnsName> nope_domains;
  std::vector<Bytes> nope_proofs;
  for (size_t i = 0; i < kNopeDomains; ++i) {
    DnsName domain = SeededDomain(&names, tld);
    Bytes key = nope::GenerateEcdsaKey(&key_rng).pub.Encode();
    Bytes proof = prove(domain, key);
    chains.push_back({ChainClass::kNope, domain,
                      issue(domain, key, nope::EncodeProofSans(proof, domain))});
    nope_domains.push_back(domain);
    nope_proofs.push_back(proof);
  }
  for (size_t i = 0; i < kLegacyDomains; ++i) {
    DnsName domain = SeededDomain(&names, tld);
    Bytes key = nope::GenerateEcdsaKey(&key_rng).pub.Encode();
    chains.push_back({ChainClass::kLegacy, domain, issue(domain, key, {})});
  }
  // The attacker's key with the victim's proof SANs (examples/attack_simulation).
  Bytes attacker = nope::GenerateEcdsaKey(&key_rng).pub.Encode();
  chains.push_back({ChainClass::kStolenProof, nope_domains[0],
                    issue(nope_domains[0], attacker, chains[0].chain.leaf.body.sans)});
  // Flipping the odd-y flag of A decodes to -A: a valid point, a wrong proof.
  Bytes mauled = nope_proofs[1];
  mauled[0] ^= 0x40;
  Bytes victim_key = chains[1].chain.leaf.body.subject_public_key;
  chains.push_back({ChainClass::kMauledProof, nope_domains[1],
                    issue(nope_domains[1], victim_key,
                          nope::EncodeProofSans(mauled, nope_domains[1]))});
  // The first payload character (after "n0pe.") replaced by one outside the
  // base-37 alphabet: the SANs no longer decode.
  std::vector<std::string> corrupt = chains[2].chain.leaf.body.sans;
  corrupt[0][5] = '_';
  chains.push_back({ChainClass::kCorruptSan, nope_domains[2],
                    issue(nope_domains[2], chains[2].chain.leaf.body.subject_public_key,
                          corrupt)});

  // Each block: 10 NOPE (50%), 7 legacy (35%), 3 adversarial (15%), shuffled.
  constexpr size_t kBlocks = 20;
  nope::Rng order(DeriveSeed(seed, "chain-order"));
  for (size_t b = 0; b < kBlocks; ++b) {
    std::vector<size_t> block;
    for (size_t i = 0; i < 10; ++i) {
      block.push_back(order.NextBelow(kNopeDomains));
    }
    for (size_t i = 0; i < 7; ++i) {
      block.push_back(kNopeDomains + order.NextBelow(kLegacyDomains));
    }
    for (size_t i = 0; i < 3; ++i) {
      block.push_back(kNopeDomains + kLegacyDomains + i);  // stolen, mauled, corrupt
    }
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[order.NextBelow(i + 1)]);
    }
    stream.insert(stream.end(), block.begin(), block.end());
  }
}

std::vector<nope::ScenarioSpec> ScenarioWindow(uint64_t seed, size_t rounds) {
  uint64_t sweep_seed = DeriveSeed(seed, "scenario-sweep");
  // Start the window at a seeded round so windows differ beyond the sweep seed.
  uint64_t first = (DeriveSeed(seed, "scenario-window") % 1000) * nope::kNumScenarioClasses;
  std::vector<uint64_t> next(nope::kNumScenarioClasses);
  for (int c = 0; c < nope::kNumScenarioClasses; ++c) {
    next[c] = first + c;
  }
  std::vector<nope::ScenarioSpec> specs;
  for (size_t r = 0; r < rounds; ++r) {
    for (int c = 0; c < nope::kNumScenarioClasses; ++c) {
      const size_t depth = static_cast<nope::ScenarioClass>(c) ==
                                   nope::ScenarioClass::kDeepDelegation
                               ? 4
                               : 2;
      nope::ScenarioSpec spec;
      do {
        spec = nope::GenerateScenario(sweep_seed, next[c]);
        next[c] += nope::kNumScenarioClasses;
      } while (spec.zones.size() != depth);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

bool ScenarioOutcomeOk(const nope::ScenarioSpec& spec, const nope::ScenarioResult& r,
                       std::string* why) {
  using nope::DowngradeReason;
  using nope::ScenarioClass;
  using nope::ScenarioOutcome;
  bool degraded = r.outcome == ScenarioOutcome::kDegraded;
  auto degraded_as = [&](DowngradeReason reason) { return degraded && r.reason == reason; };
  bool ok = degraded == (r.reason != DowngradeReason::kNone);
  switch (spec.cls) {
    case ScenarioClass::kHealthyEcdsa:
    case ScenarioClass::kHealthyMixed:
    case ScenarioClass::kDeepDelegation:
    case ScenarioClass::kSkewWithinTolerance:
      ok = ok && r.outcome == ScenarioOutcome::kProved;
      break;
    case ScenarioClass::kUnsignedLeaf:
      ok = ok && degraded_as(DowngradeReason::kUnsignedZone);
      break;
    case ScenarioClass::kUnsignedParent:
      ok = ok && degraded_as(DowngradeReason::kUnsignedDelegation);
      break;
    case ScenarioClass::kExpiredRrsig:
      ok = ok && degraded_as(DowngradeReason::kRrsigExpired);
      break;
    case ScenarioClass::kNotYetValidRrsig:
      ok = ok && degraded_as(DowngradeReason::kRrsigNotYetValid);
      break;
    case ScenarioClass::kKskRollover:
    case ScenarioClass::kZskRollover:
      ok = ok && (spec.rollover_heals ? r.outcome == ScenarioOutcome::kProved &&
                                            r.stats.recoveries >= 1
                                      : degraded_as(DowngradeReason::kChainBogus));
      break;
    case ScenarioClass::kFlakyDependencies:
      break;
    case ScenarioClass::kCaOutage:
      ok = ok && r.outcome == ScenarioOutcome::kRejected && r.stats.nope_issued == 0 &&
           r.stats.legacy_issued == 0;
      break;
    case ScenarioClass::kMauledProof:
      ok = ok && r.outcome == ScenarioOutcome::kRejected;
      break;
  }
  if (!ok) {
    *why = "scenario invariant violated: " + spec.Describe() + " -> " +
           nope::ScenarioOutcomeName(r.outcome) + " " + r.detail;
  }
  return ok;
}

nope::FleetConfig FleetWorkloadConfig(uint64_t seed) {
  nope::FleetConfig config;
  config.domains = 1'000'000;
  config.load_factor = 1.0;
  config.seed = DeriveSeed(seed, "fleet");
  config.bursts.bursts_per_day = 0.5;
  config.bursts.brownout_cost_multiplier = 3.0;
  return config;
}

}  // namespace perfbench
