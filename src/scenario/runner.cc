#include "src/scenario/runner.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/core/nope.h"
#include "src/pki/ca.h"
#include "src/pki/ct_log.h"
#include "src/pki/flaky_ca.h"
#include "src/pki/san_encoding.h"
#include "src/service/proving_service.h"
#include "src/tls/handshake.h"

namespace nope {

namespace {

// Simulation epoch and horizon: the SimClock starts at the same instant the
// renewal test suite uses and each scenario covers 30 simulated days (~3
// renewal cycles under the fast config below).
constexpr uint64_t kStartMs = 1'750'000'000'000ull;
constexpr uint64_t kDayMs = 24ull * 3600 * 1000;
constexpr uint64_t kHorizonMs = kStartMs + 30 * kDayMs;
// Rollovers land after the initial issuance but before the first renewal
// (~day 9); healing lands after the degraded fallback but before the next
// renewal probes the proof path again (~day 18).
constexpr uint64_t kRolloverAtMs = kStartMs + 5 * kDayMs;
constexpr uint64_t kHealAtMs = kStartMs + 12 * kDayMs;

// The placeholder proof bytes SimulatedPipeline rides in the NOPE SANs (real
// proofs are 128 bytes on BN254); the client-side check below treats exactly
// these bytes as "proof verified".
Bytes PlaceholderProof() { return Bytes(128, 0x5a); }

RenewalConfig FastConfig() {
  RenewalConfig config;
  config.renewal_period_ms = 10 * kDayMs;
  config.lead_ms = kDayMs;
  config.lead_jitter_fraction = 0.1;
  config.retry.initial_delay_ms = 500;
  config.retry.max_delay_ms = 60'000;
  config.retry.max_attempts = 3;
  config.attempt_budget_ms = 10ull * 60 * 1000;
  config.degrade_after = 3;
  config.reattempt_delay_ms = 3600ull * 1000;
  return config;
}

// SimulatedPipeline whose proving stage optionally runs as a job through a
// ProvingService (admission control, DRR, shedding) instead of burning time
// inline — the scenario fleet's route into the src/service layer.
class ScenarioPipeline : public SimulatedPipeline {
 public:
  ScenarioPipeline(FlakyResolver* resolver, FlakyCa* ca, Clock* clock,
                   const DnsName& domain, Bytes tls_public_key,
                   const SimulatedPipelineConfig& config, ProvingService* service)
      : SimulatedPipeline(resolver, ca, clock, domain, std::move(tls_public_key),
                          config),
        clock_(clock),
        service_(service),
        domain_str_(domain.ToString()),
        prove_ms_(config.prove_ms),
        slice_ms_(config.prove_slice_ms) {}

  Status GenerateProof(const Deadline& deadline) override {
    if (service_ == nullptr) {
      return SimulatedPipeline::GenerateProof(deadline);
    }
    ProveRequest req;
    req.domain = domain_str_;
    req.circuit_id = "toy-chain";
    req.statement = MakeSimulatedStatement(clock_, prove_ms_, slice_ms_);
    req.deadline_ms = deadline.infinite() ? 0 : deadline.expires_at_ms();
    req.cost_estimate_ms = prove_ms_;
    ProvingService::SubmitResult submitted = service_->Submit(std::move(req));
    if (submitted.admission != Admission::kAdmitted) {
      return Error(ErrorCode::kCancelled,
                   std::string("prove job not admitted: ") +
                       AdmissionName(submitted.admission));
    }
    service_->PumpOne();
    const JobResult& job = service_->results().back();
    switch (job.outcome) {
      case JobOutcome::kOk:
        return Status::Ok();
      case JobOutcome::kFailed:
        return Error(ErrorCode::kUnavailable, "prove job failed: " + job.error);
      default:
        // Cancelled mid-run or shed at dequeue: the deadline is the cause.
        return Error(ErrorCode::kCancelled,
                     std::string("prove job ") + JobOutcomeName(job.outcome));
    }
  }

 private:
  Clock* clock_;
  ProvingService* service_;
  std::string domain_str_;
  uint64_t prove_ms_;
  uint64_t slice_ms_;
};

// Classes whose chains the real circuit supports: every zone signed and
// ECDSA end to end (the circuit constrains non-root keys to ECDSA).
bool RealProofEligible(const ScenarioSpec& spec) {
  if (spec.cls != ScenarioClass::kHealthyEcdsa &&
      spec.cls != ScenarioClass::kDeepDelegation) {
    return false;
  }
  for (const ZoneSpec& zone : spec.zones) {
    if (!zone.is_signed || zone.rsa_zsk) {
      return false;
    }
  }
  return true;
}

// Real Groth16 pass over the scenario's own (live) hierarchy: trusted
// setup, one issuance, and a full NopeClientVerify. Returns whether the
// client accepted the proof.
bool RealProofSpotCheck(const ScenarioSpec& spec, DnssecHierarchy* dns,
                        const DnsName& domain, CertificateAuthority* ca,
                        uint64_t now_s) {
  Rng rng(spec.seed ^ 0x9f'0008);
  EcdsaKeyPair tls_key = GenerateEcdsaKey(&rng);
  NopeDeployment deployment =
      NopeTrustedSetup(dns, domain, StatementOptions::Full(), &rng);
  std::optional<IssuanceResult> issued =
      IssueCertificate(&deployment, dns, ca, domain, tls_key.pub.Encode(),
                       now_s, &rng, /*with_nope=*/true);
  if (!issued.has_value()) {
    return false;
  }
  TrustStore trust{ca->root_public_key(), 1};
  NopeClientResult verdict =
      NopeClientVerify(deployment, issued->chain, trust, domain, now_s + 60,
                       /*stapled_ocsp=*/nullptr);
  return verdict.status == NopeVerifyStatus::kOk;
}

void CheckInvariants(const ScenarioSpec& spec, const ScenarioResult& result) {
  // Universal: degraded implies a recorded reason; proved implies none.
  if (result.outcome == ScenarioOutcome::kDegraded) {
    NOPE_INVARIANT(result.reason != DowngradeReason::kNone,
                   "degraded scenario without a recorded downgrade reason");
  }
  if (result.outcome == ScenarioOutcome::kProved) {
    NOPE_INVARIANT(result.reason == DowngradeReason::kNone,
                   "proved scenario carries a downgrade reason");
  }
  switch (spec.cls) {
    case ScenarioClass::kHealthyEcdsa:
    case ScenarioClass::kHealthyMixed:
    case ScenarioClass::kDeepDelegation:
    case ScenarioClass::kSkewWithinTolerance:
      NOPE_INVARIANT(result.outcome == ScenarioOutcome::kProved,
                     "healthy-class scenario did not prove");
      break;
    case ScenarioClass::kUnsignedLeaf:
      NOPE_INVARIANT(result.outcome == ScenarioOutcome::kDegraded &&
                         result.reason == DowngradeReason::kUnsignedZone,
                     "unsigned leaf must degrade as unsigned_zone");
      break;
    case ScenarioClass::kUnsignedParent:
      NOPE_INVARIANT(result.outcome == ScenarioOutcome::kDegraded &&
                         result.reason == DowngradeReason::kUnsignedDelegation,
                     "island of security must degrade as unsigned_delegation");
      break;
    case ScenarioClass::kExpiredRrsig:
      NOPE_INVARIANT(result.outcome == ScenarioOutcome::kDegraded &&
                         result.reason == DowngradeReason::kRrsigExpired,
                     "expired RRSIG must degrade as rrsig_expired");
      break;
    case ScenarioClass::kNotYetValidRrsig:
      NOPE_INVARIANT(result.outcome == ScenarioOutcome::kDegraded &&
                         result.reason == DowngradeReason::kRrsigNotYetValid,
                     "future RRSIG must degrade as rrsig_not_yet_valid");
      break;
    case ScenarioClass::kKskRollover:
    case ScenarioClass::kZskRollover:
      if (spec.rollover_heals) {
        NOPE_INVARIANT(result.outcome == ScenarioOutcome::kProved &&
                           result.stats.recoveries >= 1,
                       "healed rollover must recover and prove");
      } else {
        NOPE_INVARIANT(result.outcome == ScenarioOutcome::kDegraded &&
                           result.reason == DowngradeReason::kChainBogus,
                       "stuck rollover must degrade as chain_bogus");
      }
      break;
    case ScenarioClass::kFlakyDependencies:
      // Any classification is legal under random faults; the universal rules
      // above (and not crashing) are the contract.
      break;
    case ScenarioClass::kCaOutage:
      NOPE_INVARIANT(result.outcome == ScenarioOutcome::kRejected &&
                         result.stats.nope_issued == 0 &&
                         result.stats.legacy_issued == 0,
                     "CA outage must reject with zero certificates issued");
      break;
    case ScenarioClass::kMauledProof:
      NOPE_INVARIANT(result.outcome == ScenarioOutcome::kRejected,
                     "tampered proof SAN must be rejected, never proved");
      break;
  }
}

}  // namespace

ScenarioResult RunScenario(const ScenarioSpec& spec) {
  return RunScenario(spec, RunnerOptions{});
}

ScenarioResult RunScenario(const ScenarioSpec& spec, const RunnerOptions& options) {
  const CryptoSuite& suite = CryptoSuite::Toy();
  SimClock clock(kStartMs);

  // Per-scenario world, each component on its own derived seed.
  DnssecHierarchy dns(suite, spec.seed ^ 0xd15'0001);
  dns.root().SetRrsigWindow(spec.rrsig_inception, spec.rrsig_expiration);
  DnsName name = DnsName::Root();
  std::vector<DnsName> zone_names;
  for (const ZoneSpec& zone : spec.zones) {
    name = name.Child(zone.label);
    ZoneConfig config;
    config.rsa_zsk = zone.rsa_zsk;
    config.is_signed = zone.is_signed;
    config.rrsig_inception = spec.rrsig_inception;
    config.rrsig_expiration = spec.rrsig_expiration;
    dns.AddZone(name, config);
    zone_names.push_back(name);
  }
  const DnsName domain = name;

  Rng ct_rng(spec.seed ^ 0xc7'0002);
  CtLog ct_log(1, &ct_rng);
  Rng ca_rng(spec.seed ^ 0xca'0003);
  CertificateAuthority ca("Scenario CA", {&ct_log}, &ca_rng);
  FlakyCa flaky_ca(&ca, &clock, spec.seed ^ 0xfca'0004, spec.ca_fault_rate);
  if (spec.ca_outage) {
    flaky_ca.ForceFault(CaFault::kThrottled, SIZE_MAX);
  }
  FlakyResolver resolver(&dns, &clock, spec.seed ^ 0xd25'0005,
                         spec.dns_fault_rate);

  Rng key_rng(spec.seed ^ 0x715'0006);
  Bytes tls_public_key = key_rng.NextBytes(65);

  SimulatedPipelineConfig pipeline_config;
  pipeline_config.prove_ms = 30'000;
  pipeline_config.skew_tolerance_s = spec.skew_tolerance_s;

  ProvingServiceConfig service_config;
  ProvingService service(service_config, &clock, /*cache=*/nullptr,
                         /*metrics=*/nullptr);
  ScenarioPipeline pipeline(&resolver, &flaky_ca, &clock, domain,
                            tls_public_key, pipeline_config,
                            spec.use_proving_service ? &service : nullptr);
  RenewalManager manager(FastConfig(), &clock, &pipeline,
                         spec.seed ^ 0x4e'0007);

  if (spec.rollover == RolloverKind::kNone) {
    manager.Run(kHorizonMs);
  } else {
    manager.Run(kRolloverAtMs);
    Zone* zone = dns.Find(zone_names[spec.rollover_zone]);
    NOPE_INVARIANT(zone != nullptr, "rollover zone vanished");
    if (spec.rollover == RolloverKind::kKsk) {
      zone->RotateKsk(dns.rng());
    } else {
      zone->RotateZsk(dns.rng());
    }
    if (spec.rollover_heals) {
      manager.Run(kHealAtMs);
      zone->FinishRollover();
    }
    manager.Run(kHorizonMs);
  }

  // --- Classification ---------------------------------------------------------
  ScenarioResult result;
  result.stats = manager.stats();
  const std::optional<Certificate>& cert = pipeline.last_certificate();
  if (!cert.has_value() || manager.cert_expires_at_ms() <= kHorizonMs) {
    result.outcome = ScenarioOutcome::kRejected;
    result.detail = cert.has_value() ? "certificate lapsed before the horizon"
                                     : "no certificate ever issued";
  } else {
    CertificateChain chain{*cert, ca.intermediate()};
    if (spec.maul_proof && !chain.leaf.body.sans.empty()) {
      // In-flight tampering: flip one character of a proof SAN after the CA
      // signed the body. The CA signature over the body must now fail.
      std::string& san = chain.leaf.body.sans.front();
      size_t pos = san.size() / 2;
      san[pos] = san[pos] == 'x' ? 'y' : 'x';
    }
    TrustStore trust;
    trust.ca_root = ca.root_public_key();
    trust.min_scts = 1;
    uint64_t now_s = clock.NowMs() / 1000;
    LegacyStatus legacy =
        LegacyVerifyChain(chain, trust, domain, now_s, /*stapled_ocsp=*/nullptr);
    if (legacy != LegacyStatus::kOk) {
      result.outcome = ScenarioOutcome::kRejected;
      result.detail = std::string("legacy failure: ") + LegacyStatusName(legacy);
    } else {
      Result<Bytes> proof = DecodeProofFromSans(chain.leaf.body.sans, domain);
      if (proof.ok()) {
        if (proof.value() == PlaceholderProof()) {
          result.outcome = ScenarioOutcome::kProved;
          result.detail = "nope proof verified";
        } else {
          // Well-formed but wrong proof bytes: active tampering, hard fail
          // (§7 — only malformed/missing proofs may degrade).
          result.outcome = ScenarioOutcome::kRejected;
          result.detail = "proof bytes tampered";
        }
      } else if (proof.error().code == ErrorCode::kMissing) {
        // Legacy certificate: the server degraded. Prefer the server's
        // recorded cause; a plain kNoProof means the cert predates a
        // recovery (stale but acceptable).
        result.outcome = ScenarioOutcome::kDegraded;
        result.reason = manager.degrade_reason_kind() != DowngradeReason::kNone
                            ? manager.degrade_reason_kind()
                            : DowngradeReason::kNoProof;
        result.detail = manager.degrade_reason();
      } else {
        result.outcome = ScenarioOutcome::kDegraded;
        result.reason = DowngradeReason::kBadProofEncoding;
        result.detail = proof.error().ToString();
      }
    }
  }

  if (options.real_proof_check && result.outcome == ScenarioOutcome::kProved &&
      RealProofEligible(spec)) {
    if (!RealProofSpotCheck(spec, &dns, domain, &ca, clock.NowMs() / 1000)) {
      // Demotion trips the healthy-class invariant below: a placeholder
      // "proved" that the real circuit cannot back is a runner bug.
      result.outcome = ScenarioOutcome::kRejected;
      result.detail = "real-proof spot check failed";
    }
  }

  CheckInvariants(spec, result);
  return result;
}

void OutcomeMatrix::Record(const ScenarioSpec& spec,
                           const ScenarioResult& result) {
  ++scenarios;
  ++counts[static_cast<int>(spec.cls)][static_cast<int>(result.outcome)];
  if (result.outcome == ScenarioOutcome::kDegraded) {
    ++reasons[static_cast<int>(result.reason)];
  }
}

std::string OutcomeMatrix::Canonical() const {
  std::string out = "sweep_seed=" + std::to_string(sweep_seed) +
                    " scenarios=" + std::to_string(scenarios) + "\n";
  for (int c = 0; c < kNumScenarioClasses; ++c) {
    out += "class=";
    out += ScenarioClassName(static_cast<ScenarioClass>(c));
    for (int o = 0; o < kNumScenarioOutcomes; ++o) {
      out += ' ';
      out += ScenarioOutcomeName(static_cast<ScenarioOutcome>(o));
      out += '=';
      out += std::to_string(counts[c][o]);
    }
    out += '\n';
  }
  for (int r = 0; r < kNumDowngradeReasons; ++r) {
    out += "reason=";
    out += DowngradeReasonName(static_cast<DowngradeReason>(r));
    out += " count=" + std::to_string(reasons[r]) + "\n";
  }
  return out;
}

uint64_t OutcomeMatrix::Digest() const {
  // FNV-1a 64 over the canonical rendering.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : Canonical()) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

OutcomeMatrix RunSweep(uint64_t sweep_seed, size_t count) {
  return RunSweep(sweep_seed, count, RunnerOptions{});
}

OutcomeMatrix RunSweep(uint64_t sweep_seed, size_t count,
                       const RunnerOptions& options) {
  OutcomeMatrix matrix;
  matrix.sweep_seed = sweep_seed;
  for (size_t i = 0; i < count; ++i) {
    ScenarioSpec spec = GenerateScenario(sweep_seed, i);
    ScenarioResult result = RunScenario(spec, options);
    matrix.Record(spec, result);
  }
  return matrix;
}

}  // namespace nope
