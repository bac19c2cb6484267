// Tests for the scenario zoo (src/scenario): generator determinism and
// shape bounds, per-class outcome invariants, the downgrade-reason taxonomy,
// sweep replayability, and minimized regressions for crashes the sweep
// originally uncovered in the degradation paths.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/downgrade.h"
#include "src/dns/flaky_resolver.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"

namespace nope {
namespace {

constexpr uint64_t kSweepSeed = 6;

// ---------------------------------------------------------------------------
// Generator

TEST(ScenarioGenerator, PureFunctionOfSeedAndIndex) {
  for (uint64_t i = 0; i < 40; ++i) {
    ScenarioSpec a = GenerateScenario(kSweepSeed, i);
    ScenarioSpec b = GenerateScenario(kSweepSeed, i);
    EXPECT_EQ(a.Describe(), b.Describe());
    EXPECT_EQ(a.seed, b.seed);
  }
  // A different sweep seed reshapes the zoo (same class schedule, different
  // topologies): at least one of the first 13 scenarios must differ.
  bool differs = false;
  for (uint64_t i = 0; i < static_cast<uint64_t>(kNumScenarioClasses); ++i) {
    if (GenerateScenario(kSweepSeed, i).Describe() !=
        GenerateScenario(kSweepSeed + 1, i).Describe()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(ScenarioGenerator, RoundRobinCoversEveryClass) {
  std::set<ScenarioClass> seen;
  for (uint64_t i = 0; i < static_cast<uint64_t>(kNumScenarioClasses); ++i) {
    seen.insert(GenerateScenario(kSweepSeed, i).cls);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kNumScenarioClasses));
}

TEST(ScenarioGenerator, ShapeBoundsHoldAcrossManyScenarios) {
  for (uint64_t i = 0; i < 260; ++i) {
    ScenarioSpec spec = GenerateScenario(kSweepSeed, i);
    SCOPED_TRACE(spec.Describe());
    ASSERT_GE(spec.zones.size(), 1u);
    ASSERT_LE(spec.zones.size(), 6u);
    switch (spec.cls) {
      case ScenarioClass::kDeepDelegation:
        EXPECT_GE(spec.zones.size(), 4u);
        break;
      case ScenarioClass::kUnsignedLeaf:
        EXPECT_FALSE(spec.zones.back().is_signed);
        break;
      case ScenarioClass::kUnsignedParent: {
        // The island boundary must sit strictly above the leaf.
        ASSERT_GE(spec.zones.size(), 2u);
        bool ancestor_unsigned = false;
        for (size_t z = 0; z + 1 < spec.zones.size(); ++z) {
          ancestor_unsigned |= !spec.zones[z].is_signed;
        }
        EXPECT_TRUE(ancestor_unsigned);
        EXPECT_TRUE(spec.zones.back().is_signed);
        break;
      }
      case ScenarioClass::kZskRollover:
        // A leaf ZSK signs nothing in the chain of trust, so the generator
        // must rotate a strict ancestor for the rollover to be observable.
        ASSERT_GE(spec.zones.size(), 2u);
        EXPECT_LT(spec.rollover_zone, spec.zones.size() - 1);
        EXPECT_EQ(spec.rollover, RolloverKind::kZsk);
        break;
      case ScenarioClass::kKskRollover:
        EXPECT_LT(spec.rollover_zone, spec.zones.size());
        EXPECT_EQ(spec.rollover, RolloverKind::kKsk);
        break;
      case ScenarioClass::kExpiredRrsig:
        // Lapsed before the simulation epoch, but still a well-formed window.
        EXPECT_LT(spec.rrsig_expiration, 1'750'000'000u);
        EXPECT_LE(spec.rrsig_inception, spec.rrsig_expiration);
        break;
      case ScenarioClass::kSkewWithinTolerance:
        EXPECT_GT(spec.skew_tolerance_s, 0u);
        break;
      case ScenarioClass::kFlakyDependencies:
        EXPECT_GT(spec.dns_fault_rate, 0.0);
        EXPECT_GT(spec.ca_fault_rate, 0.0);
        break;
      default:
        break;
    }
    // The toy suite's 192-byte signing bound: labels stay short.
    for (const ZoneSpec& zone : spec.zones) {
      EXPECT_LE(zone.label.size(), 2u);
    }
  }
}

// ---------------------------------------------------------------------------
// Runner outcomes (one representative per class; RunScenario itself aborts
// via NOPE_INVARIANT on any per-class violation, so merely completing a
// scenario is already an assertion).

ScenarioSpec FirstOfClass(ScenarioClass cls) {
  for (uint64_t i = 0;; ++i) {
    ScenarioSpec spec = GenerateScenario(kSweepSeed, i);
    if (spec.cls == cls) {
      return spec;
    }
  }
}

TEST(ScenarioRunner, HealthyClassesProve) {
  for (ScenarioClass cls :
       {ScenarioClass::kHealthyEcdsa, ScenarioClass::kHealthyMixed,
        ScenarioClass::kDeepDelegation, ScenarioClass::kSkewWithinTolerance}) {
    ScenarioSpec spec = FirstOfClass(cls);
    SCOPED_TRACE(spec.Describe());
    ScenarioResult result = RunScenario(spec);
    EXPECT_EQ(result.outcome, ScenarioOutcome::kProved);
    EXPECT_EQ(result.reason, DowngradeReason::kNone);
  }
}

TEST(ScenarioRunner, RealProofSpotCheckBacksPlaceholderOutcome) {
  // ISSUE 7: the runner's placeholder "proved" classification, spot-checked
  // with a REAL Groth16 deployment (trusted setup per scenario, so the
  // client verifies against that deployment's own prepared key). The spec's
  // class invariant (healthy must prove) still holds under the spot-check,
  // so a real-circuit divergence from the placeholder outcome would abort.
  ScenarioSpec spec = FirstOfClass(ScenarioClass::kHealthyEcdsa);
  SCOPED_TRACE(spec.Describe());
  RunnerOptions options;
  options.real_proof_check = true;
  ScenarioResult result = RunScenario(spec, options);
  EXPECT_EQ(result.outcome, ScenarioOutcome::kProved);

  // Default options reproduce the historical classification for the same
  // spec (the sweep digest contract).
  ScenarioResult plain = RunScenario(spec);
  EXPECT_EQ(plain.outcome, result.outcome);
  EXPECT_EQ(plain.reason, result.reason);
}

TEST(ScenarioRunner, UnsignedZonesDegradeWithDistinctReasons) {
  ScenarioResult leaf = RunScenario(FirstOfClass(ScenarioClass::kUnsignedLeaf));
  EXPECT_EQ(leaf.outcome, ScenarioOutcome::kDegraded);
  EXPECT_EQ(leaf.reason, DowngradeReason::kUnsignedZone);

  ScenarioResult parent =
      RunScenario(FirstOfClass(ScenarioClass::kUnsignedParent));
  EXPECT_EQ(parent.outcome, ScenarioOutcome::kDegraded);
  EXPECT_EQ(parent.reason, DowngradeReason::kUnsignedDelegation);
}

TEST(ScenarioRunner, TemporalFailuresDegradeWithWindowReasons) {
  ScenarioResult expired =
      RunScenario(FirstOfClass(ScenarioClass::kExpiredRrsig));
  EXPECT_EQ(expired.outcome, ScenarioOutcome::kDegraded);
  EXPECT_EQ(expired.reason, DowngradeReason::kRrsigExpired);

  ScenarioResult future =
      RunScenario(FirstOfClass(ScenarioClass::kNotYetValidRrsig));
  EXPECT_EQ(future.outcome, ScenarioOutcome::kDegraded);
  EXPECT_EQ(future.reason, DowngradeReason::kRrsigNotYetValid);
}

TEST(ScenarioRunner, CaOutageRejectsWithNoCertificates) {
  ScenarioResult result = RunScenario(FirstOfClass(ScenarioClass::kCaOutage));
  EXPECT_EQ(result.outcome, ScenarioOutcome::kRejected);
  EXPECT_EQ(result.stats.nope_issued, 0u);
  EXPECT_EQ(result.stats.legacy_issued, 0u);
}

TEST(ScenarioRunner, MauledProofNeverProves) {
  ScenarioResult result =
      RunScenario(FirstOfClass(ScenarioClass::kMauledProof));
  EXPECT_EQ(result.outcome, ScenarioOutcome::kRejected);
}

TEST(ScenarioRunner, RolloverOutcomeTracksHealing) {
  // Scan enough indices to see both the healed and the stuck variant of each
  // rollover kind (the heal coin is per-scenario randomness).
  bool saw_healed = false;
  bool saw_stuck = false;
  for (uint64_t i = 0; i < 120 && !(saw_healed && saw_stuck); ++i) {
    ScenarioSpec spec = GenerateScenario(kSweepSeed, i);
    if (spec.rollover == RolloverKind::kNone) {
      continue;
    }
    SCOPED_TRACE(spec.Describe());
    ScenarioResult result = RunScenario(spec);
    if (spec.rollover_heals) {
      saw_healed = true;
      EXPECT_EQ(result.outcome, ScenarioOutcome::kProved);
      EXPECT_GE(result.stats.recoveries, 1u);
    } else {
      saw_stuck = true;
      EXPECT_EQ(result.outcome, ScenarioOutcome::kDegraded);
      EXPECT_EQ(result.reason, DowngradeReason::kChainBogus);
    }
  }
  EXPECT_TRUE(saw_healed);
  EXPECT_TRUE(saw_stuck);
}

// ---------------------------------------------------------------------------
// Sweep replayability

TEST(ScenarioSweep, SmokeSweepIsDeterministic) {
  OutcomeMatrix first = RunSweep(kSweepSeed, 52);
  OutcomeMatrix second = RunSweep(kSweepSeed, 52);
  EXPECT_EQ(first.Canonical(), second.Canonical());
  EXPECT_EQ(first.Digest(), second.Digest());
  EXPECT_EQ(first.scenarios, 52u);

  // Every scenario lands in exactly one outcome cell.
  size_t total = 0;
  for (int c = 0; c < kNumScenarioClasses; ++c) {
    for (int o = 0; o < kNumScenarioOutcomes; ++o) {
      total += first.counts[c][o];
    }
  }
  EXPECT_EQ(total, first.scenarios);

  // A different sweep seed produces a different matrix digest (the matrix
  // embeds the seed, so this holds even for identical outcome counts).
  EXPECT_NE(first.Digest(), RunSweep(kSweepSeed + 1, 52).Digest());
}

// ---------------------------------------------------------------------------
// Downgrade-reason taxonomy (every generator-triggerable reason has a stable
// name and a classification path).

TEST(DowngradeTaxonomy, NamesAreStableAndUnique) {
  std::set<std::string> names;
  for (int r = 0; r < kNumDowngradeReasons; ++r) {
    std::string name = DowngradeReasonName(static_cast<DowngradeReason>(r));
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
}

TEST(DowngradeTaxonomy, ClassifyMapsEveryProofPathError) {
  // The kInsecure split keys off TryBuildChain's context markers, which
  // arrive wrapped in retry context ("resolve: retries exhausted; last:
  // ...") — classification must survive the wrapping.
  EXPECT_EQ(ClassifyDowngrade(Error(
                ErrorCode::kInsecure,
                "resolve: retries exhausted; last: insecure: unsigned zone "
                "(no DNSSEC): a.b.")),
            DowngradeReason::kUnsignedZone);
  EXPECT_EQ(ClassifyDowngrade(Error(ErrorCode::kInsecure,
                                    "resolve: retries exhausted; last: "
                                    "insecure: unsigned delegation (island "
                                    "of security) at b.")),
            DowngradeReason::kUnsignedDelegation);
  EXPECT_EQ(
      ClassifyDowngrade(Error(ErrorCode::kOutOfRange, "leaf DS: RRSIG expired")),
      DowngradeReason::kRrsigExpired);
  EXPECT_EQ(ClassifyDowngrade(
                Error(ErrorCode::kOutOfRange,
                      "leaf DS: RRSIG inception is in the future (clock skew?)")),
            DowngradeReason::kRrsigNotYetValid);
  EXPECT_EQ(ClassifyDowngrade(Error(ErrorCode::kBadChecksum, "DS digest")),
            DowngradeReason::kChainBogus);
  EXPECT_EQ(ClassifyDowngrade(Error(ErrorCode::kBadSignature, "RRSIG")),
            DowngradeReason::kChainBogus);
  EXPECT_EQ(ClassifyDowngrade(Error(ErrorCode::kUnavailable, "SERVFAIL")),
            DowngradeReason::kDependencyUnavailable);
  EXPECT_EQ(ClassifyDowngrade(Error(ErrorCode::kTimedOut, "resolver")),
            DowngradeReason::kDependencyTimeout);
  EXPECT_EQ(ClassifyDowngrade(Error(ErrorCode::kCancelled, "attempt budget")),
            DowngradeReason::kProofDeadlineExceeded);
}

TEST(DowngradeTaxonomy, SweepRecordsEveryDnssecShapedReason) {
  // One full round of classes must populate the four deterministic DNSSEC
  // buckets plus chain_bogus (a stuck rollover exists among the first
  // several rounds for this seed).
  OutcomeMatrix matrix = RunSweep(kSweepSeed, 52);
  EXPECT_GE(matrix.reasons[static_cast<int>(DowngradeReason::kUnsignedZone)],
            1u);
  EXPECT_GE(
      matrix.reasons[static_cast<int>(DowngradeReason::kUnsignedDelegation)],
      1u);
  EXPECT_GE(matrix.reasons[static_cast<int>(DowngradeReason::kRrsigExpired)],
            1u);
  EXPECT_GE(
      matrix.reasons[static_cast<int>(DowngradeReason::kRrsigNotYetValid)], 1u);
  EXPECT_GE(matrix.reasons[static_cast<int>(DowngradeReason::kChainBogus)], 1u);
}

// ---------------------------------------------------------------------------
// Minimized regressions for crashes the sweep uncovered.

// The sweep's unsigned-zone scenarios originally aborted: FlakyResolver
// called the throwing DnssecHierarchy::BuildChain, which throws
// std::invalid_argument for any chain crossing an unsigned zone. The
// degradation path needs a typed error instead.
TEST(SweepRegression, UnsignedZoneResolvesToTypedErrorNotThrow) {
  const CryptoSuite& suite = CryptoSuite::Toy();
  DnssecHierarchy dns(suite, /*seed=*/1);
  DnsName tld = DnsName::Root().Child("ac");
  dns.AddZone(tld);
  ZoneConfig unsigned_cfg;
  unsigned_cfg.is_signed = false;
  DnsName leaf = tld.Child("bd");
  dns.AddZone(leaf, unsigned_cfg);

  SimClock clock(1'750'000'000'000ull);
  FlakyResolver resolver(&dns, &clock, /*seed=*/2, /*fault_rate=*/0.0);
  Result<ChainOfTrust> chain = resolver.BuildChain(leaf);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.error().code, ErrorCode::kInsecure);
  EXPECT_NE(chain.error().context.find("unsigned zone"), std::string::npos);

  // Island of security: the unsigned zone is an ancestor of a signed leaf.
  DnsName island_leaf = leaf.Child("ce");
  dns.AddZone(island_leaf);
  Result<ChainOfTrust> island = resolver.BuildChain(island_leaf);
  ASSERT_FALSE(island.ok());
  EXPECT_EQ(island.error().code, ErrorCode::kInsecure);
  EXPECT_NE(island.error().context.find("unsigned delegation"),
            std::string::npos);
}

// Oversized signing buffers (deep names near the DNS length limits) used to
// surface as a std::length_error from Zone::Sign mid-chain-construction;
// TryBuildChain must return kBadLength instead so generated topologies can
// never throw through the degradation path.
TEST(SweepRegression, OversizedSigningBufferIsTypedError) {
  const CryptoSuite& suite = CryptoSuite::Toy();  // max_signing_buffer = 192
  DnssecHierarchy dns(suite, /*seed=*/3);
  DnsName name = DnsName::Root();
  for (int i = 0; i < 3; ++i) {
    name = name.Child(std::string(63, static_cast<char>('a' + i)));
    dns.AddZone(name);
  }
  Result<ChainOfTrust> chain = dns.TryBuildChain(name);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.error().code, ErrorCode::kBadLength);
  EXPECT_THROW(dns.BuildChain(name), std::invalid_argument);
}

TEST(SweepRegression, NonZoneDomainIsMissingNotThrow) {
  const CryptoSuite& suite = CryptoSuite::Toy();
  DnssecHierarchy dns(suite, /*seed=*/4);
  Result<ChainOfTrust> chain =
      dns.TryBuildChain(DnsName::Root().Child("zz").Child("yy"));
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.error().code, ErrorCode::kMissing);
}

}  // namespace
}  // namespace nope
