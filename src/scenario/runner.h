// Drives one generated scenario through the full lifecycle — issuance,
// renewal under SimClock, client-side verification — and classifies the
// outcome as proved / degraded-with-reason / rejected, asserting the
// per-scenario-class invariants (NOPE_INVARIANT: a violation aborts, which
// the ASan/UBSan sweep stage treats as a crash).
//
// The world is rebuilt per scenario (own DnssecHierarchy, CA, CT log,
// SimClock, FlakyResolver/FlakyCa, optional ProvingService), so a scenario
// replays from (sweep_seed, index) alone and scenarios cannot contaminate
// each other. Proving burns simulated time (SimulatedPipeline's model, or a
// MakeSimulatedStatement job through a ProvingService for seed-chosen
// scenarios); real Groth16 coverage of non-happy-path chains lives in
// tests/end_to_end_test.cc, where one proof is affordable.
#ifndef SRC_SCENARIO_RUNNER_H_
#define SRC_SCENARIO_RUNNER_H_

#include <string>

#include "src/core/downgrade.h"
#include "src/core/renewal.h"
#include "src/scenario/scenario.h"

namespace nope {

struct ScenarioResult {
  ScenarioOutcome outcome = ScenarioOutcome::kRejected;
  // Non-kNone exactly when outcome == kDegraded (the recorded reason).
  DowngradeReason reason = DowngradeReason::kNone;
  RenewalStats stats;
  std::string detail;  // human-readable classification note
};

// Optional extras for a run. The defaults reproduce the historical
// behavior byte for byte (the sweep digest contract depends on that).
struct RunnerOptions {
  // Spot-check a kProved outcome with a REAL Groth16 deployment: for
  // scenario classes whose chains the circuit supports (all-ECDSA, fully
  // signed — kHealthyEcdsa and kDeepDelegation), run trusted setup +
  // issuance + NopeClientVerify against the scenario's own hierarchy and
  // demote the outcome to kRejected if the real verification fails (which
  // then trips the healthy-class invariant). Expensive — a full setup and
  // proof per scenario — so it is opt-in for targeted tests, never the
  // sweep default.
  bool real_proof_check = false;
};

// Runs the scenario end to end (30 simulated days) and checks its class
// invariants. Deterministic: byte-identical results for the same spec
// (and, with default options, byte-identical to the historical runner).
ScenarioResult RunScenario(const ScenarioSpec& spec);
ScenarioResult RunScenario(const ScenarioSpec& spec, const RunnerOptions& options);

// Coverage/outcome matrix accumulated over a sweep. Canonical() is a
// fixed-format text rendering (every class x outcome cell and every reason
// bucket, including zeros) and Digest() an FNV-1a 64 over it, so two sweeps
// agree iff their digests agree — the replayability contract the bench
// records into BENCH_results.json.
struct OutcomeMatrix {
  uint64_t sweep_seed = 0;
  size_t scenarios = 0;
  size_t counts[kNumScenarioClasses][kNumScenarioOutcomes] = {};
  size_t reasons[kNumDowngradeReasons] = {};

  void Record(const ScenarioSpec& spec, const ScenarioResult& result);
  std::string Canonical() const;
  uint64_t Digest() const;
};

// Generates and runs `count` scenarios for `sweep_seed`.
OutcomeMatrix RunSweep(uint64_t sweep_seed, size_t count);
OutcomeMatrix RunSweep(uint64_t sweep_seed, size_t count, const RunnerOptions& options);

}  // namespace nope

#endif  // SRC_SCENARIO_RUNNER_H_
