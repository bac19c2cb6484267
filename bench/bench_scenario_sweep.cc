// Scenario-zoo sweep: generates and runs a fleet of seeded
// DNSSEC/PKI topology scenarios through issuance + renewal + client
// verification and emits the class x outcome coverage matrix, the
// downgrade-reason histogram, and the matrix digest.
//
// The digest is the replayability contract: the same --seed and --scenarios
// must print the same digest on every run and for every NOPE_THREADS value
// (no real prover runs here, and each scenario's world is rebuilt from its
// own derived seed). Replay a single scenario with
// tests/scenario_test --gtest_filter=... or a small --scenarios window at
// the same seed; EXPERIMENTS.md has the recipe.
//
// Usage: bench_scenario_sweep [--scenarios=N] [--seed=S]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/scenario/runner.h"

using namespace nope;

int main(int argc, char** argv) {
  size_t scenarios = 1000;
  uint64_t seed = 6;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scenarios=", 12) == 0) {
      scenarios = static_cast<size_t>(std::strtoull(argv[i] + 12, nullptr, 10));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("=== Scenario zoo sweep ===\n");
  std::printf("%zu seeded scenarios (sweep seed %" PRIu64
              "), 30 simulated days each\n\n",
              scenarios, seed);

  OutcomeMatrix matrix = RunSweep(seed, scenarios);

  std::printf("%-22s %8s %9s %9s\n", "class", "proved", "degraded", "rejected");
  for (int c = 0; c < kNumScenarioClasses; ++c) {
    std::printf("%-22s %8zu %9zu %9zu\n",
                ScenarioClassName(static_cast<ScenarioClass>(c)),
                matrix.counts[c][0], matrix.counts[c][1], matrix.counts[c][2]);
  }
  std::printf("\ndowngrade reasons:\n");
  for (int r = 0; r < kNumDowngradeReasons; ++r) {
    if (matrix.reasons[r] > 0) {
      std::printf("  %-24s %zu\n",
                  DowngradeReasonName(static_cast<DowngradeReason>(r)),
                  matrix.reasons[r]);
    }
  }
  uint64_t digest = matrix.Digest();
  std::printf("\nmatrix digest: %016" PRIx64 "\n", digest);

  const bench::Emitter emit("scenario_sweep");
  size_t totals[kNumScenarioOutcomes] = {};
  for (int c = 0; c < kNumScenarioClasses; ++c) {
    for (int o = 0; o < kNumScenarioOutcomes; ++o) {
      totals[o] += matrix.counts[c][o];
    }
  }
  for (int o = 0; o < kNumScenarioOutcomes; ++o) {
    emit(ScenarioOutcomeName(static_cast<ScenarioOutcome>(o)), totals[o]);
  }
  for (int r = 0; r < kNumDowngradeReasons; ++r) {
    if (matrix.reasons[r] > 0) {
      emit(std::string("reason_") + DowngradeReasonName(static_cast<DowngradeReason>(r)),
           matrix.reasons[r]);
    }
  }
  // The 64-bit digest split into halves that a JSON double holds exactly.
  emit("digest_hi", digest >> 32);
  emit("digest_lo", digest & 0xffffffffull);
  return 0;
}
