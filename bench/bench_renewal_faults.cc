// Renewal-under-faults sweep: issuance latency percentiles and
// lifecycle outcomes at DNS/CA fault rates of 0%, 10%, and 30%, measured over
// many independent simulated issuance attempts under SimClock. "Latency" is
// simulated wall-clock per successful issuance cycle (resolve + prove + ACME
// plus any retries/backoff), so the sweep shows how the retry policy turns
// per-call fault probability into tail latency rather than failure.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/core/renewal.h"

using namespace nope;

namespace {

constexpr uint64_t kStartMs = 1'750'000'000'000ull;

struct SweepResult {
  bench::Samples latencies_s;  // successful cycles only
  size_t nope_issued = 0;
  size_t legacy_issued = 0;
  size_t failures = 0;
  size_t stage_faults = 0;
};

SweepResult RunSweep(double fault_rate, size_t attempts, uint64_t seed) {
  SweepResult out;
  for (size_t i = 0; i < attempts; ++i) {
    // Independent worlds per attempt so one attempt's burned time and fault
    // stream never leak into the next sample.
    uint64_t world_seed = seed + i * 1000;
    SimClock clock(kStartMs);
    Rng rng(world_seed);
    CtLog log1(1, &rng), log2(2, &rng);
    CertificateAuthority ca("lets-encrypt-sim", {&log1, &log2}, &rng);
    DnssecHierarchy dns(CryptoSuite::Toy(), world_seed + 1);
    dns.AddZone(DnsName::FromString("org"));
    DnsName domain = DnsName::FromString("example.org");
    dns.AddZone(domain);
    Bytes tls_key = GenerateEcdsaKey(&rng).pub.Encode();

    FlakyResolver resolver(&dns, &clock, world_seed + 2, fault_rate);
    FlakyCa flaky_ca(&ca, &clock, world_seed + 3, fault_rate / 2);
    SimulatedPipeline pipeline(&resolver, &flaky_ca, &clock, domain, tls_key, {});

    RenewalConfig config;
    config.retry.initial_delay_ms = 500;
    config.retry.max_delay_ms = 10'000;
    config.retry.max_attempts = 5;
    config.attempt_budget_ms = 10ull * 60 * 1000;
    config.degrade_after = 3;
    RenewalManager manager(config, &clock, &pipeline, world_seed + 4);

    uint64_t before = clock.NowMs();
    bool issued = manager.RunOneCycle();
    if (issued) {
      out.latencies_s.Add(static_cast<double>(clock.NowMs() - before) / 1000.0);
    } else {
      ++out.failures;
    }
    out.nope_issued += manager.stats().nope_issued;
    out.legacy_issued += manager.stats().legacy_issued;
    out.stage_faults += manager.stats().stage_faults;
  }
  return out;
}

}  // namespace

int main() {
  constexpr size_t kAttempts = 200;
  const double rates[] = {0.0, 0.1, 0.3};

  printf("=== Renewal issuance under injected faults ===\n");
  printf("%zu independent simulated issuance cycles per fault rate; latency is\n",
         kAttempts);
  printf("simulated seconds per successful cycle (resolve + prove + ACME + retries)\n\n");
  printf("%-12s %10s %10s %10s %8s %8s %8s\n", "fault_rate", "p50_s", "p95_s",
         "max_s", "nope", "legacy", "failed");

  const bench::Emitter emit("renewal_faults");

  for (double rate : rates) {
    SweepResult result = RunSweep(rate, kAttempts, /*seed=*/42);
    double p50 = result.latencies_s.Percentile(0.50);
    double p95 = result.latencies_s.Percentile(0.95);
    double max = result.latencies_s.Max();
    printf("%-12.2f %10.1f %10.1f %10.1f %8zu %8zu %8zu\n", rate, p50, p95, max,
           result.nope_issued, result.legacy_issued, result.failures);

    std::string tag = "rate" + std::to_string(static_cast<int>(rate * 100));
    emit("issuance_p50_s_" + tag, p50);
    emit("issuance_p95_s_" + tag, p95);
    emit("issued_nope_" + tag, result.nope_issued);
    emit("issued_legacy_" + tag, result.legacy_issued);
    emit("failed_cycles_" + tag, result.failures);
    emit("stage_faults_" + tag, result.stage_faults);
  }
  return 0;
}
