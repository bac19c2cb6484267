// Fleet-scale renewal sweep: the capacity-planning numbers for one
// operator proving for an entire fleet. Two parts:
//
//   1. Headline: 10^6 domains (override with --domains=N), 30 simulated
//      days, 1x offered proving load, default burst schedule — the
//      "week of fleet time in seconds" determinism-at-scale demonstration,
//      reporting simulated-vs-wall speedup and the event digest.
//   2. Sweep: offered load {0.5, 1, 2, 4}x prover capacity crossed with
//      burst intensity {off, light, heavy} at 10^5 domains, reporting
//      issuance mix, shed/degrade counts, and expiry misses per cell — the
//      EXPERIMENTS.md capacity-planning table.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/fleet/fleet_sim.h"

using namespace nope;

namespace {

struct Cell {
  const char* burst_tag;
  double bursts_per_day;
  double brownout;
};

FleetReport RunOnce(size_t domains, double load, const Cell& cell,
                    double* wall_s) {
  FleetConfig config;
  config.domains = domains;
  config.load_factor = load;
  config.seed = 42;
  config.bursts.bursts_per_day = cell.bursts_per_day;
  config.bursts.brownout_cost_multiplier = cell.brownout;
  bench::Timer timer;
  FleetReport report = FleetSimulator(config).Run();
  *wall_s = timer.Seconds();
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  size_t headline_domains = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--domains=", 10) == 0) {
      headline_domains = static_cast<size_t>(std::atoll(argv[i] + 10));
    }
  }

  const Cell kLight = {"light", 0.5, 3.0};

  printf("=== Fleet headline: %zu domains, 30 days, 1x load, light bursts ===\n",
         headline_domains);
  double wall_s = 0;
  FleetReport headline = RunOnce(headline_domains, 1.0, kLight, &wall_s);
  double sim_days = 30.0;
  printf("%s\n", headline.SummaryJson().c_str());
  printf("wall %.2fs for %.0f simulated days (%.0fx speedup), digest %llu\n\n",
         wall_s, sim_days, sim_days * 86400.0 / wall_s,
         static_cast<unsigned long long>(headline.event_digest));
  const bench::Emitter emit("fleet");
  emit("headline_domains", headline_domains);
  emit("headline_wall_s", wall_s);
  emit("headline_sim_speedup", sim_days * 86400.0 / wall_s);
  emit("headline_nope_issued", headline.stats.nope_issued);
  emit("headline_cert_misses", headline.stats.cert_misses);
  emit("headline_events", headline.event_count);

  const Cell cells[] = {{"off", 0.0, 1.0}, kLight, {"heavy", 2.0, 4.0}};
  const double loads[] = {0.5, 1.0, 2.0, 4.0};
  const size_t kSweepDomains = 100'000;

  printf("=== Load x burst sweep: %zu domains, 30 days ===\n", kSweepDomains);
  printf("%-6s %-6s %10s %10s %10s %10s %10s %10s\n", "load", "burst", "nope",
         "legacy", "shed", "degraded", "misses", "rej_full");
  for (double load : loads) {
    for (const Cell& cell : cells) {
      FleetReport r = RunOnce(kSweepDomains, load, cell, &wall_s);
      printf("%-6.1f %-6s %10llu %10llu %10llu %10llu %10llu %10llu\n", load,
             cell.burst_tag,
             static_cast<unsigned long long>(r.stats.nope_issued),
             static_cast<unsigned long long>(r.stats.legacy_issued),
             static_cast<unsigned long long>(r.stats.jobs_shed),
             static_cast<unsigned long long>(r.stats.degradations),
             static_cast<unsigned long long>(r.stats.cert_misses),
             static_cast<unsigned long long>(r.stats.submit_rejected_queue_full));
      std::string tag = "load" + std::to_string(static_cast<int>(load * 100)) +
                        "_" + cell.burst_tag;
      emit("nope_issued_" + tag, r.stats.nope_issued);
      emit("legacy_issued_" + tag, r.stats.legacy_issued);
      emit("jobs_shed_" + tag, r.stats.jobs_shed);
      emit("degradations_" + tag, r.stats.degradations);
      emit("cert_misses_" + tag, r.stats.cert_misses);
    }
  }
  return 0;
}
