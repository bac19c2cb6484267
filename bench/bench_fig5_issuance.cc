// Regenerates Figure 5: the NOPE issuance timeline (proof generation, ACME
// initiation, DNS propagation, ACME verification) versus plain ACME.
// Proof generation is measured (demo profile) and also model-extrapolated to
// the paper-scale statement; network legs use the paper's observed values
// (Certbot's 30 s propagation default, §8.2).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/threadpool.h"

using namespace nope;

int main() {
  bench::IssuanceWorld world(9001, 9002);

  // Proof generation threads=1 vs threads=N: same deployment, same proof
  // bytes (see parallel_determinism_test), different wall clock.
  ThreadPool::SetGlobalThreads(1);
  auto with_nope_t1 = world.Issue(/*with_nope=*/true);
  ThreadPool::SetGlobalThreads(0);
  auto with_nope = world.Issue(/*with_nope=*/true);
  auto plain = world.Issue(/*with_nope=*/false);
  // Fault-injected variant: the CA's first TXT poll races ahead of challenge
  // propagation, costing one extra 30 s propagation round.
  auto with_retry = world.Issue(/*with_nope=*/true, /*dns_retries=*/1);
  if (!with_nope_t1 || !with_nope || !plain || !with_retry) {
    fprintf(stderr, "issuance failed\n");
    return 1;
  }

  auto bar = [](const char* label, double seconds, double total) {
    int width = static_cast<int>(60.0 * seconds / total + 0.5);
    printf("  %-24s %7.2f s  |", label, seconds);
    for (int i = 0; i < width; ++i) {
      printf("#");
    }
    printf("\n");
  };

  printf("=== Figure 5: issuance timeline ===\n\n");
  const IssuanceTimeline& t = with_nope->timeline;
  printf("NOPE issuance (total %.2f s; proof measured at demo profile):\n", t.total());
  bar("NOPE proof generation", t.proof_generation_s, t.total());
  bar("ACME initiation", t.acme_initiation_s, t.total());
  bar("DNS propagation", t.dns_propagation_s, t.total());
  bar("ACME verification", t.acme_verification_s, t.total());

  const IssuanceTimeline& p = plain->timeline;
  printf("\nPlain ACME (total %.2f s):\n", p.total());
  bar("ACME initiation", p.acme_initiation_s, t.total());
  bar("DNS propagation", p.dns_propagation_s, t.total());
  bar("ACME verification", p.acme_verification_s, t.total());

  const IssuanceTimeline& r = with_retry->timeline;
  printf("\nNOPE issuance with 1 injected DNS-propagation retry (total %.2f s):\n",
         r.total());
  bar("NOPE proof generation", r.proof_generation_s, r.total());
  bar("ACME initiation", r.acme_initiation_s, r.total());
  bar("DNS propagation", r.dns_propagation_s, r.total());
  bar("ACME verification", r.acme_verification_s, r.total());
  printf("  (%zu retry round(s); +%.1f s over the clean run's network legs)\n",
         r.dns_retries, r.dns_propagation_s - t.dns_propagation_s);

  // Paper-scale extrapolation: the paper reports 35-55 s of proving for its
  // 1.13M-constraint statement on one thread; our Fig. 6 bench fits the
  // m*log(m) model that maps our measured demo-profile point to that scale.
  printf("\nPaper-scale note: the paper measures 35-55 s of single-threaded proof\n");
  printf("generation (1.13M constraints) vs. our %.1f s at the demo profile;\n",
         t.proof_generation_s);
  printf("run bench_fig6_ablation for the constraint counts and the fitted model.\n");
  printf("\nShape check: NOPE issuance is ~%.1fx plain ACME (paper: ~3x), with the\n",
         t.total() / p.total());
  printf("extra latency paid once per TLS key (~4x/year), off the critical path.\n");

  size_t threads = ThreadPool::DefaultThreadCount();
  printf("\nParallel proving: %.2f s at 1 thread vs %.2f s at %zu thread(s) "
         "(%.2fx)\n",
         with_nope_t1->timeline.proof_generation_s, t.proof_generation_s,
         threads, with_nope_t1->timeline.proof_generation_s / t.proof_generation_s);

  const bench::Emitter emit("fig5_issuance");
  emit("proof_generation_s_threads1", with_nope_t1->timeline.proof_generation_s);
  emit("proof_generation_s_threadsN", t.proof_generation_s);
  emit("proof_speedup", with_nope_t1->timeline.proof_generation_s / t.proof_generation_s);
  emit("threads_n", threads);
  emit("nope_total_s", t.total());
  emit("plain_total_s", p.total());
  emit("nope_total_with_dns_retry_s", r.total());
  emit("dns_retry_rounds", r.dns_retries);
  emit("dns_propagation_with_retry_s", r.dns_propagation_s);
  return 0;
}
