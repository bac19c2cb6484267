// Regenerates Figure 6: the effect of NOPE's techniques on the constraint
// count m and on proof-generation time/memory.
//
// Methodology mirrors the paper's (§8.3): constraint counts are exact (each
// circuit variant is built in count-only mode at the paper's parameters —
// second-level domain, ECDSA P-256 everywhere except the RSA-2048 root ZSK);
// time and memory at those sizes are estimates from a cost model fitted to
// real Groth16 runs at smaller sizes (the paper's italicized values are the
// same kind of estimate). The prover's FFTs and H query follow the
// evaluation domain, not m, so each row also prints its domain size n (the
// rung EvaluationDomain picks for m plus the public inputs) and the model
// runs on n.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench/bench_util.h"

using namespace nope;

namespace {

size_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

struct ModelPoint {
  size_t n;  // domain size
  double prove_seconds;
  size_t rss_kb;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  // --- Fit the n -> (time, memory) model from real Groth16 runs -------------
  printf("=== Figure 6: effect of NOPE's techniques (paper §8.3) ===\n\n");
  fprintf(stderr, "[model] fitting prover cost model from real Groth16 runs...\n");
  std::vector<ModelPoint> points;
  Rng rng(6001);
  // m + 2 public inputs lands on 4,608 (9 * 2^9), 18,432 (9 * 2^11) and
  // 65,536 (2^16) points.
  for (size_t m : {size_t{4096}, size_t{16384}, size_t{49152}}) {
    ConstraintSystem cs = bench::SyntheticCircuit(m);
    const size_t n = EvaluationDomain::SizeFor(cs.NumConstraints() + cs.NumPublic());
    groth16::ProvingKey pk;
    double setup_s = bench::TimeMs([&] { pk = groth16::Setup(cs, &rng); }) / 1000.0;
    double prove_s = bench::TimeMs([&] { bench::Keep(groth16::Prove(pk, cs, &rng)); }) / 1000.0;
    points.push_back({n, prove_s, PeakRssKb()});
    fprintf(stderr, "[model] m=%zu n=%zu setup=%.2fs prove=%.2fs rss=%zuMB\n", m, n, setup_s,
            prove_s, points.back().rss_kb / 1024);
  }
  // time ~= c_t * n * log2(n); memory ~= c_m * n (+ base).
  const ModelPoint& big = points.back();
  double c_time = big.prove_seconds / (big.n * std::log2(static_cast<double>(big.n)));
  double c_mem = static_cast<double>(points.back().rss_kb - points.front().rss_kb) /
                 (points.back().n - points.front().n);  // kB per domain point
  auto est_time = [&](size_t n) { return c_time * n * std::log2(static_cast<double>(n)); };
  auto est_mem_gb = [&](size_t n) { return c_mem * n / (1024.0 * 1024.0); };

  // --- Count each ablation row ------------------------------------------------
  struct Row {
    const char* label;
    StatementOptions options;
  };
  StatementOptions baseline = StatementOptions::Baseline();
  StatementOptions design = baseline;
  design.use_signature_of_knowledge = true;
  StatementOptions parsing = design;
  parsing.use_nope_parsing = true;
  StatementOptions crypto = parsing;
  crypto.use_nope_crypto = true;
  crypto.use_glv_msm = true;
  StatementOptions misc = StatementOptions::Full();
  std::vector<Row> rows = {{"Baseline", baseline},
                           {"+ design (SS3)", design},
                           {"+ parsing (SS4)", parsing},
                           {"+ crypto (SS5)", crypto},
                           {"+ misc.", misc}};

  // Constraints and public inputs; the statement's public inputs are part
  // of its domain.
  struct Count {
    size_t m;
    size_t n;
  };
  auto count_for = [&](const CryptoSuite& suite, StatementOptions options) {
    DnssecHierarchy dns(suite, 6002);
    dns.AddZone(DnsName::FromString("org"));
    DnsName domain = DnsName::FromString("nope-tools.org");
    dns.AddZone(domain);
    StatementParams params;
    params.suite = &suite;
    params.num_levels = 1;
    params.max_name_len = 32;
    params.options = options;
    StatementWitness witness;
    witness.chain = dns.BuildChain(domain);
    witness.leaf_ksk_private_key = dns.Find(domain)->ksk().ec_priv;
    witness.tls_key_digest = Bytes(32, 1);
    witness.ca_name_digest = Bytes(32, 2);
    witness.truncated_ts = 2916666;
    ConstraintSystem cs(ConstraintSystem::Mode::kCount);
    BuildNopeStatement(&cs, params, witness);
    return Count{cs.NumConstraints(),
                 EvaluationDomain::SizeFor(cs.NumConstraints() + cs.NumPublic())};
  };
  auto print_row = [&](const char* label, const Count& c) {
    printf("  %-18s %12zu %12zu %8.1f s %7.2f GB\n", label, c.m, c.n, est_time(c.n),
           est_mem_gb(c.n));
  };
  auto print_header = [] {
    printf("  %-18s %12s %12s %10s %10s\n", "Techniques", "m", "domain n", "est time",
           "est mem");
  };

  printf("Demo profile (toy suite; fully provable end-to-end):\n");
  print_header();
  for (const Row& row : rows) {
    print_row(row.label, count_for(CryptoSuite::Toy(), row.options));
  }

  if (!quick) {
    printf("\nPaper profile (RSA-2048 root + ECDSA P-256, second-level domain):\n");
    print_header();
    fprintf(stderr, "[paper-scale] building count-only circuits (this takes minutes)...\n");
    size_t m_baseline = 0;
    size_t m_final = 0;
    for (const Row& row : rows) {
      bench::Timer timer;
      const Count c = count_for(CryptoSuite::Real(), row.options);
      fprintf(stderr, "[paper-scale] %-18s m=%zu n=%zu (built in %.1fs)\n", row.label, c.m, c.n,
              timer.Seconds());
      print_row(row.label, c);
      if (m_baseline == 0) {
        m_baseline = c.m;
      }
      m_final = c.m;
    }
    printf("\nOverall reduction: %.1fx (paper: 10.15M -> 1.13M, ~9x).\n",
           static_cast<double>(m_baseline) / m_final);
  } else {
    printf("\n(paper-scale section skipped: --quick)\n");
  }

  printf("\nPaper reference (Fig. 6): Baseline 10.15M/486s/17.8GB -> +design 5.33M\n");
  printf("-> +parsing 3.60M -> +crypto 1.19M -> +misc 1.13M/54s/1.99GB.\n");

  // Constraint counts for the toy suite's ablation endpoints (cheap to
  // compute in --quick runs).
  const bench::Emitter emit("fig6_ablation");
  emit("toy_m_baseline", count_for(CryptoSuite::Toy(), rows.front().options).m);
  emit("toy_m_final", count_for(CryptoSuite::Toy(), rows.back().options).m);
  return 0;
}
