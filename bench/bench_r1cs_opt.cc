// R1CS optimizer bench: per-gadget density rows for the full NOPE statement
// (one JSON record per gadget and metric), total constraint counts before and
// after optimization for the baseline and Full() gadget designs, and the
// proving-time effect of the smaller system.
//
// Record shape follows run_benches.sh:
//   {"bench": "r1cs_opt", "metric": "r1cs.<gadget>.constraints_pre", ...}
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/statement.h"
#include "src/groth16/groth16.h"
#include "src/r1cs/opt/optimizer.h"
#include "src/r1cs/opt/report.h"

using namespace nope;

namespace {

void BuildStatement(ConstraintSystem* cs, const StatementOptions& options,
                    DnssecHierarchy* dns, const DnsName& domain) {
  StatementParams params;
  params.suite = &CryptoSuite::Toy();
  params.num_levels = 1;
  params.max_name_len = 32;
  params.options = options;
  StatementWitness w;
  w.chain = dns->BuildChain(domain);
  w.leaf_ksk_private_key = dns->Find(domain)->ksk().ec_priv;
  w.tls_key_digest = Bytes(32, 0xaa);
  w.ca_name_digest = Bytes(32, 0xbb);
  w.truncated_ts = 2916666;
  BuildNopeStatement(cs, params, w);
}

}  // namespace

int main() {
  DnssecHierarchy dns{CryptoSuite::Toy(), 4001};
  DnsName domain = DnsName::FromString("example.com");
  dns.AddZone(DnsName::FromString("com"));
  dns.AddZone(domain);

  // Full() design: per-gadget density report plus proving-time comparison.
  ConstraintSystem cs;
  BuildStatement(&cs, StatementOptions::Full(), &dns, domain);
  OptimizeResult opt = Optimize(cs);
  DensityReport report = BuildDensityReport(cs, &opt);

  std::printf("%s\n", DensityReportTable(report).c_str());
  const bench::Emitter emit("r1cs_opt");
  for (const GadgetDensityRow& row : report.rows) {
    std::string prefix = "r1cs." + row.name + ".";
    emit(prefix + "instances", row.instances);
    emit(prefix + "constraints_pre", row.constraints_pre);
    emit(prefix + "constraints_post", row.constraints_post);
    emit(prefix + "aux_wires_pre", row.aux_wires_pre);
    emit(prefix + "aux_wires_post", row.aux_wires_post);
    emit(prefix + "avg_lc_terms", row.AvgLcTerms());
  }

  emit("r1cs.total.constraints_pre", report.total_constraints_pre);
  emit("r1cs.total.constraints_post", report.total_constraints_post);
  emit("r1cs.total.reduction_pct",
       100.0 * (1.0 - static_cast<double>(report.total_constraints_post) /
                          static_cast<double>(report.total_constraints_pre)));
  const OptStats& st = opt.stats;
  emit("r1cs.opt.unified_spans", st.unified_spans);
  emit("r1cs.opt.unified_vars", st.unified_vars);
  emit("r1cs.opt.affine_rewrites", st.affine_rewrites);
  emit("r1cs.opt.substituted_vars", st.substituted_vars);
  emit("r1cs.opt.deduped_constraints", st.deduped_constraints);
  emit("r1cs.opt.projected_products", st.projected_products);

  // Baseline design: the config the >= 10% acceptance bar is measured on.
  {
    ConstraintSystem base_cs;
    BuildStatement(&base_cs, StatementOptions::Baseline(), &dns, domain);
    OptimizeResult base_opt = Optimize(base_cs);
    emit("r1cs.baseline.constraints_pre", base_cs.NumConstraints());
    emit("r1cs.baseline.constraints_post", base_opt.cs.NumConstraints());
    emit("r1cs.baseline.reduction_pct",
         100.0 * (1.0 - static_cast<double>(base_opt.cs.NumConstraints()) /
                            static_cast<double>(base_cs.NumConstraints())));
  }

  // Proving time, unoptimized vs optimized (one proof each; the Toy suite
  // statement is large enough that the delta dwarfs run-to-run noise).
  {
    Rng rng(7);
    groth16::ProvingKey pk_raw;
    emit("r1cs.setup_ms_unoptimized", bench::TimeMs([&] { pk_raw = groth16::Setup(cs, &rng); }));
    emit("r1cs.prove_ms_unoptimized",
         bench::TimeMs([&] { bench::Keep(groth16::Prove(pk_raw, cs, &rng)); }));

    groth16::ProvingKey pk_opt;
    emit("r1cs.setup_ms_optimized", bench::TimeMs([&] { pk_opt = groth16::Setup(opt.cs, &rng); }));
    emit("r1cs.prove_ms_optimized",
         bench::TimeMs([&] { bench::Keep(groth16::Prove(pk_opt, opt.cs, &rng)); }));
  }
  return 0;
}
