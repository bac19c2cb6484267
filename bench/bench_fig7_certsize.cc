// Regenerates Figure 7: decomposition of a NOPE certificate chain, the raw
// and SAN-encoded proof sizes, and the DCE chain size for comparison.
#include <cstdio>

#include "bench/bench_util.h"

using namespace nope;

int main() {
  // Toy-suite pipeline issues a real proof-bearing certificate.
  bench::IssuanceWorld world(7001, 7002);
  auto issued = world.Issue(/*with_nope=*/true);
  if (!issued.has_value()) {
    fprintf(stderr, "issuance failed\n");
    return 1;
  }
  const CertificateChain& chain = issued->chain;

  auto leaf_sizes = chain.leaf.SizeBreakdown();
  size_t leaf_total = chain.leaf.Serialize().size();
  size_t intermediate_total = chain.intermediate.Serialize().size();
  size_t chain_total = leaf_total + intermediate_total;

  // DCE comparison at REAL scale (P-256 + RSA-2048 root), as shipped per
  // RFC 9102.
  size_t dce_size = world.RealDce(7003).Serialize().size();

  printf("=== Figure 7: certificate chain decomposition (NOPE cert for %s) ===\n\n",
         world.domain.ToString().c_str());
  auto row = [&](const char* name, size_t bytes) {
    printf("  %-28s %6zu B   %5.1f%%\n", name, bytes, 100.0 * bytes / chain_total);
  };
  row("Certificate Chain", chain_total);
  row("Intermediate Certificate", intermediate_total);
  row("Subscriber Certificate", leaf_total);
  row("  Certificate metadata", leaf_sizes["metadata"]);
  row("  Subject name", leaf_sizes["subject_name"]);
  row("  Subject public key", leaf_sizes["subject_public_key"]);
  row("  Extensions (SAN total)", leaf_sizes["san_extension"]);
  row("  OCSP", leaf_sizes["ocsp"]);
  row("  SCT", leaf_sizes["sct"]);
  row("  Signature", leaf_sizes["signature"]);
  row("Raw NOPE proof", 128);
  row("Encoded NOPE proof (SANs)", leaf_sizes["nope_proof_encoded"]);
  row("DCE chain (real suite)", dce_size);

  printf("\nPaper reference points: raw proof 128 B (5.0%%), encoded 248 B (9.7%%),\n");
  printf("DCE 5870 B (229.8%% of a 2554 B chain). Shape check: the encoded proof\n");
  printf("adds ~%.0f%% to the chain; DCE costs %.1fx the whole chain.\n",
         100.0 * leaf_sizes["nope_proof_encoded"] / chain_total,
         static_cast<double>(dce_size) / chain_total);

  const bench::Emitter emit("fig7_certsize");
  emit("chain_total_bytes", chain_total);
  emit("nope_proof_encoded_bytes", leaf_sizes["nope_proof_encoded"]);
  emit("dce_chain_bytes", dce_size);
  return 0;
}
