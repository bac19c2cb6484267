// Regenerates Figure 3: attacker subsets vs {DV, DV+, DCE, NOPE} — domain
// impersonation, time to detect, and revocability.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/analysis.h"

int main() {
  printf("=== Figure 3: security analysis of attacker subsets (paper §3.3) ===\n\n");
  auto matrix = nope::BuildFigure3Matrix();
  printf("%s\n", nope::RenderFigure3(matrix).c_str());

  // Summary claims from the paper's analysis.
  int nope_falls = 0;
  int dv_falls = 0;
  for (const auto& row : matrix) {
    if (row.outcomes[static_cast<int>(nope::AuthScheme::kNope)].impersonated) {
      ++nope_falls;
    }
    if (row.outcomes[static_cast<int>(nope::AuthScheme::kDv)].impersonated) {
      ++dv_falls;
    }
  }
  printf("Attacker subsets defeating DV:   %d / 16\n", dv_falls);
  printf("Attacker subsets defeating NOPE: %d / 16 (requires cert-side AND DNSSEC attackers)\n",
         nope_falls);

  // Machine-readable records for BENCH_results.json: the security matrix is
  // a correctness artifact, so the counts double as a regression tripwire.
  const nope::bench::Emitter emit("fig3_matrix");
  emit("subsets_defeating_dv", dv_falls);
  emit("subsets_defeating_nope", nope_falls);
  return 0;
}
