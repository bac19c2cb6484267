// Verifier throughput (ROADMAP item 1): proofs/s for the unprepared
// four-pairing Verify, the prepared-VK single Verify, and BatchVerify at
// batch sizes 1/16/256, plus p50/p99 single-proof latency. The ≥2x batch-256
// acceptance bar lives here as a measured record, not an assertion: the
// speedup_batch256 metric is proofs/s(batch 256) over proofs/s(single
// unprepared Verify) at the same commit.
//
// The circuit is deliberately tiny (a three-constraint synthetic chain):
// verification cost is independent of statement size, so a small setup keeps
// the bench fast while measuring exactly the handshake-path work.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/groth16/groth16.h"

using namespace nope;

int main() {
  const bench::Emitter emit("verify_throughput");
  Rng rng(42001);
  ConstraintSystem cs = bench::SyntheticCircuit(3);
  groth16::ProvingKey pk = groth16::Setup(cs, &rng);
  const groth16::PreparedVerifyingKey& pvk = pk.pvk;

  // 256 distinct proofs (re-randomized Rng per Prove) over the same
  // statement; batching does not require shared inputs, but a shared tiny
  // circuit keeps setup to one call.
  constexpr size_t kBatchMax = 256;
  fprintf(stderr, "[setup] proving %zu proofs...\n", kBatchMax);
  std::vector<groth16::BatchEntry> entries;
  entries.reserve(kBatchMax);
  for (size_t i = 0; i < kBatchMax; ++i) {
    groth16::BatchEntry e;
    e.proof = groth16::Prove(pk, cs, &rng);
    e.public_inputs = {cs.ValueOf(1)};
    entries.push_back(std::move(e));
  }

  // Single-proof latency against the plain key (the pre-ROADMAP-item-1 hot
  // path) or the prepared key Setup returns; returns proofs/s.
  constexpr int kSingleReps = 40;
  auto single = [&](const std::string& tag, const auto& key) {
    bench::Samples ms = bench::SampleMs(kSingleReps, [&] {
      if (!groth16::Verify(key, entries[0].public_inputs, entries[0].proof)) {
        fprintf(stderr, "%s verify rejected a valid proof\n", tag.c_str());
        exit(1);
      }
    });
    emit("single_" + tag + "_p50_ms", ms.Percentile(0.50));
    emit("single_" + tag + "_p99_ms", ms.Percentile(0.99));
    emit("single_" + tag + "_proofs_per_s", 1000.0 / ms.Mean());
    return 1000.0 / ms.Mean();
  };
  double plain_proofs_s = single("unprepared", pk.vk());
  single("prepared", pvk);

  // Batched throughput. Fresh Rng per run: the RLC coefficients come from a
  // seeded Rng (see groth16.h) and the bench seeds deterministically.
  double batch256_proofs_s = 0;
  for (size_t batch : {size_t{1}, size_t{16}, size_t{256}}) {
    std::vector<groth16::BatchEntry> slice(entries.begin(),
                                           entries.begin() + batch);
    constexpr int kRuns = 5;
    bench::Samples run_ms;
    for (int run = 0; run < kRuns; ++run) {
      Rng batch_rng(90'000 + run);
      groth16::BatchVerifyResult res;
      run_ms.Add(bench::TimeMs([&] { res = groth16::BatchVerify(pvk, slice, &batch_rng); }));
      if (!res.all_ok) {
        fprintf(stderr, "batch verify rejected a valid batch\n");
        return 1;
      }
    }
    double proofs_s = static_cast<double>(batch) * 1000.0 / run_ms.Min();
    emit("batch" + std::to_string(batch) + "_proofs_per_s", proofs_s);
    if (batch == 256) {
      batch256_proofs_s = proofs_s;
    }
  }

  // The acceptance-criterion ratio: batch-256 throughput over unprepared
  // single-proof throughput.
  emit("speedup_batch256", batch256_proofs_s / plain_proofs_s);
  return 0;
}
