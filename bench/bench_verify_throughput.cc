// Verifier throughput (ROADMAP item 1): proofs/s for the unprepared
// four-pairing Verify, the prepared-VK single Verify, and BatchVerify at
// batch sizes 1/16/256, plus p50/p99 single-proof latency. The ≥2x batch-256
// acceptance bar lives here as a measured record, not an assertion: the
// speedup_batch256 metric is proofs/s(batch 256) over proofs/s(single
// unprepared Verify) at the same commit.
//
// The circuit is deliberately tiny (the cubic demo statement): verification
// cost is independent of statement size, so a small setup keeps the bench
// fast while measuring exactly the handshake-path work.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "src/groth16/groth16.h"

using namespace nope;

namespace {

ConstraintSystem CubicCircuit(uint64_t w_val, uint64_t x_val) {
  ConstraintSystem cs;
  Var x = cs.AddPublicInput(Fr::FromU64(x_val));
  Var w = cs.AddWitness(Fr::FromU64(w_val));
  Fr w_fr = Fr::FromU64(w_val);
  Var w2 = cs.AddWitness(w_fr * w_fr);
  Var w3 = cs.AddWitness(w_fr * w_fr * w_fr);
  cs.Enforce(LC(w), LC(w), LC(w2));
  cs.Enforce(LC(w2), LC(w), LC(w3));
  cs.EnforceEqual(LC(w3) + LC(w) + LC::Constant(Fr::FromU64(5)), LC(x));
  return cs;
}

void EmitJson(const char* metric, double value) {
  std::printf(
      "{\"bench\": \"verify_throughput\", \"metric\": \"%s\", \"value\": %.4f}\n",
      metric, value);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Per-call latencies in milliseconds, sorted ascending.
std::vector<double> Latencies(const std::function<void()>& op, int reps) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    op();
    ms.push_back(SecondsSince(t0) * 1000.0);
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

double Percentile(const std::vector<double>& sorted, double p) {
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main() {
  Rng rng(42001);
  ConstraintSystem cs = CubicCircuit(3, 35);
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
    e.public_inputs = {Fr::FromU64(35)};
    entries.push_back(std::move(e));
  }

  // Single-proof latency, unprepared (the pre-ROADMAP-item-1 hot path).
  constexpr int kSingleReps = 40;
  std::vector<double> plain_ms = Latencies(
      [&] {
        bool ok = groth16::Verify(pk.vk(), entries[0].public_inputs, entries[0].proof);
        if (!ok) {
          fprintf(stderr, "unprepared verify rejected a valid proof\n");
          exit(1);
        }
      },
      kSingleReps);
  double plain_mean_ms = 0;
  for (double m : plain_ms) plain_mean_ms += m;
  plain_mean_ms /= plain_ms.size();
  double plain_proofs_s = 1000.0 / plain_mean_ms;
  EmitJson("single_unprepared_p50_ms", Percentile(plain_ms, 0.50));
  EmitJson("single_unprepared_p99_ms", Percentile(plain_ms, 0.99));
  EmitJson("single_unprepared_proofs_per_s", plain_proofs_s);

  // Single-proof latency, prepared VK (the one Setup returns).
  std::vector<double> prep_ms = Latencies(
      [&] {
        bool ok = groth16::Verify(pvk, entries[0].public_inputs, entries[0].proof);
        if (!ok) {
          fprintf(stderr, "prepared verify rejected a valid proof\n");
          exit(1);
        }
      },
      kSingleReps);
  double prep_mean_ms = 0;
  for (double m : prep_ms) prep_mean_ms += m;
  prep_mean_ms /= prep_ms.size();
  EmitJson("single_prepared_p50_ms", Percentile(prep_ms, 0.50));
  EmitJson("single_prepared_p99_ms", Percentile(prep_ms, 0.99));
  EmitJson("single_prepared_proofs_per_s", 1000.0 / prep_mean_ms);

  // Batched throughput. Fresh Rng per run: the RLC coefficients come from a
  // seeded Rng (see groth16.h) and the bench seeds deterministically.
  double batch256_proofs_s = 0;
  for (size_t batch : {size_t{1}, size_t{16}, size_t{256}}) {
    std::vector<groth16::BatchEntry> slice(entries.begin(),
                                           entries.begin() + batch);
    constexpr int kRuns = 5;
    double best_s = 1e100;
    for (int run = 0; run < kRuns; ++run) {
      Rng batch_rng(90'000 + run);
      auto t0 = std::chrono::steady_clock::now();
      groth16::BatchVerifyResult res = groth16::BatchVerify(pvk, slice, &batch_rng);
      double s = SecondsSince(t0);
      if (!res.all_ok) {
        fprintf(stderr, "batch verify rejected a valid batch\n");
        return 1;
      }
      best_s = std::min(best_s, s);
    }
    double proofs_s = static_cast<double>(batch) / best_s;
    char metric[64];
    snprintf(metric, sizeof(metric), "batch%zu_proofs_per_s", batch);
    EmitJson(metric, proofs_s);
    if (batch == 256) {
      batch256_proofs_s = proofs_s;
    }
  }

  // The acceptance-criterion ratio: batch-256 throughput over unprepared
  // single-proof throughput.
  EmitJson("speedup_batch256", batch256_proofs_s / plain_proofs_s);
  return 0;
}
