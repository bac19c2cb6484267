// Groth16 back-end benches (§2.3): prove and verify across circuit sizes,
// the pairing under verification, proof encoding, and the cost of proving,
// MSM and FFT across thread counts. Checks the paper's structural claims:
// proof size and verification time are independent of statement size;
// proving scales ~m log m.
//
// NOPE_MSM_AUTOTUNE=1 runs the offline window-width sweep instead.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/threadpool.h"
#include "src/ec/msm.h"
#include "src/groth16/domain.h"
#include "src/groth16/groth16.h"

namespace nope {
namespace {

using bench::Keep;
using bench::SampleMs;
using bench::Samples;
using bench::TimeMs;

const bench::Emitter emit("groth16");

struct Fixture {
  ConstraintSystem cs;
  groth16::ProvingKey pk;
  groth16::Proof proof;
  std::vector<Fr> pub;

  explicit Fixture(size_t n) : cs(bench::SyntheticCircuit(n)) {
    Rng rng(42);
    pk = groth16::Setup(cs, &rng);
    proof = groth16::Prove(pk, cs, &rng);
    pub = {cs.ValueOf(1)};
  }
};

// Prove time per circuit size m (metrics suffixed _m<m>), verify time at the
// smallest and largest m, and the pairing and proof encoding under them.
void EmitSizeSweep(const Fixture& small, const Fixture& mid, const Fixture& large) {
  constexpr int kProveReps = 5;
  constexpr int kVerifyReps = 50;
  constexpr int kCodecReps = 1000;
  for (const Fixture* f : {&small, &mid, &large}) {
    Rng rng(7);
    emit("prove_ms_m" + std::to_string(f->cs.NumConstraints()),
         SampleMs(kProveReps, [&] { Keep(groth16::Prove(f->pk, f->cs, &rng)); }).Median());
  }
  for (const Fixture* f : {&small, &large}) {
    emit("verify_ms_m" + std::to_string(f->cs.NumConstraints()),
         SampleMs(kVerifyReps, [&] { Keep(groth16::Verify(f->pk.vk(), f->pub, f->proof)); })
             .Median());
  }

  G1 p = G1Generator().ScalarMul(BigUInt(12345));
  G2 q = G2Generator().ScalarMul(BigUInt(67890));
  emit("pairing_ms", SampleMs(kVerifyReps, [&] { Keep(Pairing(p, q)); }).Median());
  emit("miller_loop_ms", SampleMs(kVerifyReps, [&] { Keep(MillerLoop(p, q)); }).Median());

  Bytes encoded = small.proof.ToBytes();
  emit("proof_bytes", encoded.size());
  emit("proof_encode_us",
       1000.0 * SampleMs(kCodecReps, [&] { Keep(small.proof.ToBytes()); }).Median());
  emit("proof_decode_us",
       1000.0 * SampleMs(kCodecReps, [&] { Keep(groth16::Proof::TryFromBytes(encoded)); }).Median());
}

// Prove, MSM and coset-FFT time at 1, 4 and N threads. Wall-clock speedups
// only materialize on multi-core hosts; the records always include the
// measured lane counts so a single-core run is interpretable.
void EmitThreadsComparison(const Fixture& f) {
  constexpr size_t kMsmSize = 4096;

  Rng rng(11);
  std::vector<G1> bases;
  std::vector<BigUInt> scalars;
  bases.reserve(kMsmSize);
  G1 p = G1Generator();
  for (size_t i = 0; i < kMsmSize; ++i) {
    bases.push_back(p);
    p = p.Add(G1Generator());
    scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
  }
  EvaluationDomain domain(kMsmSize);
  std::vector<Fr> poly(domain.size());
  for (auto& v : poly) {
    v = Fr::Random(&rng);
  }

  auto measure_prove = [&](size_t threads, const char* suffix) {
    ThreadPool::SetGlobalThreads(threads);
    Rng prove_rng(7);
    double prove_ms = SampleMs(3, [&] { groth16::Prove(f.pk, f.cs, &prove_rng); }).Median();
    emit(std::string("prove_ms_") + suffix, prove_ms);
    return prove_ms;
  };

  double p1 = measure_prove(1, "threads1");
  double p4 = measure_prove(4, "threads4");
  size_t hw = ThreadPool::DefaultThreadCount();
  double pn = measure_prove(hw, "threadsN");

  // Kernel metrics gate CI via the speedup ratios below, so they get an
  // interleaved sampling schedule: every repetition visits each thread
  // configuration once, so slow drift -- CPU frequency scaling, a noisy
  // co-tenant -- hits all configurations over the same time window instead
  // of whichever happened to run last. The absolute ms metrics are medians
  // per configuration; the speedup ratios divide the per-configuration
  // *minimums*: preemption and steal noise are strictly additive, so the min
  // over interleaved reps estimates each config's noise-free cost (medians
  // still carry a few percent of scheduler jitter on a busy 1-core host,
  // which is larger than the effects being gated). The coset-FFT sample
  // times kFftIters transforms (a single one is ~9 ms, small enough for
  // scheduler jitter to dominate) and divides.
  constexpr int kReps = 24;
  constexpr int kFftIters = 6;
  const size_t cfgs[3] = {1, 4, hw};
  std::array<Samples, 3> msm_ms, fft_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    // Rotate the visiting order so each configuration occupies each slot
    // within the repetition equally often: the preceding measurement warms
    // (or trashes) the cache for whichever config runs next, and a fixed
    // order turns that into a systematic bias the paired ratios can't see.
    for (int pos = 0; pos < 3; ++pos) {
      int ci = (rep + pos) % 3;
      ThreadPool::SetGlobalThreads(cfgs[ci]);
      msm_ms[ci].Add(TimeMs([&] { Keep(MsmAffine(BatchToAffine(bases), scalars)); }));
      fft_ms[ci].Add(TimeMs([&] {
                       for (int it = 0; it < kFftIters; ++it) {
                         std::vector<Fr> work = poly;
                         domain.CosetFft(&work);
                         domain.CosetIfft(&work);
                       }
                     }) /
                     kFftIters);
    }
  }
  ThreadPool::SetGlobalThreads(0);
  const char* suffixes[3] = {"threads1", "threads4", "threadsN"};
  for (int ci = 0; ci < 3; ++ci) {
    std::string size = std::to_string(kMsmSize);
    emit("msm_g1_" + size + "_ms_" + suffixes[ci], msm_ms[ci].Median());
    emit("coset_fft_" + size + "_ms_" + suffixes[ci], fft_ms[ci].Median());
  }
  emit("threads_n", hw);
  emit("simd_lanes", Fr::SimdLanes());
  emit(std::string("simd_backend_") + Fr::SimdBackendName(), 1);
  emit("prove_speedup_4t", p1 / p4);
  emit("msm_fft_speedup_4t",
       (msm_ms[0].Min() + fft_ms[0].Min()) / (msm_ms[1].Min() + fft_ms[1].Min()));
  emit("prove_speedup_nt", p1 / pn);
  emit("msm_fft_speedup_nt",
       (msm_ms[0].Min() + fft_ms[0].Min()) / (msm_ms[2].Min() + fft_ms[2].Min()));
}

// Offline sweep behind NOPE_MSM_AUTOTUNE=1: times MsmSignedAffine directly
// for every (n, c) cell and prints the best window width per size. The
// workload mirrors what the kernel actually sees after GLV splitting
// (~130-bit limb scalars), since that is what PickSignedWindow keys on. The
// winning widths are PINNED into msm_detail::kSignedWindowTable by hand --
// never measured at runtime -- so window choice stays a pure function of
// input size and the determinism contract holds on every host.
void RunMsmAutotune() {
  ThreadPool::SetGlobalThreads(1);
  Rng rng(1234);
  const size_t kMaxN = size_t{1} << 16;
  std::vector<G1> jac;
  jac.reserve(kMaxN);
  G1 p = G1Generator();
  for (size_t i = 0; i < kMaxN; ++i) {
    jac.push_back(p);
    p = p.Double().Add(G1Generator());
  }
  std::vector<G1Affine> bases = BatchToAffine(jac);
  std::vector<MsmScalar> scalars(kMaxN);
  for (MsmScalar& s : scalars) {
    s = {rng.NextU64(), rng.NextU64(), rng.NextU64() & 3, 0};  // < 2^130
  }

  std::printf("# autotune: best signed-window width per kernel-visible n "
              "(backend=%s)\n", Fr::SimdBackendName());
  for (size_t n = 128; n <= kMaxN; n *= 2) {
    std::vector<G1Affine> b(bases.begin(), bases.begin() + n);
    std::vector<MsmScalar> s(scalars.begin(), scalars.begin() + n);
    size_t best_c = 0;
    double best_ms = 0;
    for (size_t c = 2; c <= 14; ++c) {
      const int reps = n <= 2048 ? 9 : (n <= 16384 ? 5 : 3);
      double ms = SampleMs(reps, [&] { Keep(MsmSignedAffine(b, s, nullptr, c)); }).Min();
      std::printf("#   n=%-7zu c=%-2zu %.3f ms\n", n, c, ms);
      if (best_c == 0 || ms < best_ms) {
        best_c = c;
        best_ms = ms;
      }
    }
    std::printf("# best: {%zu, %zu}  (%.3f ms)\n", n, best_c, best_ms);
  }
  ThreadPool::SetGlobalThreads(0);
}

}  // namespace
}  // namespace nope

int main() {
  const char* autotune = std::getenv("NOPE_MSM_AUTOTUNE");
  if (autotune != nullptr && autotune[0] != '\0' && autotune[0] != '0') {
    nope::RunMsmAutotune();
    return 0;
  }
  std::printf("=== Groth16 back-end (paper §2.3) ===\n");
  nope::Fixture small(1 << 10);
  nope::Fixture mid(1 << 12);
  nope::Fixture large(1 << 14);
  nope::EmitSizeSweep(small, mid, large);
  nope::EmitThreadsComparison(mid);
  return 0;
}
