// Google-benchmark microbenches for the Groth16 back-end (§2.3): setup,
// prove, and verify across circuit sizes, plus proof (de)serialization and
// the underlying pairing. Verifies the paper's structural claims: proof size
// and verification time are independent of statement size; proving scales
// ~m log m.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/base/threadpool.h"
#include "src/ec/msm.h"
#include "src/groth16/domain.h"
#include "src/groth16/groth16.h"

namespace nope {
namespace {

ConstraintSystem SyntheticCircuit(size_t n) {
  ConstraintSystem cs;
  Var pub = cs.AddPublicInput(Fr::FromU64(2));
  Fr acc_val = Fr::FromU64(2);
  Var acc = cs.AddWitness(acc_val);
  cs.EnforceEqual(LC(acc), LC(pub));
  for (size_t i = 1; i < n; ++i) {
    Fr next_val = acc_val * acc_val;
    Var next = cs.AddWitness(next_val);
    cs.Enforce(LC(acc), LC(acc), LC(next));
    acc = next;
    acc_val = next_val;
  }
  return cs;
}

struct Fixture {
  ConstraintSystem cs;
  groth16::ProvingKey pk;
  groth16::Proof proof;
  std::vector<Fr> pub;

  explicit Fixture(size_t n) : cs(SyntheticCircuit(n)) {
    Rng rng(42);
    pk = groth16::Setup(cs, &rng);
    proof = groth16::Prove(pk, cs, &rng);
    pub = {cs.ValueOf(1)};
  }
};

Fixture& CachedFixture(size_t n) {
  static std::map<size_t, std::unique_ptr<Fixture>>* cache =
      new std::map<size_t, std::unique_ptr<Fixture>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, std::make_unique<Fixture>(n)).first;
  }
  return *it->second;
}

void BM_Groth16Prove(benchmark::State& state) {
  Fixture& f = CachedFixture(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(groth16::Prove(f.pk, f.cs, &rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Groth16Prove)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14)->Complexity()
    ->Unit(benchmark::kMillisecond);

// Same prover across pool sizes; range(1) is the lane count (0 = default).
// The determinism tests assert identical output bytes; this measures cost.
void BM_Groth16ProveThreads(benchmark::State& state) {
  Fixture& f = CachedFixture(static_cast<size_t>(state.range(0)));
  ThreadPool::SetGlobalThreads(static_cast<size_t>(state.range(1)));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(groth16::Prove(f.pk, f.cs, &rng));
  }
  ThreadPool::SetGlobalThreads(0);
}
BENCHMARK(BM_Groth16ProveThreads)
    ->Args({1 << 12, 1})
    ->Args({1 << 12, 2})
    ->Args({1 << 12, 4})
    ->Args({1 << 12, 0})
    ->Unit(benchmark::kMillisecond);

void BM_Groth16Verify(benchmark::State& state) {
  // Verification time must be independent of circuit size (§2.3).
  Fixture& f = CachedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(groth16::Verify(f.pk.vk(), f.pub, f.proof));
  }
}
BENCHMARK(BM_Groth16Verify)->Arg(1 << 10)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

void BM_ProofSerialize(benchmark::State& state) {
  Fixture& f = CachedFixture(1 << 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.proof.ToBytes());  // always exactly 128 bytes
  }
}
BENCHMARK(BM_ProofSerialize);

void BM_ProofDeserialize(benchmark::State& state) {
  Fixture& f = CachedFixture(1 << 10);
  Bytes encoded = f.proof.ToBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(groth16::Proof::FromBytes(encoded));
  }
}
BENCHMARK(BM_ProofDeserialize)->Unit(benchmark::kMicrosecond);

void BM_Pairing(benchmark::State& state) {
  G1 p = G1Generator().ScalarMul(BigUInt(12345));
  G2 q = G2Generator().ScalarMul(BigUInt(67890));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pairing(p, q));
  }
}
BENCHMARK(BM_Pairing)->Unit(benchmark::kMillisecond);

void BM_MillerLoop(benchmark::State& state) {
  G1 p = G1Generator().ScalarMul(BigUInt(12345));
  G2 q = G2Generator().ScalarMul(BigUInt(67890));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MillerLoop(p, q));
  }
}
BENCHMARK(BM_MillerLoop)->Unit(benchmark::kMillisecond);

// --- Machine-readable threads comparison ------------------------------------
//
// Emits one-line JSON records ({"bench":...,"metric":...,"value":...}) that
// run_benches.sh collects into BENCH_results.json, so the perf trajectory of
// the parallel pipeline is measured, not asserted. Wall-clock speedups only
// materialize on multi-core hosts; the records always include the measured
// lane counts so a single-core run is interpretable.

double MedianMs(const std::function<void()>& op, int runs = 3) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    op();
    std::chrono::duration<double, std::milli> d =
        std::chrono::steady_clock::now() - start;
    ms.push_back(d.count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void EmitJson(const char* metric, double value) {
  std::printf("{\"bench\": \"groth16\", \"metric\": \"%s\", \"value\": %.4f}\n",
              metric, value);
}

void EmitThreadsComparison() {
  constexpr size_t kCircuit = 1 << 12;
  constexpr size_t kMsmSize = 4096;
  Fixture& f = CachedFixture(kCircuit);

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
    double prove_ms =
        MedianMs([&] { groth16::Prove(f.pk, f.cs, &prove_rng); });
    char name[64];
    std::snprintf(name, sizeof(name), "prove_ms_%s", suffix);
    EmitJson(name, prove_ms);
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
  std::array<std::vector<double>, 3> msm_ms, fft_ms;
  auto once = [](const std::function<void()>& op) {
    auto start = std::chrono::steady_clock::now();
    op();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  for (int rep = 0; rep < kReps; ++rep) {
    // Rotate the visiting order so each configuration occupies each slot
    // within the repetition equally often: the preceding measurement warms
    // (or trashes) the cache for whichever config runs next, and a fixed
    // order turns that into a systematic bias the paired ratios can't see.
    for (int pos = 0; pos < 3; ++pos) {
      int ci = (rep + pos) % 3;
      ThreadPool::SetGlobalThreads(cfgs[ci]);
      msm_ms[ci].push_back(
          once([&] { benchmark::DoNotOptimize(Msm(bases, scalars)); }));
      fft_ms[ci].push_back(once([&] {
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
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const char* suffixes[3] = {"threads1", "threads4", "threadsN"};
  for (int ci = 0; ci < 3; ++ci) {
    char name[64];
    std::snprintf(name, sizeof(name), "msm_g1_%zu_ms_%s", kMsmSize,
                  suffixes[ci]);
    EmitJson(name, median(msm_ms[ci]));
    std::snprintf(name, sizeof(name), "coset_fft_%zu_ms_%s", kMsmSize,
                  suffixes[ci]);
    EmitJson(name, median(fft_ms[ci]));
  }
  auto minimum = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  EmitJson("threads_n", static_cast<double>(hw));
  EmitJson("simd_lanes", static_cast<double>(Fr::SimdLanes()));
  std::printf("{\"bench\": \"groth16\", \"metric\": \"simd_backend_%s\", "
              "\"value\": 1}\n",
              Fr::SimdBackendName());
  EmitJson("prove_speedup_4t", p1 / p4);
  EmitJson("msm_fft_speedup_4t",
           (minimum(msm_ms[0]) + minimum(fft_ms[0])) /
               (minimum(msm_ms[1]) + minimum(fft_ms[1])));
  EmitJson("prove_speedup_nt", p1 / pn);
  EmitJson("msm_fft_speedup_nt",
           (minimum(msm_ms[0]) + minimum(fft_ms[0])) /
               (minimum(msm_ms[2]) + minimum(fft_ms[2])));
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
      double ms = 1e300;
      for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(MsmSignedAffine(b, s, nullptr, c));
        ms = std::min(ms, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      }
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

int main(int argc, char** argv) {
  const char* autotune = std::getenv("NOPE_MSM_AUTOTUNE");
  if (autotune != nullptr && autotune[0] != '\0' && autotune[0] != '0') {
    nope::RunMsmAutotune();
    return 0;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  nope::EmitThreadsComparison();
  return 0;
}
