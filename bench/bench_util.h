// Shared plumbing for the bench/ binaries, so each one holds only its
// experiment: the record line run_benches.sh collects, one wall-clock timer,
// one way to summarize samples, the world Figures 4, 5 and 7 issue
// certificates in, and the synthetic circuit the Groth16 benches prove.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "src/core/nope.h"

namespace nope::bench {

// Prints the one-line JSON records that run_benches.sh collects into
// BENCH_results.json: {"bench": ..., "metric": ..., "value": ...}. Integers
// print exactly (counts, bytes, digest halves); doubles with four decimals.
class Emitter {
 public:
  explicit Emitter(const char* bench) : bench_(bench) {}

  void operator()(const std::string& metric, double value) const {
    std::printf("{\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.4f}\n", bench_,
                metric.c_str(), value);
  }
  template <std::integral T>
  void operator()(const std::string& metric, T value) const {
    std::printf("{\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %s}\n", bench_,
                metric.c_str(), std::to_string(value).c_str());
  }

 private:
  const char* bench_;
};

// Measurements of one quantity, timed or simulated, and the summaries the
// benches report over them.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }

  // The sorted sample at index round(p * (n - 1)); 0 when there are none.
  double Percentile(double p) const {
    if (values_.empty()) {
      return 0;
    }
    std::vector<double> sorted = Sorted();
    return sorted[static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5)];
  }
  double Median() const { return Percentile(0.5); }
  double Min() const { return Percentile(0); }
  double Max() const { return Percentile(1); }

  double Mean() const { return MeanOf(values_); }

  // Mean and population standard deviation after dropping the largest 1% of
  // the samples, the paper's method for Fig. 4.
  struct MeanStdev {
    double mean;
    double stdev;
  };
  MeanStdev TrimmedMeanStdev() const {
    std::vector<double> kept = Sorted();
    kept.resize(kept.size() - kept.size() / 100);
    double mean = MeanOf(kept);
    double var = 0;
    for (double v : kept) {
      var += (v - mean) * (v - mean);
    }
    return {mean, std::sqrt(var / static_cast<double>(kept.size()))};
  }

 private:
  static double MeanOf(const std::vector<double>& values) {
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  }
  std::vector<double> Sorted() const {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  std::vector<double> values_;
};

// Wall-clock time since construction, on the steady clock.
class Timer {
 public:
  double Ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  double Seconds() const { return Ms() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

// Milliseconds that one call of op takes.
template <typename Op>
double TimeMs(Op&& op) {
  Timer timer;
  op();
  return timer.Ms();
}

// Milliseconds that each of `reps` calls of op takes.
template <typename Op>
Samples SampleMs(int reps, Op&& op) {
  Samples samples;
  for (int i = 0; i < reps; ++i) {
    samples.Add(TimeMs(op));
  }
  return samples;
}

// Keeps the compiler from discarding a timed call whose result is unused.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// The world Figures 4, 5 and 7 issue certificates in: a CA that logs to two
// CT logs, the Toy-suite hierarchy for nope-tools.org, the server's TLS key,
// and the deployment's trusted setup for StatementOptions::Full(). `seed`
// drives the CA, the logs, the key and the setup; `dns_seed` drives the
// hierarchy. The CA keeps pointers to the logs and the Rng, so the world is
// neither copied nor moved.
struct IssuanceWorld {
  static constexpr uint64_t kNow = 1750000000;

  IssuanceWorld(uint64_t seed, uint64_t dns_seed)
      : rng(seed),
        log1(1, &rng),
        log2(2, &rng),
        ca("lets-encrypt-sim", {&log1, &log2}, &rng),
        dns(CryptoSuite::Toy(), dns_seed),
        domain(DnsName::FromString("nope-tools.org")) {
    dns.AddZone(DnsName::FromString("org"));
    dns.AddZone(domain);
    tls_key = GenerateEcdsaKey(&rng);
    std::fprintf(stderr, "[setup] Groth16 trusted setup (demo profile)...\n");
    deployment = NopeTrustedSetup(&dns, domain, StatementOptions::Full(), &rng);
  }
  IssuanceWorld(const IssuanceWorld&) = delete;
  IssuanceWorld& operator=(const IssuanceWorld&) = delete;

  // Issues a certificate for the TLS key at kNow, with or without a NOPE
  // proof; the CA's first `dns_retries` TXT polls miss the challenge.
  std::optional<IssuanceResult> Issue(bool with_nope, size_t dns_retries = 0) {
    return IssueCertificate(with_nope ? &deployment : nullptr, &dns, &ca, domain,
                            tls_key.pub.Encode(), kNow, &rng, with_nope, dns_retries);
  }

  // The DCE bundle for the same domain and key in a hierarchy at the paper's
  // scale (RSA-2048 root, P-256 zones) seeded with `real_seed`. `anchor`, if
  // given, receives that hierarchy's root ZSK.
  DceBundle RealDce(uint64_t real_seed, DnskeyRdata* anchor = nullptr) const {
    DnssecHierarchy real(CryptoSuite::Real(), real_seed);
    real.AddZone(DnsName::FromString("org"));
    real.AddZone(domain);
    DceBundle bundle = BuildDceBundle(&real, domain, tls_key.pub.Encode());
    if (anchor != nullptr) {
      *anchor = real.root().ZskRdata();
    }
    return bundle;
  }

  Rng rng;
  CtLog log1;
  CtLog log2;
  CertificateAuthority ca;
  DnssecHierarchy dns;
  DnsName domain;
  EcdsaKeyPair tls_key;
  NopeDeployment deployment;
};

// A chain of n multiplication constraints, x_0 = 2 and x_{i+1} = x_i^2, with
// x_0 the one public input: a satisfied circuit of any size for Groth16.
inline ConstraintSystem SyntheticCircuit(size_t n) {
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

}  // namespace nope::bench

#endif  // BENCH_BENCH_UTIL_H_
