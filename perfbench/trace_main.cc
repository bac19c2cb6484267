// nope_bench_trace: the traced run. It drives every layer once, whatever the
// --workload (which only labels the record), with a span around each call
// into a layer, prints the per-layer metrics and writes the spans to
// --trace-out. --seconds is ignored: the traced pass is a fixed amount of
// work (about two minutes on a 4-core Xeon at 2.1 GHz, most of it the
// rotation's trusted setup and two rotations).
//
// README.md maps each per-layer metric to the end-to-end metric and workload
// it should move. Stage and MSM times come from two sources on purpose: the
// prover's own ProveStageHooks for the real Prove call, and the ec/groth16
// probes below, which re-run each MSM and FFT through the public functions on
// the deployment's own tables and this rotation's own scalars.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "perfbench/canary.h"
#include "perfbench/harness.h"
#include "perfbench/worlds.h"
#include "src/base/timer_wheel.h"
#include "src/ec/msm.h"
#include "src/r1cs/opt/optimizer.h"

namespace perfbench {
namespace {

using nope::BigUInt;
using nope::Bytes;
using nope::Fq;
using nope::Fr;

// Runs f n times, each under its own span; returns the per-call times in ms.
template <typename F>
std::vector<double> Repeat(Tracer* tracer, const std::string& name, int n, F f) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    ScopedSpan span(tracer, name);
    f();
    ms.push_back(span.ms());
  }
  return ms;
}

// What the rotation pass hands to the verifier probes: the real deployment
// and the traced rotation's proof with the key and time it binds.
struct RotationOutput {
  std::unique_ptr<RotationWorld> world;
  nope::groth16::Proof proof;
  Bytes tls_key;
  uint64_t ts = 0;
};

// --- rotation: dns -> r1cs -> r1cs.opt -> groth16/ec/ff ------------------------

RotationOutput TraceRotation(const Args& args, Tracer* t, Result* result) {
  RotationOutput out;
  {
    ScopedSpan span(t, "setup.rotation");
    out.world = std::make_unique<RotationWorld>(args.seed);
  }
  RotationWorld& w = *out.world;
  std::string why;

  // The untraced reference: one GenerateNopeProof, no spans inside.
  Bytes key0 = nope::GenerateEcdsaKey(&w.key_rng).pub.Encode();
  double a = NowMs();
  nope::NopeProofBundle ref = nope::GenerateNopeProof(w.deployment, &w.dns, w.domain, key0,
                                                      w.ca_name, kNow, &w.prover_rng);
  double untraced_ms = NowMs() - a;
  result->Check(RotationOutputOk(w, key0, kNow, ref, &why), why);

  // The same steps GenerateNopeProof takes, one span per layer call.
  Bytes key = nope::GenerateEcdsaKey(&w.key_rng).pub.Encode();
  uint64_t ts = kNow + 600;
  std::map<std::string, double> stage_ms;
  double witness_ms, synth_ms, opt_ms, prove_ms, sans_ms, traced_ms;
  nope::ConstraintSystem cs;
  nope::OptimizeResult opt;
  nope::NopeProofBundle bundle;
  {
    ScopedSpan rotation(t, "rotation");
    nope::StatementWitness witness;
    {
      ScopedSpan span(t, "dns.build_witness");
      witness = nope::BuildWitness(&w.dns, w.domain, key, w.ca_name, ts);
      witness_ms = span.ms();
    }
    {
      ScopedSpan span(t, "r1cs.synthesize");
      nope::BuildNopeStatement(&cs, w.deployment.params, witness);
      synth_ms = span.ms();
    }
    {
      ScopedSpan span(t, "r1cs.opt.optimize");
      opt = nope::Optimize(cs);
      opt_ms = span.ms();
    }
    {
      ScopedSpan span(t, "groth16.prove");
      nope::groth16::ProveStageHooks hooks;
      hooks.clock = nope::RealClock::Get();
      hooks.on_stage = [&](const char* stage, uint64_t elapsed_ms) {
        double end_us = NowMs() * 1000.0;
        t->Record(std::string("groth16.prove.") + stage, end_us - elapsed_ms * 1000.0, end_us);
        stage_ms[stage] = static_cast<double>(elapsed_ms);
      };
      nope::groth16::ProveResult r = nope::groth16::Prove(
          w.deployment.pk, opt.cs, &w.prover_rng, nope::CancellationToken(), &hooks);
      result->Check(r.ok(), "traced prove completed");
      bundle.proof = r.proof;
      prove_ms = span.ms();
    }
    {
      ScopedSpan span(t, "pki.encode_sans");
      bundle.sans = nope::EncodeProofSans(bundle.proof.ToBytes(), w.domain);
      sans_ms = span.ms();
    }
    traced_ms = rotation.ms();
  }
  result->Check(RotationOutputOk(w, key, ts, bundle, &why), why);
  out.proof = bundle.proof;
  out.tls_key = key;
  out.ts = ts;

  result->Add("dns.build_witness_ms", witness_ms, "ms");
  result->Add("r1cs.synthesize_ms", synth_ms, "ms");
  result->Add("r1cs.constraints", cs.NumConstraints(), "count");
  result->Add("r1cs.wires", cs.NumVariables(), "count");
  result->Add("r1cs.opt.optimize_ms", opt_ms, "ms");
  result->Add("r1cs.opt.constraints", opt.cs.NumConstraints(), "count");
  result->Add("r1cs.opt.wires", opt.cs.NumVariables(), "count");
  result->Add("groth16.prove_ms", prove_ms, "ms");
  for (const char* stage : {"witness", "fft", "h_poly", "scalars", "msm"}) {
    result->Add(std::string("groth16.prove.") + stage + "_ms", stage_ms[stage], "ms");
  }
  result->Add("pki.encode_sans_ms", sans_ms, "ms");
  result->Add("trace.rotation_untraced_s", untraced_ms / 1000.0, "s");
  result->Add("trace.rotation_traced_s", traced_ms / 1000.0, "s");
  result->Add("trace.overhead.rotation_ms", traced_ms - untraced_ms, "ms");
  result->Add("rotation.accounted_frac",
              (witness_ms + synth_ms + opt_ms + prove_ms + sans_ms) / traced_ms, "frac");

  // Witness density over the optimized assignment the MSMs consume.
  const std::vector<Fr>& values = opt.cs.values();
  std::vector<BigUInt> z_all(values.size());
  double zero = 0, one = 0, u64 = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    z_all[i] = values[i].ToBigUInt();
    if (values[i].IsZero()) {
      ++zero;
    } else if (values[i] == Fr::One()) {
      ++one;
    } else if (z_all[i].BitLength() <= 64) {
      ++u64;
    }
  }
  double n = static_cast<double>(values.size());
  result->Add("groth16.witness.zero_frac", zero / n, "frac");
  result->Add("groth16.witness.one_frac", one / n, "frac");
  result->Add("groth16.witness.u64_frac", u64 / n, "frac");
  result->Add("groth16.witness.full_frac", (n - zero - one - u64) / n, "frac");

  // The QAP quotient through the public domain API: per-constraint
  // evaluation, three iFFTs, three coset FFTs, the pointwise quotient and a
  // coset iFFT. Its top coefficient must vanish for a satisfied system.
  const nope::groth16::ProvingKey& pk = w.deployment.pk;
  nope::EvaluationDomain domain(pk.num_constraints + pk.num_public);
  const size_t size = domain.size();
  std::vector<Fr> av(size, Fr::Zero()), bv(size, Fr::Zero()), cv(size, Fr::Zero());
  {
    ScopedSpan span(t, "groth16.qap_eval");
    const auto& constraints = opt.cs.constraints();
    for (size_t j = 0; j < constraints.size(); ++j) {
      av[j] = opt.cs.Eval(constraints[j].a);
      bv[j] = opt.cs.Eval(constraints[j].b);
      cv[j] = opt.cs.Eval(constraints[j].c);
    }
    for (size_t i = 0; i < pk.num_public; ++i) {
      av[pk.num_constraints + i] = opt.cs.ValueOf(static_cast<nope::Var>(i));
    }
  }
  std::vector<double> fft_ms;
  for (std::vector<Fr>* v : {&av, &bv, &cv}) {
    ScopedSpan span(t, "groth16.fft");
    domain.Ifft(v);
    fft_ms.push_back(span.ms());
  }
  for (std::vector<Fr>* v : {&av, &bv, &cv}) {
    ScopedSpan span(t, "groth16.fft");
    domain.CosetFft(v);
    fft_ms.push_back(span.ms());
  }
  std::vector<Fr> h(size);
  Fr z_inv = domain.VanishingOnCoset().Inverse();
  for (size_t k = 0; k < size; ++k) {
    h[k] = (av[k] * bv[k] - cv[k]) * z_inv;
  }
  {
    ScopedSpan span(t, "groth16.fft");
    domain.CosetIfft(&h);
    fft_ms.push_back(span.ms());
  }
  result->Check(h[size - 1].IsZero(), "QAP quotient has degree below the domain size");
  result->Add("groth16.fft_ms", Median(fft_ms), "ms");
  result->Add("groth16.domain_size", static_cast<double>(size), "count");

  // The five MSMs on the deployment's own query tables.
  std::vector<BigUInt> z_wit(z_all.begin() + pk.num_public, z_all.end());
  std::vector<BigUInt> h_scalars(size - 1);
  for (size_t k = 0; k + 1 < size; ++k) {
    h_scalars[k] = h[k].ToBigUInt();
  }
  auto msm = [&](const char* name, auto&& run) {
    ScopedSpan span(t, std::string("ec.msm.") + name);
    auto point = run();
    double ms = span.ms();
    result->Check(!point.IsInfinity(), std::string("msm ") + name + " is not the identity");
    result->Add(std::string("ec.msm.") + name + "_ms", ms, "ms");
  };
  msm("a", [&] { return nope::MsmAffine(pk.a_query, z_all); });
  msm("b_g1", [&] { return nope::MsmAffine(pk.b_g1_query, z_all); });
  msm("b_g2", [&] { return nope::MsmAffine(pk.b_g2_query, z_all); });
  msm("l", [&] { return nope::MsmAffine(pk.l_query, z_wit); });
  msm("h", [&] { return nope::MsmAffine(pk.h_query, h_scalars); });

  // Field multiplication: a dependent chain, so the latency is measured.
  constexpr int kMuls = 1'000'000;
  auto mul_ns = [&](auto x, auto y, const char* name) {
    ScopedSpan span(t, name);
    for (int i = 0; i < kMuls; ++i) {
      x = x * y;
    }
    double ms = span.ms();
    result->Check(!x.IsZero(), std::string(name) + " chain stays nonzero");
    return ms * 1e6 / kMuls;
  };
  nope::Rng rng(DeriveSeed(args.seed, "field"));
  result->Add("ff.fr_mul_ns", mul_ns(Fr::Random(&rng), Fr::Random(&rng), "ff.fr_mul"), "ns");
  result->Add("ff.fq_mul_ns", mul_ns(Fq::Random(&rng), Fq::Random(&rng), "ff.fq_mul"), "ns");
  return out;
}

// --- handshake: tls/pki/sig legacy checks, groth16 verify, ec pairing ---------

void TraceHandshake(const Args& args, Tracer* t, Result* result, const RotationOutput& real) {
  const RotationWorld& rw = *real.world;
  std::unique_ptr<HandshakeWorld> hw;
  {
    ScopedSpan span(t, "setup.handshake");
    hw = std::make_unique<HandshakeWorld>(args.seed);
  }

  // One pass over a quarter of the seeded stream (the same mix the handshake
  // workload sends), counting verdicts.
  std::map<nope::NopeVerifyStatus, double> verdicts;
  std::vector<double> nope_ms, legacy_ms;
  for (size_t k = 0; k < hw->stream.size() / 4; ++k) {
    const HandshakeWorld::Presented& p = hw->chains[hw->stream[k]];
    ScopedSpan span(t, std::string("core.nope_client_verify.") + ChainClassName(p.cls));
    nope::NopeClientResult r =
        nope::NopeClientVerify(hw->deployment, p.chain, hw->trust, p.domain, kVerifyAt, nullptr);
    double ms = span.ms();
    if (p.cls == ChainClass::kNope) {
      nope_ms.push_back(ms);
    } else if (p.cls == ChainClass::kLegacy) {
      legacy_ms.push_back(ms);
    }
    verdicts[r.status] += 1;
    result->Check(r.status == ExpectedStatus(p.cls) && r.accepted == ExpectedAccepted(p.cls),
                  std::string("handshake verdict for ") + ChainClassName(p.cls));
  }
  for (int s = 0; s < nope::kNumNopeVerifyStatuses; ++s) {
    auto status = static_cast<nope::NopeVerifyStatus>(s);
    result->Add(std::string("core.verdict.") + nope::NopeVerifyStatusName(status),
                verdicts[status], "count");
  }
  result->Add("handshake.nope_verify_p50_ms", Median(nope_ms), "ms");
  result->Add("handshake.legacy_fallback_p50_ms", Median(legacy_ms), "ms");
  for (ChainClass cls : {ChainClass::kNope, ChainClass::kLegacy}) {
    auto first = std::find_if(hw->chains.begin(), hw->chains.end(),
                              [cls](const HandshakeWorld::Presented& p) { return p.cls == cls; });
    result->Add(std::string("tls.") + ChainClassName(cls) + "_chain_bytes",
                first->chain.TotalSize(), "bytes");
  }

  // The real deployment and the traced rotation's proof, on a chain from
  // this world's CA: untraced NopeClientVerify against the same steps under
  // spans (legacy chain, SAN decode, proof decode, public inputs, verify).
  nope::CertificateSigningRequest csr;
  csr.subject = rw.domain;
  csr.public_key = real.tls_key;
  csr.sans = nope::EncodeProofSans(real.proof.ToBytes(), rw.domain);
  nope::CertificateChain chain{hw->ca.IssueWithoutValidation(csr, real.ts),
                               hw->ca.intermediate()};
  const uint64_t at = real.ts + 60;
  const nope::NopeDeployment& dep = rw.deployment;
  constexpr int kReps = 15;

  std::vector<double> untraced;
  for (int i = 0; i < kReps; ++i) {
    double a = NowMs();
    nope::NopeClientResult r = nope::NopeClientVerify(dep, chain, hw->trust, rw.domain, at, nullptr);
    untraced.push_back(NowMs() - a);
    result->Check(r.status == nope::NopeVerifyStatus::kOk && r.accepted,
                  "real NOPE chain verifies");
  }
  std::vector<double> traced, legacy, sans, decode, inputs, verify;
  nope::groth16::Proof proof;
  std::vector<Fr> pub;
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan all(t, "core.nope_client_verify.real");
    bool ok = true;
    {
      ScopedSpan span(t, "tls.legacy_verify");
      ok &= nope::LegacyVerifyChain(chain, hw->trust, rw.domain, at, nullptr) ==
            nope::LegacyStatus::kOk;
      legacy.push_back(span.ms());
    }
    std::optional<nope::Result<Bytes>> bytes;
    {
      ScopedSpan span(t, "pki.decode_sans");
      bytes.emplace(nope::DecodeProofFromSans(chain.leaf.body.sans, rw.domain));
      sans.push_back(span.ms());
    }
    ok &= bytes->ok();
    if (ok) {
      ScopedSpan span(t, "groth16.proof_decode");
      nope::Result<nope::groth16::Proof> p = nope::groth16::Proof::TryFromBytes(bytes->value());
      decode.push_back(span.ms());
      ok &= p.ok();
      if (p.ok()) {
        proof = p.value();
      }
    }
    {
      ScopedSpan span(t, "core.public_inputs");
      const nope::CertificateBody& body = chain.leaf.body;
      pub = nope::NopePublicInputs(dep.params, rw.domain, nope::TlsKeyDigest(body.subject_public_key),
                                   nope::CaNameDigest(body.issuer_organization),
                                   nope::TruncateTimestamp(body.not_before));
      inputs.push_back(span.ms());
    }
    if (ok) {
      ScopedSpan span(t, "groth16.verify");
      ok &= nope::groth16::Verify(dep.vk(), pub, proof);
      verify.push_back(span.ms());
    }
    traced.push_back(all.ms());
    result->Check(ok, "traced verification steps accept the real chain");
  }
  result->Add("tls.legacy_verify_ms", Median(legacy), "ms");
  result->Add("pki.decode_sans_us", Median(sans) * 1000.0, "us");
  result->Add("groth16.proof_decode_ms", Median(decode), "ms");
  result->Add("core.public_inputs_us", Median(inputs) * 1000.0, "us");
  result->Add("groth16.verify_ms", Median(verify), "ms");
  result->Add("trace.nope_verify_untraced_ms", Median(untraced), "ms");
  result->Add("trace.nope_verify_traced_ms", Median(traced), "ms");
  result->Add("trace.overhead.nope_verify_ms", Median(traced) - Median(untraced), "ms");

  nope::groth16::PreparedVerifyingKey pvk;
  std::vector<double> prep = Repeat(t, "groth16.prepare_vk", 3,
                                    [&] { pvk = nope::groth16::PrepareVerifyingKey(dep.vk()); });
  result->Add("groth16.prepare_vk_ms", Median(prep), "ms");
  bool prepared_ok = true;
  std::vector<double> prepared = Repeat(t, "groth16.verify_prepared", kReps, [&] {
    prepared_ok &= nope::groth16::Verify(pvk, pub, proof);
  });
  result->Check(prepared_ok, "prepared verification accepts the real proof");
  result->Add("groth16.verify_prepared_ms", Median(prepared), "ms");

  nope::Fp12 f;
  bool subgroup_ok = true;
  result->Add("ec.miller_loop_ms",
              Median(Repeat(t, "ec.miller_loop", 10, [&] { f = nope::MillerLoop(proof.a, proof.b); })),
              "ms");
  result->Add("ec.final_exp_ms",
              Median(Repeat(t, "ec.final_exp", 10, [&] { (void)nope::FinalExponentiation(f); })),
              "ms");
  result->Add("ec.g2_subgroup_ms", Median(Repeat(t, "ec.g2_subgroup", 10, [&] {
                subgroup_ok &= nope::G2InSubgroup(proof.b);
              })),
              "ms");
  result->Check(subgroup_ok, "proof B is in the G2 subgroup");
}

// --- renewal_sweep: scenario runner, renewal state machine, dns, pki, sig -----

void TraceRenewalSweep(const Args& args, Tracer* t, Result* result) {
  std::vector<nope::ScenarioSpec> specs = ScenarioWindow(args.seed, 1);
  nope::RenewalStats total;
  for (const nope::ScenarioSpec& spec : specs) {
    std::string name = nope::ScenarioClassName(spec.cls);
    ScopedSpan span(t, "scenario." + name);
    nope::ScenarioResult r = nope::RunScenario(spec);
    double ms = span.ms();
    std::string why;
    result->Check(ScenarioOutcomeOk(spec, r, &why), why);
    result->Add("scenario.class." + name + "_ms", ms, "ms");
    total.cycles += r.stats.cycles;
    total.stage_faults += r.stats.stage_faults;
    total.nope_issued += r.stats.nope_issued;
    total.legacy_issued += r.stats.legacy_issued;
    total.downgrades += r.stats.downgrades;
  }
  result->Add("core.renewal.cycles", total.cycles, "count");
  result->Add("core.renewal.stage_faults", total.stage_faults, "count");
  result->Add("core.renewal.nope_issued", total.nope_issued, "count");
  result->Add("core.renewal.legacy_issued", total.legacy_issued, "count");
  result->Add("core.renewal.downgrades", total.downgrades, "count");

  // A three-level Toy hierarchy with an RSA-ZSK zone, as the mixed classes use.
  std::unique_ptr<nope::DnssecHierarchy> dns;
  nope::DnsName leaf = nope::DnsName::FromString("www.example.org");
  uint64_t hseed = DeriveSeed(args.seed, "sweep-hierarchy");
  result->Add("dns.hierarchy_build_ms", Median(Repeat(t, "dns.hierarchy_build", 5, [&] {
                dns = std::make_unique<nope::DnssecHierarchy>(nope::CryptoSuite::Toy(), hseed++);
                dns->AddZone(nope::DnsName::FromString("org"));
                nope::ZoneConfig rsa;
                rsa.rsa_zsk = true;
                dns->AddZone(nope::DnsName::FromString("example.org"), rsa);
                dns->AddZone(leaf);
              })),
              "ms");
  nope::ChainOfTrust chain;
  result->Add("dns.build_chain_ms",
              Median(Repeat(t, "dns.build_chain", 20, [&] { chain = dns->BuildChain(leaf); })),
              "ms");
  result->Check(nope::ValidateChain(dns->suite(), chain, dns->root().ZskRdata()).ok(),
                "built chain validates");

  Bytes message = nope::Rng(hseed).NextBytes(64);
  nope::Rng sig_rng(DeriveSeed(args.seed, "sig"));
  nope::EcdsaKeyPair ec = nope::GenerateEcdsaKey(&sig_rng);
  nope::EcdsaSignature ec_sig = nope::EcdsaSign(ec.priv, message);
  bool sig_ok = true;
  result->Add("sig.ecdsa_verify_us", 1000.0 * Median(Repeat(t, "sig.ecdsa_verify", 50, [&] {
                sig_ok &= nope::EcdsaVerify(ec.pub, message, ec_sig);
              })),
              "us");
  const nope::RsaPrivateKey& rsa_key =
      dns->Find(nope::DnsName::FromString("example.org"))->zsk().rsa;
  Bytes rsa_sig = nope::RsaSign(rsa_key, message);
  result->Add("sig.rsa_verify_us", 1000.0 * Median(Repeat(t, "sig.rsa_verify", 50, [&] {
                sig_ok &= nope::RsaVerify(rsa_key.pub, message, rsa_sig);
              })),
              "us");
  result->Check(sig_ok, "signatures verify");
}

// --- fleet: service admission + DRR, base timer wheel, metrics -----------------

struct TinyKey : nope::CachedKey {
  size_t SizeBytes() const override { return 64; }
};

void TraceFleet(const Args& args, Tracer* t, Result* result) {
  nope::FleetReport report;
  {
    ScopedSpan span(t, "fleet.run");
    report = nope::FleetSimulator(FleetWorkloadConfig(args.seed)).Run();
  }
  result->Check(report.stats.cert_misses == 0, "fleet cert_misses == 0");
  result->Add("fleet.events", report.event_count, "count");
  result->Add("service.jobs_ok", report.stats.jobs_ok, "count");
  result->Add("service.jobs_shed", report.stats.jobs_shed, "count");

  // Timer wheel: schedule then fire timers spread over the fleet's 30 days.
  constexpr uint64_t kTimers = 200'000;
  constexpr uint64_t kHorizonMs = 30ull * 24 * 3600 * 1000;
  {
    ScopedSpan span(t, "base.timer_wheel");
    nope::TimerWheel wheel(0, 100);
    nope::Rng rng(DeriveSeed(args.seed, "timers"));
    for (uint64_t i = 0; i < kTimers; ++i) {
      wheel.Schedule(rng.NextBelow(kHorizonMs), i);
    }
    uint64_t fired = 0;
    wheel.AdvanceTo(kHorizonMs, [&](uint64_t, uint64_t) { ++fired; });
    double ms = span.ms();
    result->Check(fired == kTimers, "every scheduled timer fires");
    result->Add("base.timer_wheel.schedule_fire_ns", ms * 1e6 / kTimers, "ns");
  }

  // ProvingService: submit simulated jobs on a SimClock and pump them.
  constexpr int kJobs = 20'000;
  {
    nope::SimClock clock(0);
    nope::MetricsRegistry metrics;
    nope::KeyCache cache(1 << 20, &metrics);
    nope::ProvingServiceConfig config;
    config.max_queue_depth = kJobs;
    nope::ProvingService service(config, &clock, &cache, &metrics);
    auto key = std::make_shared<TinyKey>();
    ScopedSpan span(t, "service.submit_pump");
    size_t admitted = 0;
    for (int i = 0; i < kJobs; ++i) {
      nope::ProveRequest req;
      req.domain = "tenant" + std::to_string(i % 8);
      req.circuit_id = "toy";
      req.statement = nope::MakeSimulatedStatement(&clock, 1'000, 1'000);
      req.key_loader = [key] { return key; };
      admitted += service.Submit(std::move(req)).admission == nope::Admission::kAdmitted;
    }
    service.RunUntilIdle();
    double ms = span.ms();
    size_t ok = 0;
    for (const nope::JobResult& r : service.results()) {
      ok += r.outcome == nope::JobOutcome::kOk;
    }
    result->Check(admitted == kJobs && ok == kJobs, "every simulated job admitted and proved");
    result->Add("service.submit_pump_us", ms * 1000.0 / kJobs, "us");
  }

  // MetricsRegistry: name lookup plus increment, as the renewal path does.
  {
    nope::MetricsRegistry metrics;
    std::vector<std::string> names;
    for (int i = 0; i < 64; ++i) {
      names.push_back("renewal.event_" + std::to_string(i));
    }
    constexpr int kIncs = 1'000'000;
    ScopedSpan span(t, "service.metrics_inc");
    for (int i = 0; i < kIncs; ++i) {
      metrics.GetCounter(names[i & 63])->Increment();
    }
    double ms = span.ms();
    result->Check(metrics.GetCounter(names[0])->value() == kIncs / 64,
                  "metrics counters add up");
    result->Add("service.metrics_inc_ns", ms * 1e6 / kIncs, "ns");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  std::string host = HostJson(args);
  std::printf("{\"host\": %s}\n", host.c_str());
  Tracer tracer;
  Result result;
  // Unscaled here; the canary's mean says how fast the core ran meanwhile.
  if (!StartCanary()) {
    std::fprintf(stderr, "canary timer unavailable\n");
  }
  {
    ScopedSpan all(&tracer, "trace");
    RotationOutput rotation = TraceRotation(args, &tracer, &result);
    TraceHandshake(args, &tracer, &result, rotation);
    TraceRenewalSweep(args, &tracer, &result);
    TraceFleet(args, &tracer, &result);
  }
  StopCanary();
  result.Add("bench.canary_us", CanaryMeanUs(), "us");
  result.Add("trace.spans", tracer.spans().size(), "count");
  result.Add("bench.failure_rate",
             static_cast<double>(result.failed()) / static_cast<double>(result.attempted()),
             "frac");
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out, host)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  result.Print();
  return 0;
}
