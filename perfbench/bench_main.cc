// nope_bench: the untraced end-to-end run of one workload.
//
//   nope_bench --workload rotation|handshake|renewal_sweep|fleet --seed N --seconds S
//
// Each workload is a closed loop with one caller (an operator or a client
// waiting for its own result), runs for S seconds after its set-up, checks
// every output outside the timed region, and prints the host fingerprint
// line, a line of raw (unscaled) figures, and then the result line. Every
// workload reports the same four metrics, each defined on that workload's
// headline operation (README.md maps them to the paper's costs):
//   op_p50_ms    median operation latency
//   ops_per_s    operations per second of operation time
//   setup_s      median set-up time
//   peak_rss_mb  peak resident set size
// Times are scaled to the reference host speed by the canary (canary.h).
// The 90th percentile is on the raw line only: of the four workloads only
// handshake runs the eleven or more operations a run needs for it.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "perfbench/canary.h"
#include "perfbench/harness.h"
#include "perfbench/worlds.h"

namespace perfbench {
namespace {

using nope::Bytes;

// One timed interval; Summarize scales it once the canary has stopped.
struct Timed {
  double start_ms = 0;
  double end_ms = 0;
};

Timed Since(double start_ms) { return {start_ms, NowMs()}; }

struct Samples {
  std::vector<Timed> op;     // the headline operation
  std::vector<Timed> all;    // every operation, for throughput
  std::vector<Timed> setup;
};

bool TimeLeft(double start_ms, const Args& args) {
  return NowMs() - start_ms < args.seconds * 1000.0;
}

// Operator key rotation: GenerateNopeProof with a fresh TLS key each time.
Samples RunRotation(const Args& args, Result* result) {
  Samples s;
  double t0 = NowMs();
  RotationWorld world(args.seed);
  s.setup.push_back(Since(t0));

  double start = NowMs();
  for (uint64_t i = 0; TimeLeft(start, args); ++i) {
    Bytes key = nope::GenerateEcdsaKey(&world.key_rng).pub.Encode();
    uint64_t ts = kNow + 600 * i;  // one issuance-time bucket per rotation
    double a = NowMs();
    nope::NopeProofBundle bundle = nope::GenerateNopeProof(
        world.deployment, &world.dns, world.domain, key, world.ca_name, ts, &world.prover_rng);
    s.op.push_back(Since(a));
    std::string why;
    result->Check(RotationOutputOk(world, key, ts, bundle, &why), why);
  }
  s.all = s.op;
  return s;
}

// Client handshakes: the seeded chain mix through the plain NopeClientVerify
// overload (no prepared-key cache). The headline latency is over accepted
// NOPE chains only, so the bimodal mix stays out of the median. Stops at a
// block boundary of the stream, so every run sends the same mix.
Samples RunHandshake(const Args& args, Result* result) {
  Samples s;
  std::unique_ptr<HandshakeWorld> world;
  for (int i = 0; i < 3; ++i) {
    world.reset();
    double t0 = NowMs();
    world = std::make_unique<HandshakeWorld>(args.seed);
    s.setup.push_back(Since(t0));
  }

  double start = NowMs();
  for (size_t k = 0; k % HandshakeWorld::kBlock != 0 || TimeLeft(start, args); ++k) {
    const HandshakeWorld::Presented& p = world->chains[world->stream[k % world->stream.size()]];
    double a = NowMs();
    nope::NopeClientResult r = nope::NopeClientVerify(world->deployment, p.chain, world->trust,
                                                      p.domain, kVerifyAt, nullptr);
    Timed t = Since(a);
    s.all.push_back(t);
    if (p.cls == ChainClass::kNope && r.accepted) {
      s.op.push_back(t);
    }
    result->Check(r.status == ExpectedStatus(p.cls) && r.accepted == ExpectedAccepted(p.cls),
                  std::string("handshake verdict for ") + ChainClassName(p.cls) + ": " +
                      nope::NopeVerifyStatusName(r.status));
  }
  return s;
}

// The scenario sweep: RunScenario over whole rounds of the 13 classes, one
// scenario per class. The headline operation is a round (its latency is the
// sweep's), throughput counts scenarios. Set-up is the window's generation
// plus a warm-up pass over the first round's cheap classes, which pays the
// one-time static initialisation a long-running sweep pays once.
Samples RunRenewalSweep(const Args& args, Result* result) {
  constexpr size_t kWindowRounds = 40;
  Samples s;
  std::vector<nope::ScenarioSpec> specs;
  for (int i = 0; i < 3; ++i) {
    double t0 = NowMs();
    specs = ScenarioWindow(args.seed, kWindowRounds);
    for (int c = 0; c < nope::kNumScenarioClasses; ++c) {
      if (specs[c].cls != nope::ScenarioClass::kCaOutage) {
        nope::RunScenario(specs[c]);
      }
    }
    s.setup.push_back(Since(t0));
  }

  nope::OutcomeMatrix first_round;
  double start = NowMs();
  for (size_t round = 0; round == 0 || TimeLeft(start, args); ++round) {
    double round_start = NowMs();
    for (int c = 0; c < nope::kNumScenarioClasses; ++c) {
      const nope::ScenarioSpec& spec =
          specs[(round * nope::kNumScenarioClasses + c) % specs.size()];
      double a = NowMs();
      nope::ScenarioResult r = nope::RunScenario(spec);
      s.all.push_back(Since(a));
      std::string why;
      result->Check(ScenarioOutcomeOk(spec, r, &why), why);
      if (round == 0) {
        first_round.Record(spec, r);
      }
    }
    s.op.push_back(Since(round_start));
  }

  // Replay the first round: the outcome-matrix digest must repeat.
  nope::OutcomeMatrix replay;
  for (int c = 0; c < nope::kNumScenarioClasses; ++c) {
    replay.Record(specs[c], nope::RunScenario(specs[c]));
  }
  result->Check(replay.Digest() == first_round.Digest(), "scenario matrix digest repeats");
  return s;
}

// The fleet: FleetSimulator over 10^6 domains and 30 simulated days; the
// operation builds a simulator and runs it. Set-up is a first, warm-up
// simulation: the first one in a process runs up to 1.6x slower (fresh pages
// for 10^6 domains and the timer wheel).
Samples RunFleet(const Args& args, Result* result) {
  Samples s;
  nope::FleetConfig config = FleetWorkloadConfig(args.seed);
  double t0 = NowMs();
  const uint64_t digest = nope::FleetSimulator(config).Run().event_digest;
  s.setup.push_back(Since(t0));

  double start = NowMs();
  while (s.op.size() < 2 || TimeLeft(start, args)) {
    double a = NowMs();
    nope::FleetReport report = nope::FleetSimulator(config).Run();
    s.op.push_back(Since(a));
    result->Check(report.stats.cert_misses == 0, "fleet cert_misses == 0");
    result->Check(report.event_digest == digest, "fleet event digest repeats");
  }
  s.all = s.op;
  return s;
}

// The four timing metrics, scaled to the reference speed or as measured.
struct Figures {
  double p50_ms, p90_ms, ops_per_s, setup_s;
};

Figures Summarize(const Samples& s, bool scaled) {
  auto pick = [scaled](const std::vector<Timed>& v) {
    std::vector<double> out;
    for (const Timed& t : v) {
      out.push_back(scaled ? ScaledMs(t.start_ms, t.end_ms) : t.end_ms - t.start_ms);
    }
    return out;
  };
  std::vector<double> op = pick(s.op);
  std::vector<double> all = pick(s.all);
  return {Median(op), Percentile(op, 90), static_cast<double>(all.size()) / (Sum(all) / 1000.0),
          Median(pick(s.setup)) / 1000.0};
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  const std::map<std::string, std::function<Samples(const Args&, Result*)>> workloads = {
      {"rotation", RunRotation},
      {"handshake", RunHandshake},
      {"renewal_sweep", RunRenewalSweep},
      {"fleet", RunFleet},
  };
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("{\"host\": %s}\n", HostJson(args).c_str());
  if (!StartCanary()) {
    std::fprintf(stderr, "canary timer unavailable: reporting unscaled times\n");
  }
  Result result;
  Samples s = it->second(args, &result);
  StopCanary();

  Figures raw = Summarize(s, /*scaled=*/false);
  Figures scaled = Summarize(s, /*scaled=*/true);
  std::printf("{\"raw\": {\"op_p50_ms\": %.6g, \"op_p90_ms\": %.6g, \"ops_per_s\": %.6g, "
              "\"setup_s\": %.6g, \"ops\": %zu, \"canary_mean_us\": %.4g, "
              "\"canary_samples\": %zu, \"scaled_op_p90_ms\": %.6g}}\n",
              raw.p50_ms, raw.p90_ms, raw.ops_per_s, raw.setup_s, s.all.size(), CanaryMeanUs(),
              CanarySamples(), scaled.p90_ms);
  result.Add("op_p50_ms", scaled.p50_ms, "ms");
  result.Add("ops_per_s", scaled.ops_per_s, "1/s");
  result.Add("setup_s", scaled.setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Print();
  return 0;
}
