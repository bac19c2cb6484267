// The inputs of the four workloads, each a pure function of the seed, and
// the checks on their outputs. Shared by the untraced run (bench_main.cc)
// and the traced run (trace_main.cc) so both measure the same worlds.
#ifndef PERFBENCH_WORLDS_H_
#define PERFBENCH_WORLDS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/nope.h"
#include "src/fleet/fleet_sim.h"
#include "src/scenario/runner.h"

namespace perfbench {

// Inside the simulated hierarchy's RRSIG validity window.
constexpr uint64_t kNow = 1750000000;
constexpr uint64_t kVerifyAt = kNow + 60;

// --- rotation ----------------------------------------------------------------

// The operator's world: a Toy-suite hierarchy with one seeded one-level domain
// and its trusted setup for StatementOptions::Full(). Constructing it is the
// workload's set-up.
struct RotationWorld {
  explicit RotationWorld(uint64_t seed);

  nope::DnssecHierarchy dns;
  nope::DnsName domain;
  std::string ca_name = "lets-encrypt-sim";
  nope::NopeDeployment deployment;
  nope::Rng key_rng;     // a fresh TLS key per rotation
  nope::Rng prover_rng;  // Groth16 blinding
};

// One rotation's output check: the proof verifies on its public inputs and
// its SANs decode back to the same 128 proof bytes.
bool RotationOutputOk(const RotationWorld& world, const nope::Bytes& tls_key, uint64_t ts,
                      const nope::NopeProofBundle& bundle, std::string* why);

// --- handshake ---------------------------------------------------------------

enum class ChainClass {
  kNope,          // valid NOPE chain -> ok, accepted
  kLegacy,        // no proof SANs -> no-nope-proof, accepted (legacy fallback)
  kStolenProof,   // victim's proof SANs on the attacker's key -> proof-rejected
  kMauledProof,   // proof SAN re-encoded with A's sign bit flipped -> proof-rejected
  kCorruptSan,    // a proof SAN character outside the alphabet -> bad-proof-encoding,
                  // accepted (graceful downgrade)
};
const char* ChainClassName(ChainClass cls);
nope::NopeVerifyStatus ExpectedStatus(ChainClass cls);
bool ExpectedAccepted(ChainClass cls);

// A client's world: one deployment, a CA with two CT logs, and the chains
// servers present. The deployment is a stand-in circuit with the real Toy
// Full() statement's public-input layout (2 name chunks + 5 inputs for a
// one-level domain), so verification does exactly the real work: Groth16
// verification cost depends only on the public inputs, never on the circuit.
// A real trusted setup plus two proofs would add ~80 s of set-up per run.
struct HandshakeWorld {
  explicit HandshakeWorld(uint64_t seed);
  HandshakeWorld(const HandshakeWorld&) = delete;
  HandshakeWorld& operator=(const HandshakeWorld&) = delete;

  struct Presented {
    ChainClass cls;
    nope::DnsName domain;
    nope::CertificateChain chain;
  };

  // The stream is made of shuffled blocks of kBlock chains with an exact
  // mix: 10 NOPE over three domains, 7 legacy over two, and one each of
  // stolen, mauled and corrupt.
  static constexpr size_t kBlock = 20;

  nope::Rng rng;
  nope::CtLog log1;
  nope::CtLog log2;
  nope::CertificateAuthority ca;
  nope::TrustStore trust;
  nope::NopeDeployment deployment;
  std::vector<Presented> chains;  // the distinct chains
  std::vector<size_t> stream;     // seeded presentation order into `chains`
};

// --- renewal_sweep -----------------------------------------------------------

// `rounds` rounds of 13 GenerateScenario specs from a seeded sweep, one per
// class in class order (the generator round-robins classes on the index).
// The window is stratified by chain depth: it keeps only specs two zones
// deep (four for deep_delegation, whose range is 4-6). A ca_outage scenario
// costs about 0.8 s per zone, so an unstratified window's cost would vary
// six-fold with the seed; stratified, every round costs the same and the
// seed still picks everything else (labels, algorithms, faults, rollovers).
std::vector<nope::ScenarioSpec> ScenarioWindow(uint64_t seed, size_t rounds);

// The class invariants from DESIGN.md's scenario table, checked from the
// outside on the runner's result.
bool ScenarioOutcomeOk(const nope::ScenarioSpec& spec, const nope::ScenarioResult& result,
                       std::string* why);

// --- fleet -------------------------------------------------------------------

// 10^6 domains, 30 simulated days, 1x offered proving load, light bursts.
nope::FleetConfig FleetWorkloadConfig(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORLDS_H_
