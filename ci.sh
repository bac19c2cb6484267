#!/bin/bash
# CI entry point: plain tier-1 build + tests, a build and one-second smoke
# run of the benchmark (perfbench/) on the rotation and handshake workloads,
# then an ASan/UBSan build that re-runs the fast tests plus the
# fault-injection and renewal-simulation harnesses, the R1CS
# optimizer-equivalence tests and reduced-budget gadget audit, and a seeded
# ~200-scenario sweep of the scenario zoo, then a
# TSan build (NOPE_SANITIZE=thread) that runs the thread-pool,
# cross-thread-count determinism, and cancellation tests plus a small-fleet
# replay of the fleet simulator.
# Fails fast and names the failing stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== stage 1: plain build ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

echo "=== stage 2: tier-1 tests ==="
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "=== stage 2b: benchmark build + smoke run ==="
# perfbench/ builds on its own from the src/ libraries and calls the
# prover's and the verifier's public API, and nothing above builds it. Build
# both of its programs, then run the two workloads that reach the prover
# and the verifier for one second each; each must print a result line with
# "correct": true.
cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build .bench_build/perfbench -j "$(nproc)" --target nope_bench nope_bench_trace
for workload in rotation handshake; do
  result="$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 | tail -n 1)"
  echo "$workload: $result"
  if ! grep -q '"correct": true' <<< "$result"; then
    echo "FAILED: perfbench $workload did not report \"correct\": true" >&2
    exit 1
  fi
done

echo "=== stage 3: ASan/UBSan build ==="
cmake -B build-san -S . -DNOPE_SANITIZE=address,undefined >/dev/null
# The sanitizer run covers the untrusted-input surface: every unit-test
# binary that feeds parsers, plus the fault-injection campaigns.
SAN_TARGETS=(biguint_test hash_test field_test fp_simd_test curve_test
             pairing_test rsa_test ecdsa_test
             constraint_system_test groth16_test msm_kernel_test dns_test
             pki_test analysis_test fault_injection_test
             clock_test timer_wheel_test cancellation_test renewal_sim_test
             key_cache_test service_test scenario_test fleet_sim_test
             verifier_soundness_test batch_verify_test)
cmake --build build-san -j "$(nproc)" --target "${SAN_TARGETS[@]}" \
  r1cs_opt_test gadget_audit_test bench_scenario_sweep

echo "=== stage 4: sanitized tests ==="
for t in "${SAN_TARGETS[@]}"; do
  echo "--- $t (ASan/UBSan) ---"
  ./build-san/tests/"$t"
done

echo "=== stage 4a: R1CS optimizer equivalence + gadget audit (ASan/UBSan) ==="
# Optimizer unit + Map/Lift equivalence tests under the sanitizers; the
# OptimizerStatement.* suite (full-statement builds plus Groth16 proving) is
# minutes-long even unsanitized, so it runs in the plain tier-1 stage only.
./build-san/tests/r1cs_opt_test --gtest_filter='Optimizer.*'
# Full per-gadget mutation audit with a reduced per-gadget assignment budget
# (the plain ctest run uses the default 1000); still runs every registered
# gadget pre- and post-optimization and both broken fixtures.
NOPE_AUDIT_BUDGET=100 ./build-san/tests/gadget_audit_test

echo "=== stage 4b: seeded scenario sweep smoke (ASan/UBSan) ==="
# ~200 generated DNSSEC/PKI scenarios through the full issuance/renewal/
# verification lifecycle: any crash, sanitizer report, or per-class invariant
# abort fails CI. Run twice and require byte-identical outcome matrices — the
# sweep's replayability contract.
sweep_digest() {
  ./build-san/bench/bench_scenario_sweep --scenarios=200 --seed=6 \
    | grep '^matrix digest'
}
d1="$(sweep_digest)"
d2="$(sweep_digest)"
echo "sweep: $d1"
if [ "$d1" != "$d2" ]; then
  echo "FAILED: scenario sweep is not deterministic ($d1 vs $d2)" >&2
  exit 1
fi

echo "=== stage 4c: SIMD backend digest identity ==="
# The determinism contract across SIMD backends is cross-PROCESS (the
# NOPE_SIMD env is read once per process), so it cannot live in a gtest:
# run the digest binary under every backend x thread-count combination and
# require bit-identical stdout. Covers MSM result bytes, full Groth16
# proof bytes, the outputs of a 2^12 FFT chain and of a 9 * 2^10 one (the
# radix-3 butterflies), witness-shaped G1/G2 MSMs (mostly zero and one
# scalars) that run every part of MsmAffine's density split (the
# short-scalar part, the GLV tail and the G2 tail),
# P-256 keys, signatures and verdicts, a prepared key's IC sums and every
# point of a seeded trusted setup, all on tables that BatchToAffine builds
# on the SIMD backend. An unset NOPE_SIMD picks the widest kernel, so on an
# AVX-512 host the AVX2 kernel runs only under NOPE_SIMD=avx2; its
# differential test runs here too.
cmake --build build -j "$(nproc)" --target simd_determinism_main fp_simd_test >/dev/null
ref="$(NOPE_SIMD=off NOPE_THREADS=1 ./build/tests/simd_determinism_main 2>/dev/null)"
# The reference must also match the digests pinned in the binary's header.
pinned="$(grep -oE '(msm|proof|fft|witness_msm|ecdsa|ic|setup|radix3)_digest=[0-9a-f]{16}' \
  tests/simd_determinism_main.cc)"
if [ "$ref" != "$pinned" ]; then
  echo "FAILED: digests differ from those pinned in simd_determinism_main.cc" >&2
  echo "want: $pinned" >&2
  echo "got:  $ref" >&2
  exit 1
fi
for simd in off avx2 ""; do
  for threads in 1 2 7; do
    got="$(env -u NOPE_SIMD ${simd:+NOPE_SIMD=$simd} NOPE_THREADS=$threads \
      ./build/tests/simd_determinism_main 2>/dev/null)"
    if [ "$got" != "$ref" ]; then
      echo "FAILED: digest mismatch at NOPE_SIMD=${simd:-unset} NOPE_THREADS=$threads" >&2
      echo "want: $ref" >&2
      echo "got:  $got" >&2
      exit 1
    fi
  done
done
echo "digests identical across NOPE_SIMD={off,avx2,unset} x NOPE_THREADS={1,2,7}"
if grep -qw avx2 /proc/cpuinfo; then
  echo "--- fp_simd_test (NOPE_SIMD=avx2) ---"
  avx2_out="$(NOPE_SIMD=avx2 ./build/tests/fp_simd_test)"
  echo "$avx2_out"
  if ! grep -q 'backend=avx2' <<< "$avx2_out"; then
    echo "FAILED: NOPE_SIMD=avx2 did not select the AVX2 kernel" >&2
    exit 1
  fi
fi

echo "=== stage 4d: NOPE_SIMD=off build ==="
# The scalar-only configuration must build and pass the field/MSM/Groth16
# tests on its own: hosts that are not x86-64 compile no SIMD translation
# units at all, and this leg keeps that path honest.
cmake -B build-nosimd -S . -DNOPE_SIMD=OFF >/dev/null
NOSIMD_TARGETS=(field_test fp_simd_test msm_kernel_test groth16_test)
cmake --build build-nosimd -j "$(nproc)" --target "${NOSIMD_TARGETS[@]}" \
  simd_determinism_main
for t in "${NOSIMD_TARGETS[@]}"; do
  echo "--- $t (NOPE_SIMD=OFF) ---"
  ./build-nosimd/tests/"$t"
done
# Cross-BUILD digest identity: a binary with no SIMD kernels compiled in
# must produce the same proof bytes and split-path MSM results as the SIMD
# build.
got="$(./build-nosimd/tests/simd_determinism_main 2>/dev/null)"
if [ "$got" != "$ref" ]; then
  echo "FAILED: NOPE_SIMD=OFF build digest mismatch" >&2
  exit 1
fi
echo "NOPE_SIMD=OFF build digests match the SIMD build"

echo "=== stage 5: TSan build (parallel proving) ==="
cmake -B build-tsan -S . -DNOPE_SANITIZE=thread >/dev/null
TSAN_TARGETS=(threadpool_test fp_simd_test msm_kernel_test
              parallel_determinism_test
              cancellation_test renewal_sim_test key_cache_test service_test
              batch_verify_test)
cmake --build build-tsan -j "$(nproc)" --target "${TSAN_TARGETS[@]}" fleet_sim_test

echo "=== stage 6: TSan tests ==="
for t in "${TSAN_TARGETS[@]}"; do
  echo "--- $t (TSan) ---"
  ./build-tsan/tests/"$t"
done

echo "=== stage 6b: TSan small-fleet replay (10^3 domains, bursts on) ==="
# The fleet simulator's determinism contract, exercised with the race
# detector watching the prover worker / pump interactions: a 1000-domain,
# 20-day fleet with Poisson bursts must replay byte-identically.
./build-tsan/tests/fleet_sim_test \
  --gtest_filter='FleetSim.SmallFleetReplaysByteIdentically:FaultBurstDriver.*'

echo "CI OK"
