// Host-speed canary for the end-to-end run.
//
// On a 4-core Xeon (2.1 GHz) virtual machine whose cores are shared with
// other tenants, the same code runs up to 2x slower for seconds at a time, on
// one vCPU and not the others, with no steal time reported; thread CPU time
// shows it too (README.md, "Noise"). Raw latencies of one workload there
// spread 15-40% across runs, as wide as any bound a regression check can use.
//
// The canary measures how fast the benchmark's own core runs while the
// workload runs: a POSIX timer interrupts the measuring thread every 10 ms
// and its handler times a fixed kernel of eight independent 64x64->128-bit
// multiply chains (the instruction mix of the Montgomery multiplication that
// dominates every workload). A canary sampled on another core does not
// track the slowdowns; one sampled on the same thread does.
//
// bench_main scales every time it reports with ScaledMs(), so a run reports
// what it would have measured at the reference speed, and prints the raw
// times on a line of their own. The kernel is the benchmark's own code, so a
// change to the repository cannot move it.
#ifndef PERFBENCH_CANARY_H_
#define PERFBENCH_CANARY_H_

#include <cstddef>

namespace perfbench {

// Starts sampling on the calling thread. Returns false if the timer cannot
// be created (the run then reports unscaled times).
bool StartCanary();
void StopCanary();

size_t CanarySamples();
// Mean kernel time over every sample so far, in microseconds.
double CanaryMeanUs();

// The time from start_ms to end_ms (NowMs() readings on the sampling
// thread) at the reference speed: minus the canary's own interruptions, and
// scaled by the reference kernel time over the mean sample taken within
// 50 ms of the interval. Call it after sampling has stopped, so the samples
// after the interval exist. Unscaled when no sample is that close.
double ScaledMs(double start_ms, double end_ms);

}  // namespace perfbench

#endif  // PERFBENCH_CANARY_H_
