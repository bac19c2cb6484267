// Proving-service load sweep: open-loop arrivals against the
// multi-tenant ProvingService at three offered-load levels (0.5x, 1.0x, 2.0x
// of the single-prover service rate), reporting end-to-end latency
// percentiles, goodput, and shed rate. Everything runs under SimClock: the
// "prover" burns a fixed 1000ms of simulated time per job, arrivals follow a
// fixed open-loop schedule (they do not wait for the queue), and every job
// carries an arrival-relative deadline — so at 2x overload the sweep shows
// admission control and deadline shedding converting an unbounded backlog
// into bounded latency plus an explicit shed rate, instead of a collapse.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/clock.h"
#include "src/service/proving_service.h"

using namespace nope;

namespace {

constexpr uint64_t kServiceMs = 1000;    // simulated prove time per job
constexpr uint64_t kDeadlineMs = 8000;   // arrival-relative deadline
constexpr size_t kJobs = 400;            // arrivals per load level
constexpr size_t kTenants = 4;

struct LoadResult {
  size_t arrivals = 0;
  size_t ok = 0;
  size_t rejected = 0;   // admission control (queue full / infeasible)
  size_t shed = 0;       // expired at dequeue or cancelled mid-prove
  double p50_ms = 0;
  double p99_ms = 0;
  double goodput_per_s = 0;  // completed-in-deadline jobs per simulated second
  double shed_rate = 0;      // (rejected + shed) / arrivals
};

// Statement burning kServiceMs of simulated time in slices, honoring the
// job's deadline token at each slice boundary (the sim twin of
// groth16::Prove's stage/chunk cancellation).
ProveStatement BurnStatement(SimClock* clock) {
  return [clock](const CachedKey*, const CancellationToken& cancel) -> Status {
    for (uint64_t burned = 0; burned < kServiceMs; burned += 100) {
      if (cancel.cancelled()) {
        return Error(ErrorCode::kCancelled, "deadline hit mid-prove");
      }
      clock->AdvanceMs(100);
    }
    return Status::Ok();
  };
}

LoadResult RunLoad(double offered_load) {
  SimClock clock(1'000'000);
  MetricsRegistry metrics;
  ProvingServiceConfig config;
  config.max_queue_depth = 32;
  config.quantum_ms = kServiceMs;
  ProvingService service(config, &clock, /*cache=*/nullptr, &metrics);

  // Open loop: arrival i happens at start + i * (service_time / load),
  // whether or not the service has kept up.
  const uint64_t start = clock.NowMs();
  const uint64_t interarrival =
      static_cast<uint64_t>(static_cast<double>(kServiceMs) / offered_load);
  std::vector<uint64_t> arrival_at(kJobs);
  for (size_t i = 0; i < kJobs; ++i) {
    arrival_at[i] = start + i * interarrival;
  }

  LoadResult out;
  out.arrivals = kJobs;
  std::map<uint64_t, uint64_t> arrived_ms;  // job_id -> arrival time

  size_t next = 0;
  while (next < kJobs || service.queue_depth() > 0) {
    if (service.queue_depth() == 0 && next < kJobs &&
        clock.NowMs() < arrival_at[next]) {
      clock.AdvanceMs(arrival_at[next] - clock.NowMs());  // idle until arrival
    }
    while (next < kJobs && arrival_at[next] <= clock.NowMs()) {
      ProveRequest req;
      req.domain = "tenant-" + std::to_string(next % kTenants);
      req.circuit_id = "cubic";
      req.statement = BurnStatement(&clock);
      req.cost_estimate_ms = kServiceMs;
      req.deadline_ms = arrival_at[next] + kDeadlineMs;
      auto submitted = service.Submit(std::move(req));
      if (submitted.admission == Admission::kAdmitted) {
        arrived_ms[submitted.job_id] = arrival_at[next];
      } else {
        ++out.rejected;
      }
      ++next;
    }
    service.PumpOne();  // burns service time, possibly past later arrivals
  }

  bench::Samples latencies_ms;
  for (const JobResult& r : service.results()) {
    if (r.outcome == JobOutcome::kOk) {
      ++out.ok;
      latencies_ms.Add(static_cast<double>(r.finished_ms - arrived_ms[r.job_id]));
    } else {
      ++out.shed;
    }
  }
  uint64_t elapsed_ms = clock.NowMs() - start;
  out.p50_ms = latencies_ms.Percentile(0.50);
  out.p99_ms = latencies_ms.Percentile(0.99);
  out.goodput_per_s = elapsed_ms == 0 ? 0
                                      : static_cast<double>(out.ok) * 1000.0 /
                                            static_cast<double>(elapsed_ms);
  out.shed_rate = static_cast<double>(out.rejected + out.shed) /
                  static_cast<double>(out.arrivals);
  return out;
}

}  // namespace

int main() {
  const double loads[] = {0.5, 1.0, 2.0};

  printf("=== Proving service under open-loop load ===\n");
  printf("%zu arrivals per level, %zu tenants, %llums service time, %llums "
         "arrival-relative deadlines, queue depth %d\n\n",
         kJobs, kTenants, static_cast<unsigned long long>(kServiceMs),
         static_cast<unsigned long long>(kDeadlineMs), 32);
  printf("%-8s %10s %10s %12s %10s %8s %8s %8s\n", "load", "p50_ms", "p99_ms",
         "goodput/s", "shed_rate", "ok", "rej", "shed");

  const bench::Emitter emit("service_load");

  for (double load : loads) {
    LoadResult r = RunLoad(load);
    printf("%-8.1f %10.0f %10.0f %12.2f %10.3f %8zu %8zu %8zu\n", load, r.p50_ms,
           r.p99_ms, r.goodput_per_s, r.shed_rate, r.ok, r.rejected, r.shed);

    std::string tag = "load" + std::to_string(static_cast<int>(load * 100));
    emit("p50_latency_ms_" + tag, r.p50_ms);
    emit("p99_latency_ms_" + tag, r.p99_ms);
    emit("goodput_jobs_per_s_" + tag, r.goodput_per_s);
    emit("shed_rate_" + tag, r.shed_rate);
  }
  return 0;
}
