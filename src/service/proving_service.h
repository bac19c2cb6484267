// Multi-tenant proving service: the front door the renewal fleet and a
// CA-scale issuer submit proving jobs through (ISSUE 5; paper §5, §8
// deployment story — one operator proving for thousands of tenant domains).
//
// ProvingService is an in-process, deterministic-under-SimClock job server:
//
//   Submit()   — admission control. A request is rejected (never queued)
//                when the bounded queue is full or when its deadline cannot
//                be met even if it ran immediately (now + cost_estimate >
//                deadline). Admitted jobs enter their domain's queue,
//                ordered by (priority desc, arrival).
//   PumpOne()  — dequeues and runs exactly one job, chosen by weighted
//                fair scheduling (deficit round-robin over domains in
//                lexicographic order; a domain earns quantum_ms * weight of
//                service credit per round and is charged each job's
//                cost_estimate_ms). Jobs that can no longer meet their
//                deadline (now + cost_estimate > deadline, the admission
//                predicate re-checked) — or whose CancellationSource fired
//                while queued — are shed at dequeue without charging the
//                domain.
//   The job's statement callback runs on the calling thread with (a) the
//   pinned KeyCache entry for its circuit and (b) a CancellationToken that
//   fires on Cancel(job_id) or deadline expiry, so a mid-prove overrun
//   aborts at the next groth16::Prove stage/chunk boundary. Data
//   parallelism happens inside the statement (the prover's ParallelFor
//   loops), never by running two jobs concurrently — that is what makes the
//   event log and metrics snapshot byte-identical for any NOPE_THREADS,
//   extending the PR 2–4 determinism contract to the serving layer.
//
// Every decision is recorded twice: as a typed event in EventLog() (the
// byte-diffable transcript) and in the MetricsRegistry (see the metric name
// table in DESIGN.md "Proving service").
#ifndef SRC_SERVICE_PROVING_SERVICE_H_
#define SRC_SERVICE_PROVING_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/cancellation.h"
#include "src/base/clock.h"
#include "src/base/result.h"
#include "src/groth16/groth16.h"
#include "src/service/key_cache.h"
#include "src/service/metrics.h"

namespace nope {

// The proving work itself. Receives the pinned cache entry for the request's
// circuit (null when the service runs cache-less) and the job's cancellation
// token, which it must poll cooperatively — groth16::Prove does so at stage
// and chunk boundaries; simulated statements burn SimClock time in slices.
// Return kCancelled once the token fires.
using ProveStatement =
    std::function<Status(const CachedKey* key, const CancellationToken& cancel)>;

struct ProveRequest {
  std::string domain;      // tenant identity for fair scheduling
  std::string circuit_id;  // KeyCache key (RSA vs ECDSA chain shapes, Fig. 3)
  ProveStatement statement;
  KeyCache::Loader key_loader;  // invoked on a cache miss; may be null when
                                // the service has no cache attached
  uint64_t deadline_ms = 0;     // absolute on the service clock; 0 = none
  int priority = 0;             // higher runs earlier within its domain
  // Expected service time; drives admission feasibility and the fair-share
  // charge. An estimate, not a limit — the deadline is the limit. When the
  // service runs with use_cost_model and this is 0, the per-circuit EWMA
  // estimate is used instead (re-read at dequeue, so a queued job's
  // feasibility tracks the model as it learns).
  uint64_t cost_estimate_ms = 1'000;
};

enum class Admission {
  kAdmitted,
  kRejectedQueueFull,   // bounded queue at max_queue_depth
  kRejectedInfeasible,  // could not finish by its deadline even if run now
};
constexpr int kNumAdmissions = static_cast<int>(Admission::kRejectedInfeasible) + 1;
const char* AdmissionName(Admission a);

enum class JobOutcome {
  kOk,
  kFailed,      // statement returned a non-cancellation error
  kCancelled,   // token fired mid-prove (deadline or explicit Cancel)
  kShedExpired,    // cannot meet its deadline at dequeue (now + cost > deadline)
  kShedCancelled,  // CancellationSource fired while queued
};
constexpr int kNumJobOutcomes = static_cast<int>(JobOutcome::kShedCancelled) + 1;
const char* JobOutcomeName(JobOutcome o);

struct JobResult {
  uint64_t job_id = 0;
  std::string domain;
  std::string circuit_id;
  JobOutcome outcome = JobOutcome::kOk;
  std::string error;  // Status string for kFailed / kCancelled
  uint64_t submitted_ms = 0;
  uint64_t started_ms = 0;   // == finished_ms for shed jobs (never ran)
  uint64_t finished_ms = 0;
  bool key_cache_hit = false;
};

struct ProvingServiceConfig {
  size_t max_queue_depth = 64;
  // Deficit round-robin: service credit earned per visit is
  // quantum_ms * weight(domain). Weights default to default_weight.
  uint64_t quantum_ms = 1'000;
  uint32_t default_weight = 1;
  std::map<std::string, uint32_t> domain_weights;
  // Per-circuit EWMA of observed prove cost, substituted for requests that
  // submit cost_estimate_ms == 0. Updated only from kOk completions (shed
  // and cancelled jobs reveal nothing about true cost), on the single pump
  // thread, in completion order — so the model state is a deterministic
  // function of the job history. Fixed-point update:
  //   new = (observed + 3 * old) / 4
  bool use_cost_model = false;
  uint64_t cost_prior_ms = 1'000;  // estimate for never-observed circuits
  // Fleet-scale runs process 10^6+ jobs; keeping every JobResult and event
  // line in memory defeats the point of a flyweight simulator. When false,
  // results()/EventLog() stay empty and only the sinks observe the stream.
  bool record_results = true;
  bool record_events = true;
};

class ProvingService {
 public:
  // clock must outlive the service; cache and metrics may be null.
  ProvingService(const ProvingServiceConfig& config, Clock* clock,
                 KeyCache* cache, MetricsRegistry* metrics);

  struct SubmitResult {
    Admission admission = Admission::kAdmitted;
    uint64_t job_id = 0;  // 0 when rejected
  };
  SubmitResult Submit(ProveRequest req);

  // Runs (or sheds) the next job per the fair schedule. Returns false when
  // the queue is empty. Not reentrant: statements must not call PumpOne.
  bool PumpOne();
  // Pumps until the queue drains; returns the number of jobs processed.
  size_t RunUntilIdle();

  // Fires the job's CancellationSource. A queued job is shed at dequeue; a
  // running job (Cancel called from inside its own statement, or from
  // another thread against a real clock) aborts at its next poll. Returns
  // false when the id is unknown or already finished.
  bool Cancel(uint64_t job_id);

  size_t queue_depth() const { return queued_; }
  const std::vector<JobResult>& results() const { return results_; }

  // Streaming observers for fleet-scale runs (see record_results /
  // record_events). Called synchronously on the pump thread, in the same
  // order the vectors would have recorded; the sink sees every result/event
  // regardless of the record_* flags.
  void SetResultSink(std::function<void(const JobResult&)> sink) {
    result_sink_ = std::move(sink);
  }
  void SetEventSink(std::function<void(uint64_t t_ms, const std::string& line)> sink) {
    event_sink_ = std::move(sink);
  }

  // Current per-circuit cost estimate (cost_prior_ms when never observed).
  // This is what a cost_estimate_ms == 0 request will be charged and what
  // its feasibility check uses.
  uint64_t CostEstimateMs(const std::string& circuit_id) const;

  // Canonical fixed-format transcript, byte-identical across runs and
  // NOPE_THREADS values for the same scenario under SimClock (same format
  // discipline as RenewalManager::EventLog).
  std::string EventLog() const;

 private:
  struct Job {
    uint64_t id = 0;
    ProveRequest req;
    uint64_t submitted_ms = 0;
    CancellationSource cancel_src;
  };
  struct DomainState {
    std::deque<std::unique_ptr<Job>> queue;  // (priority desc, arrival) order
    uint64_t deficit_ms = 0;
    uint32_t weight = 1;
  };

  void Emit(const char* event, const std::string& detail);
  void RunJob(std::unique_ptr<Job> job, DomainState* domain);
  void Shed(std::unique_ptr<Job> job, JobOutcome outcome);
  void FinishJob(std::unique_ptr<Job> job, JobOutcome outcome,
                 const std::string& error, uint64_t started_ms, bool cache_hit);
  uint32_t WeightOf(const std::string& domain) const;
  // The cost used for admission, dequeue-shed, and the DRR charge: the
  // request's own estimate, or the EWMA model when it submitted 0.
  uint64_t EffectiveCostMs(const ProveRequest& req) const;
  void RecordResult(JobResult result);

  ProvingServiceConfig config_;
  Clock* clock_;
  KeyCache* cache_;
  MetricsRegistry* metrics_;

  // Hot-path metric handles (null when metrics_ is null).
  Counter* admitted_ = nullptr;
  Counter* rejected_queue_full_ = nullptr;
  Counter* rejected_infeasible_ = nullptr;
  Counter* shed_expired_ = nullptr;
  Counter* shed_cancelled_ = nullptr;
  Counter* jobs_ok_ = nullptr;
  Counter* jobs_failed_ = nullptr;
  Counter* jobs_cancelled_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
  Histogram* queue_wait_ms_ = nullptr;
  Histogram* run_ms_ = nullptr;
  Histogram* total_latency_ms_ = nullptr;

  std::map<std::string, DomainState> domains_;
  // DRR cursor: the domain to visit next (lexicographic position; "" means
  // start from the beginning).
  std::string cursor_;
  bool cursor_credited_ = false;  // quantum already granted at this cursor stop
  size_t queued_ = 0;
  uint64_t next_job_id_ = 1;
  std::map<uint64_t, Job*> live_jobs_;  // queued or running, for Cancel()

  std::vector<JobResult> results_;
  struct ServiceEvent {
    uint64_t t_ms;
    std::string line;  // "<event> <detail>"
  };
  std::vector<ServiceEvent> events_;
  std::function<void(const JobResult&)> result_sink_;
  std::function<void(uint64_t, const std::string&)> event_sink_;
  std::map<std::string, uint64_t> cost_ewma_;  // circuit_id -> estimate (ms)
};

// --- groth16 integration ----------------------------------------------------

// Cache entry wrapping a full proving key (with its Setup query tables).
struct ProvingKeyEntry : CachedKey {
  groth16::ProvingKey pk;
  size_t SizeBytes() const override;
};

// Statement that proves the assignment `cs` carries with groth16::Prove and
// returns Prove's status unchanged, so a key that does not fit `cs` ends the
// job kFailed with Prove's reason. `cs` and `rng` (and `proof_out`, when
// set) must outlive the job; the checked-out key must be a ProvingKeyEntry.
// When `metrics` is non-null, per-stage prove latencies (measured on
// `clock`) are recorded into "prove.stage_ms.<stage>" histograms.
ProveStatement MakeGroth16Statement(const ConstraintSystem* cs, Rng* rng,
                                    MetricsRegistry* metrics, const Clock* clock,
                                    groth16::Proof* proof_out);

// Statement that burns cost_ms of clock time in slice_ms slices, polling the
// token at each slice boundary — the SimulatedPipeline::GenerateProof model
// as a service job. Lets scenario fleets route their proving stages through
// a ProvingService (admission, fair scheduling, shedding) without paying for
// a real Groth16 prove per scenario. clock must outlive the job.
ProveStatement MakeSimulatedStatement(Clock* clock, uint64_t cost_ms,
                                      uint64_t slice_ms);

}  // namespace nope

#endif  // SRC_SERVICE_PROVING_SERVICE_H_
