#include "src/service/proving_service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/base/check.h"

namespace nope {

namespace {

// Shared latency bucket grid (ms). One grid for every latency histogram
// keeps snapshots comparable across metrics.
const std::vector<uint64_t>& LatencyBoundsMs() {
  static const std::vector<uint64_t> bounds = {1,    5,    10,    50,    100,  500,
                                               1000, 5000, 10000, 60000, 600000};
  return bounds;
}

}  // namespace

const char* AdmissionName(Admission a) {
  switch (a) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kRejectedQueueFull:
      return "rejected_queue_full";
    case Admission::kRejectedInfeasible:
      return "rejected_infeasible";
  }
  return "unknown";
}

const char* JobOutcomeName(JobOutcome o) {
  switch (o) {
    case JobOutcome::kOk:
      return "ok";
    case JobOutcome::kFailed:
      return "failed";
    case JobOutcome::kCancelled:
      return "cancelled";
    case JobOutcome::kShedExpired:
      return "shed_expired";
    case JobOutcome::kShedCancelled:
      return "shed_cancelled";
  }
  return "unknown";
}

ProvingService::ProvingService(const ProvingServiceConfig& config, Clock* clock,
                               KeyCache* cache, MetricsRegistry* metrics)
    : config_(config), clock_(clock), cache_(cache), metrics_(metrics) {
  NOPE_INVARIANT(config_.quantum_ms > 0, "ProvingService: quantum_ms must be > 0");
  NOPE_INVARIANT(config_.default_weight > 0,
                 "ProvingService: default_weight must be > 0");
  for (const auto& [domain, weight] : config_.domain_weights) {
    NOPE_INVARIANT(weight > 0, "ProvingService: domain weight must be > 0");
  }
  if (metrics_ != nullptr) {
    admitted_ = metrics_->GetCounter("service.admitted");
    rejected_queue_full_ = metrics_->GetCounter("service.rejected_queue_full");
    rejected_infeasible_ = metrics_->GetCounter("service.rejected_infeasible");
    shed_expired_ = metrics_->GetCounter("service.shed_expired");
    shed_cancelled_ = metrics_->GetCounter("service.shed_cancelled");
    jobs_ok_ = metrics_->GetCounter("service.jobs_ok");
    jobs_failed_ = metrics_->GetCounter("service.jobs_failed");
    jobs_cancelled_ = metrics_->GetCounter("service.jobs_cancelled");
    queue_depth_gauge_ = metrics_->GetGauge("service.queue_depth");
    queue_wait_ms_ = metrics_->GetHistogram("service.queue_wait_ms", LatencyBoundsMs());
    run_ms_ = metrics_->GetHistogram("service.run_ms", LatencyBoundsMs());
    total_latency_ms_ =
        metrics_->GetHistogram("service.total_latency_ms", LatencyBoundsMs());
  }
}

uint32_t ProvingService::WeightOf(const std::string& domain) const {
  auto it = config_.domain_weights.find(domain);
  return it != config_.domain_weights.end() ? it->second : config_.default_weight;
}

void ProvingService::Emit(const char* event, const std::string& detail) {
  std::string line = event;
  if (!detail.empty()) {
    line += ' ';
    line += detail;
  }
  uint64_t now = clock_->NowMs();
  if (event_sink_) {
    event_sink_(now, line);
  }
  if (config_.record_events) {
    events_.push_back(ServiceEvent{now, std::move(line)});
  }
}

uint64_t ProvingService::CostEstimateMs(const std::string& circuit_id) const {
  auto it = cost_ewma_.find(circuit_id);
  return it != cost_ewma_.end() ? it->second : config_.cost_prior_ms;
}

uint64_t ProvingService::EffectiveCostMs(const ProveRequest& req) const {
  if (config_.use_cost_model && req.cost_estimate_ms == 0) {
    return CostEstimateMs(req.circuit_id);
  }
  return req.cost_estimate_ms;
}

void ProvingService::RecordResult(JobResult result) {
  if (result_sink_) {
    result_sink_(result);
  }
  if (config_.record_results) {
    results_.push_back(std::move(result));
  }
}

std::string ProvingService::EventLog() const {
  std::string out;
  char stamp[32];
  for (const ServiceEvent& e : events_) {
    std::snprintf(stamp, sizeof(stamp), "t=%012llu ",
                  static_cast<unsigned long long>(e.t_ms));
    out += stamp;
    out += e.line;
    out += '\n';
  }
  return out;
}

ProvingService::SubmitResult ProvingService::Submit(ProveRequest req) {
  uint64_t now = clock_->NowMs();
  std::string tag = "domain=" + req.domain + " circuit=" + req.circuit_id;
  if (queued_ >= config_.max_queue_depth) {
    if (rejected_queue_full_ != nullptr) {
      rejected_queue_full_->Increment();
    }
    Emit("rejected_queue_full", tag + " depth=" + std::to_string(queued_));
    return SubmitResult{Admission::kRejectedQueueFull, 0};
  }
  uint64_t cost = EffectiveCostMs(req);
  bool model_cost = cost != req.cost_estimate_ms;
  if (req.deadline_ms != 0 && now + cost > req.deadline_ms) {
    if (rejected_infeasible_ != nullptr) {
      rejected_infeasible_->Increment();
    }
    Emit("rejected_infeasible",
         tag + " deadline=" + std::to_string(req.deadline_ms) + " cost=" +
             std::to_string(cost) + (model_cost ? " cost_src=ewma" : ""));
    return SubmitResult{Admission::kRejectedInfeasible, 0};
  }

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->submitted_ms = now;
  job->req = std::move(req);

  DomainState& domain = domains_[job->req.domain];
  domain.weight = WeightOf(job->req.domain);
  // Insert after every queued job of equal or higher priority (stable FIFO
  // within a priority level).
  auto pos = domain.queue.begin();
  while (pos != domain.queue.end() && (*pos)->req.priority >= job->req.priority) {
    ++pos;
  }
  live_jobs_[job->id] = job.get();
  uint64_t id = job->id;
  std::string detail = "job=" + std::to_string(id) + " " + tag +
                       " priority=" + std::to_string(job->req.priority) +
                       " cost=" + std::to_string(cost) +
                       (model_cost ? " cost_src=ewma" : "");
  if (job->req.deadline_ms != 0) {
    detail += " deadline=" + std::to_string(job->req.deadline_ms);
  }
  domain.queue.insert(pos, std::move(job));
  ++queued_;
  if (admitted_ != nullptr) {
    admitted_->Increment();
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<int64_t>(queued_));
  }
  Emit("submitted", detail);
  return SubmitResult{Admission::kAdmitted, id};
}

bool ProvingService::Cancel(uint64_t job_id) {
  auto it = live_jobs_.find(job_id);
  if (it == live_jobs_.end()) {
    return false;
  }
  it->second->cancel_src.Cancel();
  Emit("cancel_requested", "job=" + std::to_string(job_id));
  return true;
}

bool ProvingService::PumpOne() {
  while (queued_ > 0) {
    auto it = domains_.lower_bound(cursor_);
    if (it == domains_.end()) {
      it = domains_.begin();
    }
    DomainState& domain = it->second;
    if (domain.queue.empty()) {
      // A domain's unused credit does not bank across idle periods.
      domain.deficit_ms = 0;
      auto next = std::next(it);
      cursor_ = next == domains_.end() ? std::string() : next->first;
      cursor_credited_ = false;
      continue;
    }
    if (!cursor_credited_) {
      domain.deficit_ms += config_.quantum_ms * domain.weight;
      cursor_credited_ = true;
    }
    Job* head = domain.queue.front().get();
    uint64_t now = clock_->NowMs();
    // Re-read the effective cost at dequeue: a model-priced job admitted
    // under an optimistic estimate is shed here once completions have taught
    // the EWMA that it can no longer make its deadline.
    uint64_t head_cost = EffectiveCostMs(head->req);
    // Infeasible-at-dequeue uses the same predicate as admission: a job that
    // can no longer finish by its deadline is shed before it burns prover
    // time it would only throw away at the cancellation boundary. Without
    // this, sustained overload livelocks: every dequeue picks the oldest,
    // nearly-expired job, runs it for almost its full cost, and cancels.
    bool expired = head->req.deadline_ms != 0 &&
                   now + head_cost > head->req.deadline_ms;
    if (expired || head->cancel_src.cancelled()) {
      // Shed at dequeue: the domain is not charged for work never done.
      std::unique_ptr<Job> job = std::move(domain.queue.front());
      domain.queue.pop_front();
      --queued_;
      if (domain.queue.empty()) {
        domain.deficit_ms = 0;
      }
      Shed(std::move(job), expired ? JobOutcome::kShedExpired
                                   : JobOutcome::kShedCancelled);
      return true;
    }
    if (head_cost <= domain.deficit_ms) {
      std::unique_ptr<Job> job = std::move(domain.queue.front());
      domain.queue.pop_front();
      --queued_;
      domain.deficit_ms -= head_cost;
      if (domain.queue.empty()) {
        domain.deficit_ms = 0;
      }
      RunJob(std::move(job), &domain);
      return true;
    }
    // Head unaffordable at the current deficit: move to the next domain
    // (credit persists until the queue drains).
    auto next = std::next(it);
    cursor_ = next == domains_.end() ? std::string() : next->first;
    cursor_credited_ = false;
  }
  return false;
}

size_t ProvingService::RunUntilIdle() {
  size_t processed = 0;
  while (PumpOne()) {
    ++processed;
  }
  return processed;
}

void ProvingService::Shed(std::unique_ptr<Job> job, JobOutcome outcome) {
  if (outcome == JobOutcome::kShedExpired && shed_expired_ != nullptr) {
    shed_expired_->Increment();
  }
  if (outcome == JobOutcome::kShedCancelled && shed_cancelled_ != nullptr) {
    shed_cancelled_->Increment();
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<int64_t>(queued_));
  }
  uint64_t now = clock_->NowMs();
  Emit(JobOutcomeName(outcome),
       "job=" + std::to_string(job->id) + " domain=" + job->req.domain);
  live_jobs_.erase(job->id);
  JobResult result;
  result.job_id = job->id;
  result.domain = job->req.domain;
  result.circuit_id = job->req.circuit_id;
  result.outcome = outcome;
  result.submitted_ms = job->submitted_ms;
  result.started_ms = now;
  result.finished_ms = now;
  RecordResult(std::move(result));
}

void ProvingService::RunJob(std::unique_ptr<Job> job, DomainState* /*domain*/) {
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<int64_t>(queued_));
  }
  uint64_t started = clock_->NowMs();
  KeyCache::Handle key;
  bool cache_hit = false;
  if (cache_ != nullptr) {
    key = cache_->Checkout(job->req.circuit_id, job->req.key_loader);
    cache_hit = key.was_hit();
  }
  Emit("started", "job=" + std::to_string(job->id) + " domain=" + job->req.domain +
                      " cache=" +
                      (cache_ == nullptr ? "none" : (cache_hit ? "hit" : "miss")));
  Deadline deadline = job->req.deadline_ms != 0
                          ? Deadline(clock_, job->req.deadline_ms)
                          : Deadline::Infinite();
  CancellationToken token = job->cancel_src.TokenWithDeadline(deadline);
  Status status = job->req.statement ? job->req.statement(key.get(), token)
                                     : Status::Ok();
  key.Release();  // unpin before recording, so evictions attribute to this job

  JobOutcome outcome;
  std::string error;
  if (status.ok()) {
    outcome = JobOutcome::kOk;
  } else if (status.error().code == ErrorCode::kCancelled) {
    outcome = JobOutcome::kCancelled;
    error = status.ToString();
  } else {
    outcome = JobOutcome::kFailed;
    error = status.ToString();
  }
  FinishJob(std::move(job), outcome, error, started, cache_hit);
}

void ProvingService::FinishJob(std::unique_ptr<Job> job, JobOutcome outcome,
                               const std::string& error, uint64_t started_ms,
                               bool cache_hit) {
  uint64_t finished = clock_->NowMs();
  switch (outcome) {
    case JobOutcome::kOk:
      if (jobs_ok_ != nullptr) {
        jobs_ok_->Increment();
      }
      if (config_.use_cost_model) {
        // Learn only from completions — a shed or cancelled job's elapsed
        // time is an artifact of the deadline, not the circuit. Single pump
        // thread + completion order makes the model state deterministic.
        uint64_t observed = finished - started_ms;
        uint64_t old = CostEstimateMs(job->req.circuit_id);
        uint64_t updated = (observed + 3 * old) / 4;
        cost_ewma_[job->req.circuit_id] = updated;
        Emit("cost_model",
             "circuit=" + job->req.circuit_id + " observed=" +
                 std::to_string(observed) + " estimate=" + std::to_string(updated));
      }
      break;
    case JobOutcome::kFailed:
      if (jobs_failed_ != nullptr) {
        jobs_failed_->Increment();
      }
      break;
    default:
      if (jobs_cancelled_ != nullptr) {
        jobs_cancelled_->Increment();
      }
      break;
  }
  if (queue_wait_ms_ != nullptr) {
    queue_wait_ms_->Record(started_ms - job->submitted_ms);
    run_ms_->Record(finished - started_ms);
    total_latency_ms_->Record(finished - job->submitted_ms);
  }
  std::string detail = "job=" + std::to_string(job->id) +
                       " outcome=" + JobOutcomeName(outcome) +
                       " wait_ms=" + std::to_string(started_ms - job->submitted_ms) +
                       " run_ms=" + std::to_string(finished - started_ms);
  if (!error.empty()) {
    detail += " error=\"" + error + "\"";
  }
  Emit("done", detail);
  live_jobs_.erase(job->id);

  JobResult result;
  result.job_id = job->id;
  result.domain = job->req.domain;
  result.circuit_id = job->req.circuit_id;
  result.outcome = outcome;
  result.error = error;
  result.submitted_ms = job->submitted_ms;
  result.started_ms = started_ms;
  result.finished_ms = finished;
  result.key_cache_hit = cache_hit;
  RecordResult(std::move(result));
}

// --- groth16 integration ----------------------------------------------------

size_t ProvingKeyEntry::SizeBytes() const {
  size_t bytes = sizeof(ProvingKeyEntry);
  bytes += pk.a_query.size() * sizeof(G1Affine);
  bytes += pk.b_g1_query.size() * sizeof(G1Affine);
  bytes += pk.b_g2_query.size() * sizeof(G2Affine);
  bytes += pk.l_query.size() * sizeof(G1Affine);
  bytes += pk.h_query.size() * sizeof(G1Affine);
  bytes += pk.pvk.SizeBytes() - sizeof(pk.pvk);
  return bytes;
}

namespace {

groth16::ProveStageHooks MakeMetricsProveHooks(MetricsRegistry* metrics, const Clock* clock) {
  groth16::ProveStageHooks hooks;
  hooks.clock = clock;
  if (metrics != nullptr) {
    hooks.on_stage = [metrics](const char* stage, uint64_t elapsed_ms) {
      metrics->GetHistogram(std::string("prove.stage_ms.") + stage,
                            LatencyBoundsMs())
          ->Record(elapsed_ms);
    };
  }
  return hooks;
}

}  // namespace

ProveStatement MakeGroth16Statement(const ConstraintSystem* cs, Rng* rng,
                                    MetricsRegistry* metrics, const Clock* clock,
                                    groth16::Proof* proof_out) {
  return [cs, rng, metrics, clock, proof_out](
             const CachedKey* key, const CancellationToken& cancel) -> Status {
    NOPE_INVARIANT(key != nullptr,
                   "MakeGroth16Statement: requires a cached proving key");
    const auto* entry = static_cast<const ProvingKeyEntry*>(key);
    groth16::ProveStageHooks hooks = MakeMetricsProveHooks(metrics, clock);
    groth16::ProveResult result =
        groth16::Prove(entry->pk, *cs, cs->values(), rng, cancel, &hooks);
    if (!result.ok()) {
      return result.status;
    }
    if (proof_out != nullptr) {
      *proof_out = result.proof;
    }
    return Status::Ok();
  };
}

ProveStatement MakeSimulatedStatement(Clock* clock, uint64_t cost_ms,
                                      uint64_t slice_ms) {
  return [clock, cost_ms, slice_ms](const CachedKey* /*key*/,
                                    const CancellationToken& cancel) -> Status {
    uint64_t remaining = cost_ms;
    while (remaining > 0) {
      if (cancel.cancelled()) {
        return Error(ErrorCode::kCancelled, "simulated prove cancelled mid-run");
      }
      uint64_t slice = std::min(slice_ms, remaining);
      clock->SleepMs(slice);
      remaining -= slice;
    }
    if (cancel.cancelled()) {
      return Error(ErrorCode::kCancelled, "simulated prove cancelled at completion");
    }
    return Status::Ok();
  };
}

}  // namespace nope
