// ProvingService tests (ISSUE 5): admission control (queue-full and
// infeasible-deadline rejection), shedding expired/cancelled jobs at dequeue,
// deficit-round-robin weighted fairness with exact per-domain counts,
// priority ordering, mid-prove cancellation (deadline and explicit), the
// RenewalManager/KeyCache integration, the SnapshotJson golden format, and
// the headline determinism contract: event log, metrics snapshot, and proof
// bytes are byte-identical for NOPE_THREADS in {1, 2, 7} under SimClock.
#include "src/service/proving_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/threadpool.h"
#include "src/core/renewal.h"

namespace nope {
namespace {

// Simulated cached artifact (the service is agnostic to what it pins).
struct SimKey : CachedKey {
  explicit SimKey(size_t bytes) : bytes(bytes) {}
  size_t SizeBytes() const override { return bytes; }
  size_t bytes;
};

KeyCache::Loader SimLoader(size_t bytes = 1024) {
  return [bytes]() -> std::shared_ptr<const CachedKey> {
    return std::make_shared<SimKey>(bytes);
  };
}

// Statement that succeeds instantly without touching the clock.
ProveStatement OkStatement() {
  return [](const CachedKey*, const CancellationToken&) { return Status::Ok(); };
}

// Statement that burns `total_ms` of simulated time in `slice_ms` slices,
// polling the token at each slice boundary — the test twin of the real
// prover's chunk-boundary cancellation.
ProveStatement SimProve(SimClock* clock, uint64_t total_ms,
                        uint64_t slice_ms = 100) {
  return [clock, total_ms, slice_ms](const CachedKey*,
                                     const CancellationToken& cancel) -> Status {
    uint64_t burned = 0;
    while (burned < total_ms) {
      if (cancel.cancelled()) {
        return Error(ErrorCode::kCancelled, "sim prove cancelled");
      }
      uint64_t step = std::min(slice_ms, total_ms - burned);
      clock->AdvanceMs(step);
      burned += step;
    }
    if (cancel.cancelled()) {
      return Error(ErrorCode::kCancelled, "sim prove cancelled");
    }
    return Status::Ok();
  };
}

ProveRequest MakeRequest(const std::string& domain, ProveStatement statement,
                         uint64_t cost_ms = 1000, uint64_t deadline_ms = 0,
                         int priority = 0) {
  ProveRequest req;
  req.domain = domain;
  req.circuit_id = "sim";
  req.statement = std::move(statement);
  req.key_loader = SimLoader();
  req.cost_estimate_ms = cost_ms;
  req.deadline_ms = deadline_ms;
  req.priority = priority;
  return req;
}

TEST(ProvingService, AdmissionRejectsWhenQueueFull) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  ProvingServiceConfig config;
  config.max_queue_depth = 2;
  ProvingService service(config, &clock, nullptr, &metrics);

  EXPECT_EQ(service.Submit(MakeRequest("a", OkStatement())).admission,
            Admission::kAdmitted);
  EXPECT_EQ(service.Submit(MakeRequest("b", OkStatement())).admission,
            Admission::kAdmitted);
  auto rejected = service.Submit(MakeRequest("c", OkStatement()));
  EXPECT_EQ(rejected.admission, Admission::kRejectedQueueFull);
  EXPECT_EQ(rejected.job_id, 0u);
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_EQ(metrics.GetCounter("service.admitted")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("service.rejected_queue_full")->value(), 1u);
  EXPECT_NE(service.EventLog().find("rejected_queue_full domain=c"),
            std::string::npos);
  // A rejected job never appears in results.
  service.RunUntilIdle();
  EXPECT_EQ(service.results().size(), 2u);
}

TEST(ProvingService, AdmissionRejectsInfeasibleDeadline) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  ProvingService service(ProvingServiceConfig{}, &clock, nullptr, &metrics);

  // now + cost = 2000 > deadline 1500: cannot finish even if run immediately.
  auto rejected = service.Submit(
      MakeRequest("a", OkStatement(), /*cost_ms=*/1000, /*deadline_ms=*/1500));
  EXPECT_EQ(rejected.admission, Admission::kRejectedInfeasible);
  EXPECT_EQ(metrics.GetCounter("service.rejected_infeasible")->value(), 1u);

  // Exactly feasible (now + cost == deadline) is admitted.
  EXPECT_EQ(service
                .Submit(MakeRequest("a", OkStatement(), /*cost_ms=*/1000,
                                    /*deadline_ms=*/2000))
                .admission,
            Admission::kAdmitted);
}

TEST(ProvingService, ShedsExpiredJobAtDequeue) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  ProvingService service(ProvingServiceConfig{}, &clock, nullptr, &metrics);

  auto submitted = service.Submit(
      MakeRequest("a", OkStatement(), /*cost_ms=*/500, /*deadline_ms=*/1500));
  ASSERT_EQ(submitted.admission, Admission::kAdmitted);
  clock.AdvanceMs(600);  // deadline passes while the job sits queued

  EXPECT_TRUE(service.PumpOne());
  EXPECT_FALSE(service.PumpOne());
  ASSERT_EQ(service.results().size(), 1u);
  const JobResult& r = service.results()[0];
  EXPECT_EQ(r.outcome, JobOutcome::kShedExpired);
  EXPECT_EQ(r.started_ms, 1600u);  // never ran: started == finished == shed time
  EXPECT_EQ(r.finished_ms, 1600u);
  EXPECT_EQ(metrics.GetCounter("service.shed_expired")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("service.jobs_ok")->value(), 0u);
}

TEST(ProvingService, ShedsCancelledQueuedJob) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  ProvingService service(ProvingServiceConfig{}, &clock, nullptr, &metrics);

  auto first = service.Submit(MakeRequest("a", OkStatement()));
  auto second = service.Submit(MakeRequest("a", OkStatement()));
  ASSERT_EQ(second.admission, Admission::kAdmitted);
  EXPECT_TRUE(service.Cancel(second.job_id));
  EXPECT_FALSE(service.Cancel(9999));  // unknown id

  EXPECT_EQ(service.RunUntilIdle(), 2u);
  ASSERT_EQ(service.results().size(), 2u);
  EXPECT_EQ(service.results()[0].job_id, first.job_id);
  EXPECT_EQ(service.results()[0].outcome, JobOutcome::kOk);
  EXPECT_EQ(service.results()[1].job_id, second.job_id);
  EXPECT_EQ(service.results()[1].outcome, JobOutcome::kShedCancelled);
  EXPECT_EQ(metrics.GetCounter("service.shed_cancelled")->value(), 1u);
  // A finished job can no longer be cancelled.
  EXPECT_FALSE(service.Cancel(second.job_id));
}

// Deficit round-robin with weights {a:1, b:2, c:4}, quantum == cost == 1000:
// every full round serves exactly (1, 2, 4) jobs, so the first 14 pumps
// (two rounds) split 2/4/8. The schedule is exact, not approximate.
TEST(ProvingService, WeightedFairShareAcrossThreeDomains) {
  SimClock clock(1000);
  ProvingServiceConfig config;
  config.quantum_ms = 1000;
  config.domain_weights = {{"a", 1}, {"b", 2}, {"c", 4}};
  ProvingService service(config, &clock, nullptr, nullptr);

  for (int i = 0; i < 4; ++i) {
    service.Submit(MakeRequest("a", OkStatement(), /*cost_ms=*/1000));
  }
  for (int i = 0; i < 6; ++i) {
    service.Submit(MakeRequest("b", OkStatement(), /*cost_ms=*/1000));
  }
  for (int i = 0; i < 10; ++i) {
    service.Submit(MakeRequest("c", OkStatement(), /*cost_ms=*/1000));
  }

  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(service.PumpOne());
  }
  std::map<std::string, int> served;
  for (const JobResult& r : service.results()) {
    ++served[r.domain];
  }
  EXPECT_EQ(served["a"], 2);
  EXPECT_EQ(served["b"], 4);
  EXPECT_EQ(served["c"], 8);

  // The backlog drains completely and every job succeeded.
  EXPECT_EQ(service.RunUntilIdle(), 6u);
  EXPECT_EQ(service.results().size(), 20u);
  for (const JobResult& r : service.results()) {
    EXPECT_EQ(r.outcome, JobOutcome::kOk);
  }
}

TEST(ProvingService, PriorityOrdersWithinDomainFifoWithinPriority) {
  SimClock clock(1000);
  ProvingService service(ProvingServiceConfig{}, &clock, nullptr, nullptr);
  // ids 1..4 with priorities 0, 5, 5, 1.
  service.Submit(MakeRequest("a", OkStatement(), 100, 0, /*priority=*/0));
  service.Submit(MakeRequest("a", OkStatement(), 100, 0, /*priority=*/5));
  service.Submit(MakeRequest("a", OkStatement(), 100, 0, /*priority=*/5));
  service.Submit(MakeRequest("a", OkStatement(), 100, 0, /*priority=*/1));
  service.RunUntilIdle();
  ASSERT_EQ(service.results().size(), 4u);
  EXPECT_EQ(service.results()[0].job_id, 2u);  // highest priority, first arrival
  EXPECT_EQ(service.results()[1].job_id, 3u);  // FIFO among equals
  EXPECT_EQ(service.results()[2].job_id, 4u);
  EXPECT_EQ(service.results()[3].job_id, 1u);
}

TEST(ProvingService, DeadlineExpiryMidProveCancelsAtSliceBoundary) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  ProvingService service(ProvingServiceConfig{}, &clock, nullptr, &metrics);

  // Feasible at admission (cost 100), but the statement actually needs
  // 1000ms — the deadline token fires mid-prove at a slice boundary.
  auto submitted = service.Submit(
      MakeRequest("a", SimProve(&clock, /*total_ms=*/1000, /*slice_ms=*/100),
                  /*cost_ms=*/100, /*deadline_ms=*/1500));
  ASSERT_EQ(submitted.admission, Admission::kAdmitted);
  EXPECT_TRUE(service.PumpOne());

  ASSERT_EQ(service.results().size(), 1u);
  const JobResult& r = service.results()[0];
  EXPECT_EQ(r.outcome, JobOutcome::kCancelled);
  // Aborted at the first slice boundary past the deadline, not after the
  // full 1000ms.
  EXPECT_EQ(r.finished_ms - r.started_ms, 500u);
  EXPECT_EQ(metrics.GetCounter("service.jobs_cancelled")->value(), 1u);
  EXPECT_NE(service.EventLog().find("outcome=cancelled"), std::string::npos);
}

TEST(ProvingService, ExplicitCancelMidProveAborts) {
  SimClock clock(1000);
  ProvingService service(ProvingServiceConfig{}, &clock, nullptr, nullptr);

  // The statement cancels its own job two slices in (stand-in for another
  // thread calling Cancel against a real clock).
  ProvingService* svc = &service;
  auto job_id = std::make_shared<uint64_t>(0);
  ProveRequest req = MakeRequest("a", OkStatement(), /*cost_ms=*/100);
  req.statement = [svc, job_id, &clock](const CachedKey*,
                                        const CancellationToken& cancel) -> Status {
    clock.AdvanceMs(100);
    EXPECT_TRUE(svc->Cancel(*job_id));  // running jobs are still cancellable
    clock.AdvanceMs(100);
    if (cancel.cancelled()) {
      return Error(ErrorCode::kCancelled, "aborted after cancel");
    }
    return Status::Ok();
  };
  auto submitted = service.Submit(std::move(req));
  *job_id = submitted.job_id;

  EXPECT_TRUE(service.PumpOne());
  ASSERT_EQ(service.results().size(), 1u);
  EXPECT_EQ(service.results()[0].outcome, JobOutcome::kCancelled);
  EXPECT_NE(service.EventLog().find("cancel_requested job=1"), std::string::npos);
}

TEST(ProvingService, KeyCacheHitMissRecordedPerJob) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  KeyCache cache(1 << 20, &metrics);
  ProvingService service(ProvingServiceConfig{}, &clock, &cache, &metrics);

  service.Submit(MakeRequest("a", OkStatement()));
  service.Submit(MakeRequest("b", OkStatement()));  // same circuit id "sim"
  service.RunUntilIdle();

  ASSERT_EQ(service.results().size(), 2u);
  EXPECT_FALSE(service.results()[0].key_cache_hit);
  EXPECT_TRUE(service.results()[1].key_cache_hit);
  std::string log = service.EventLog();
  EXPECT_NE(log.find("cache=miss"), std::string::npos);
  EXPECT_NE(log.find("cache=hit"), std::string::npos);
  EXPECT_EQ(metrics.GetCounter("keycache.misses")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("keycache.hits")->value(), 1u);
}

// --- RenewalManager integration ---------------------------------------------

// Always-healthy pipeline that burns fixed simulated time per stage.
class HealthyPipeline : public IssuancePipeline {
 public:
  explicit HealthyPipeline(Clock* clock) : clock_(clock) {}
  Status ResolveChain(const Deadline&) override {
    clock_->SleepMs(10);
    return Status::Ok();
  }
  Status GenerateProof(const Deadline&) override {
    clock_->SleepMs(100);
    return Status::Ok();
  }
  Status FinalizeCertificate(const Deadline&, bool) override {
    clock_->SleepMs(20);
    return Status::Ok();
  }

 private:
  Clock* clock_;
};

TEST(ProvingService, RenewalManagerSharesKeyCache) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  KeyCache cache(1 << 20, &metrics);
  HealthyPipeline pipeline(&clock);
  RenewalManager manager(RenewalConfig{}, &clock, &pipeline, /*seed=*/42);
  manager.AttachKeyCache(&cache, "sim-circuit", SimLoader(4096));
  manager.AttachMetrics(&metrics);

  EXPECT_TRUE(manager.RunOneCycle());  // first prove: Setup runs, cache miss
  EXPECT_TRUE(manager.RunOneCycle());  // key still resident: cache hit

  std::string log = manager.EventLog();
  EXPECT_NE(log.find("key_cache_miss sim-circuit"), std::string::npos);
  EXPECT_NE(log.find("key_cache_hit sim-circuit"), std::string::npos);
  EXPECT_EQ(metrics.GetCounter("renewal.key_cache_miss")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("renewal.key_cache_hit")->value(), 1u);
  KeyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
}

// --- SnapshotJson golden -----------------------------------------------------

TEST(MetricsRegistry, SnapshotJsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("jobs.ok")->Increment(2);
  registry.GetCounter("weird \"name\"\\path\n")->Increment();
  registry.GetGauge("queue_depth")->Set(-3);
  Histogram* h = registry.GetHistogram("latency_ms", {10, 100});
  h->Record(5);
  h->Record(10);    // boundary value lands in its bucket (v <= bound)
  h->Record(99);
  h->Record(1000);  // overflow bucket

  const std::string golden =
      "{\"counters\":{\"jobs.ok\":2,\"weird \\\"name\\\"\\\\path\\u000a\":1},"
      "\"gauges\":{\"queue_depth\":-3},"
      "\"histograms\":{\"latency_ms\":{\"bounds\":[10,100],"
      "\"buckets\":[2,1,1],\"count\":4,\"sum\":1114}}}";
  EXPECT_EQ(registry.SnapshotJson(), golden);
  // Re-registering returns the same metric; the snapshot is stable.
  EXPECT_EQ(registry.GetCounter("jobs.ok")->value(), 2u);
  EXPECT_EQ(registry.SnapshotJson(), golden);
}

// --- Determinism across thread counts ----------------------------------------

// Same fixture as tests/groth16_test.cc: public x, witness w, w^3 + w + 5 == x.
ConstraintSystem CubicCircuit(uint64_t w_val, uint64_t x_val) {
  ConstraintSystem cs;
  Var x = cs.AddPublicInput(Fr::FromU64(x_val));
  Var w = cs.AddWitness(Fr::FromU64(w_val));
  Fr w_fr = Fr::FromU64(w_val);
  Var w2 = cs.AddWitness(w_fr * w_fr);
  Var w3 = cs.AddWitness(w_fr * w_fr * w_fr);
  cs.Enforce(LC(w), LC(w), LC(w2));
  cs.Enforce(LC(w2), LC(w), LC(w3));
  cs.EnforceEqual(LC(w3) + LC(w) + LC::Constant(Fr::FromU64(5)), LC(x));
  return cs;
}

struct ScenarioArtifacts {
  std::string event_log;
  std::string metrics_snapshot;
  Bytes proof_bytes;  // both proofs, concatenated
};

// One full mixed scenario: two real groth16 proves (miss then hit on the
// shared KeyCache), a simulated prove that burns enough clock to expire a
// queued job, a shed-expired job, and a shed-cancelled job. Everything runs
// through a fresh SimClock/KeyCache/MetricsRegistry so repeated calls are
// independent; the global ThreadPool size is the only outside variable.
ScenarioArtifacts RunMixedScenario() {
  SimClock clock(1000);
  MetricsRegistry metrics;
  KeyCache cache(64u << 20, &metrics);
  ProvingServiceConfig config;
  config.max_queue_depth = 16;
  config.domain_weights = {{"alpha", 2}};
  ProvingService service(config, &clock, &cache, &metrics);

  ConstraintSystem cs = CubicCircuit(3, 35);
  auto loader = [&cs]() -> std::shared_ptr<const CachedKey> {
    Rng setup_rng(601);  // fixed seed: the cached key is identical every run
    auto entry = std::make_shared<ProvingKeyEntry>();
    entry->pk = groth16::Setup(cs, &setup_rng);
    return entry;
  };
  Rng prove_rng(602);
  groth16::Proof proof1, proof2;

  ProveRequest r1;
  r1.domain = "alpha";
  r1.circuit_id = "cubic";
  r1.key_loader = loader;
  r1.statement = MakeGroth16Statement(&cs, &prove_rng, &metrics, &clock, &proof1);
  r1.cost_estimate_ms = 500;
  ProveRequest r2 = r1;
  r2.statement = MakeGroth16Statement(&cs, &prove_rng, &metrics, &clock, &proof2);

  EXPECT_EQ(service.Submit(std::move(r1)).admission, Admission::kAdmitted);
  EXPECT_EQ(service.Submit(std::move(r2)).admission, Admission::kAdmitted);
  // Burns 700ms, pushing the clock past job 4's deadline before it dequeues.
  EXPECT_EQ(service
                .Submit(MakeRequest("beta", SimProve(&clock, 700), /*cost_ms=*/500))
                .admission,
            Admission::kAdmitted);
  EXPECT_EQ(service
                .Submit(MakeRequest("gamma", OkStatement(), /*cost_ms=*/500,
                                    /*deadline_ms=*/1600))
                .admission,
            Admission::kAdmitted);
  auto cancelled =
      service.Submit(MakeRequest("gamma", OkStatement(), /*cost_ms=*/500));
  EXPECT_EQ(cancelled.admission, Admission::kAdmitted);
  EXPECT_TRUE(service.Cancel(cancelled.job_id));

  EXPECT_EQ(service.RunUntilIdle(), 5u);
  EXPECT_EQ(service.results().size(), 5u);
  EXPECT_FALSE(service.results()[0].key_cache_hit);  // alpha job 1: Setup ran
  EXPECT_TRUE(service.results()[1].key_cache_hit);   // alpha job 2: resident
  EXPECT_EQ(service.results()[3].outcome, JobOutcome::kShedExpired);
  EXPECT_EQ(service.results()[4].outcome, JobOutcome::kShedCancelled);

  // Both proofs must actually verify — determinism without soundness would
  // be vacuous.
  auto key = cache.Checkout("cubic", loader);
  EXPECT_TRUE(key.was_hit());
  const auto& vk = key.As<ProvingKeyEntry>()->pk.vk();
  EXPECT_TRUE(groth16::Verify(vk, {Fr::FromU64(35)}, proof1));
  EXPECT_TRUE(groth16::Verify(vk, {Fr::FromU64(35)}, proof2));
  key.Release();

  ScenarioArtifacts art;
  art.event_log = service.EventLog();
  art.metrics_snapshot = metrics.SnapshotJson();
  art.proof_bytes = proof1.ToBytes();
  Bytes second = proof2.ToBytes();
  art.proof_bytes.insert(art.proof_bytes.end(), second.begin(), second.end());
  return art;
}

// A job whose checked-out key was set up for another circuit ends kFailed
// with Prove's reason instead of throwing out of PumpOne, and the service
// goes on: the next job, with the right key, proves and verifies.
TEST(ProvingService, Groth16JobWithAnotherCircuitsKeyFails) {
  SimClock clock(1000);
  MetricsRegistry metrics;
  KeyCache cache(64u << 20, &metrics);
  ProvingService service(ProvingServiceConfig{}, &clock, &cache, &metrics);

  ConstraintSystem cs = CubicCircuit(3, 35);
  ConstraintSystem one_product;
  Var x = one_product.AddPublicInput(Fr::FromU64(3));
  Var y = one_product.AddWitness(Fr::FromU64(9));
  one_product.Enforce(LC(x), LC(x), LC(y));
  auto loader_for = [](const ConstraintSystem* circuit) {
    return [circuit]() -> std::shared_ptr<const CachedKey> {
      Rng setup_rng(603);
      auto entry = std::make_shared<ProvingKeyEntry>();
      entry->pk = groth16::Setup(*circuit, &setup_rng);
      return entry;
    };
  };
  Rng prove_rng(604);
  groth16::Proof wrong_proof, proof;
  ProveRequest wrong;
  wrong.domain = "a";
  wrong.circuit_id = "one-product";
  wrong.key_loader = loader_for(&one_product);
  wrong.statement = MakeGroth16Statement(&cs, &prove_rng, &metrics, &clock, &wrong_proof);
  ProveRequest right = wrong;
  right.circuit_id = "cubic";
  right.key_loader = loader_for(&cs);
  right.statement = MakeGroth16Statement(&cs, &prove_rng, &metrics, &clock, &proof);
  ASSERT_EQ(service.Submit(std::move(wrong)).admission, Admission::kAdmitted);
  ASSERT_EQ(service.Submit(std::move(right)).admission, Admission::kAdmitted);

  size_t ran = 0;
  EXPECT_NO_THROW(ran = service.RunUntilIdle());
  EXPECT_EQ(ran, 2u);
  ASSERT_EQ(service.results().size(), 2u);
  const JobResult& failed = service.results()[0];
  EXPECT_EQ(failed.outcome, JobOutcome::kFailed);
  EXPECT_EQ(failed.error, "mismatch: Prove: key A query length is 3, the circuit needs 5");
  EXPECT_EQ(metrics.GetCounter("service.jobs_failed")->value(), 1u);
  EXPECT_EQ(service.results()[1].outcome, JobOutcome::kOk);
  auto key = cache.Checkout("cubic", loader_for(&cs));
  EXPECT_TRUE(groth16::Verify(key.As<ProvingKeyEntry>()->pk.vk(), {Fr::FromU64(35)}, proof));
  key.Release();
}

// EWMA cost model regression (ISSUE 8): when the true prove cost shifts, the
// per-circuit estimate converges toward the observed cost, and shedding
// decisions follow the estimate — both at admission and for already-queued
// jobs re-priced at dequeue.
TEST(ProvingService, CostModelConvergesAndDrivesShedding) {
  SimClock clock(1'000'000);
  MetricsRegistry metrics;
  ProvingServiceConfig config;
  config.use_cost_model = true;
  config.cost_prior_ms = 500;   // optimistic prior
  config.quantum_ms = 100'000;  // fairness not under test: always affordable
  ProvingService service(config, &clock, nullptr, &metrics);

  // Model-priced request: cost_estimate_ms == 0 defers to the EWMA.
  auto model_req = [&](uint64_t deadline_ms) {
    ProveRequest req = MakeRequest("a", SimProve(&clock, /*total_ms=*/2000),
                                   /*cost_ms=*/0, deadline_ms);
    return req;
  };

  EXPECT_EQ(service.CostEstimateMs("sim"), 500u);  // prior before any evidence

  // Under the optimistic prior, a deadline of now + 600 looks feasible even
  // though the statement actually burns 2000 ms.
  EXPECT_EQ(service.Submit(model_req(clock.NowMs() + 600)).admission,
            Admission::kAdmitted);
  ASSERT_TRUE(service.PumpOne());
  // The job ran (and overran its deadline — cancelled at a slice boundary),
  // but only kOk completions teach the model, so run some to convergence.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(service.Submit(model_req(/*deadline_ms=*/0)).admission,
              Admission::kAdmitted);
    ASSERT_TRUE(service.PumpOne());
  }
  // Estimate walked 500 -> 875 -> 1156 -> ... toward 2000; the 1/4 blend
  // lands within 3% of the true cost (1951) after twelve completions.
  uint64_t learned = service.CostEstimateMs("sim");
  EXPECT_GE(learned, 1950u);
  EXPECT_LE(learned, 2000u);

  // The same deadline that was admitted under the prior is now rejected as
  // infeasible: the shedding decision converged with the cost estimate.
  EXPECT_EQ(service.Submit(model_req(clock.NowMs() + 600)).admission,
            Admission::kRejectedInfeasible);
  EXPECT_EQ(metrics.GetCounter("service.rejected_infeasible")->value(), 1u);

  // Feasible under the learned estimate still admits.
  EXPECT_EQ(service.Submit(model_req(clock.NowMs() + 2500)).admission,
            Admission::kAdmitted);
  service.RunUntilIdle();

  // Dequeue re-pricing: queue a model-priced job behind a long-running one.
  // At admission the estimate (~2000) fits its deadline; by the time it
  // reaches the head, now + estimate > deadline and it sheds without running.
  uint64_t t0 = clock.NowMs();
  EXPECT_EQ(service
                .Submit(MakeRequest("a", SimProve(&clock, 2000), /*cost_ms=*/2000,
                                    /*deadline_ms=*/t0 + 10'000))
                .admission,
            Admission::kAdmitted);
  EXPECT_EQ(service.Submit(model_req(t0 + 2100)).admission, Admission::kAdmitted);
  ASSERT_TRUE(service.PumpOne());  // runs the first job: 2000 ms pass
  ASSERT_TRUE(service.PumpOne());  // second job now infeasible: shed, not run
  const JobResult& shed = service.results().back();
  EXPECT_EQ(shed.outcome, JobOutcome::kShedExpired);
  EXPECT_EQ(shed.started_ms, shed.finished_ms);  // never ran
  EXPECT_NE(service.EventLog().find("cost_src=ewma"), std::string::npos);
  EXPECT_NE(service.EventLog().find("cost_model circuit=sim"), std::string::npos);
}

// Streaming sinks + bounded recording (ISSUE 8): with record_results and
// record_events off, the vectors stay empty (fleet-scale memory bound) while
// the sinks observe the identical stream.
TEST(ProvingService, SinksObserveStreamWhenRecordingDisabled) {
  SimClock clock(1000);
  ProvingServiceConfig config;
  config.record_results = false;
  config.record_events = false;
  ProvingService service(config, &clock, nullptr, nullptr);

  std::vector<JobResult> seen;
  size_t event_lines = 0;
  service.SetResultSink([&](const JobResult& r) { seen.push_back(r); });
  service.SetEventSink([&](uint64_t, const std::string&) { ++event_lines; });

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.Submit(MakeRequest("a", OkStatement())).admission,
              Admission::kAdmitted);
  }
  EXPECT_EQ(service.RunUntilIdle(), 3u);

  EXPECT_TRUE(service.results().empty());
  EXPECT_TRUE(service.EventLog().empty());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].outcome, JobOutcome::kOk);
  EXPECT_GT(event_lines, 0u);  // submitted/started/done all flowed through
}

// The acceptance gate: with the global pool at 1, 2, and 7 threads, the same
// scenario yields a byte-identical event log, metrics snapshot, and proof
// bytes. Jobs run serially on the pump; NOPE_THREADS only changes the
// parallelism inside groth16::Prove, which is bit-identical by contract.
TEST(ProvingService, DeterministicAcrossThreadCounts) {
  ScenarioArtifacts baseline;
  bool have_baseline = false;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    ThreadPool::SetGlobalThreads(threads);
    ScenarioArtifacts art = RunMixedScenario();
    if (!have_baseline) {
      baseline = std::move(art);
      have_baseline = true;
      // Spot-check the transcript covers every path the contract names.
      EXPECT_NE(baseline.event_log.find("cache=miss"), std::string::npos);
      EXPECT_NE(baseline.event_log.find("cache=hit"), std::string::npos);
      EXPECT_NE(baseline.event_log.find("shed_expired"), std::string::npos);
      EXPECT_NE(baseline.event_log.find("shed_cancelled"), std::string::npos);
      continue;
    }
    EXPECT_EQ(art.event_log, baseline.event_log) << "threads=" << threads;
    EXPECT_EQ(art.metrics_snapshot, baseline.metrics_snapshot)
        << "threads=" << threads;
    EXPECT_EQ(art.proof_bytes, baseline.proof_bytes) << "threads=" << threads;
  }
  ThreadPool::SetGlobalThreads(0);  // restore the environment default
}

}  // namespace
}  // namespace nope
