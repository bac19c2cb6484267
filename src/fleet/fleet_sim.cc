#include "src/fleet/fleet_sim.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/base/check.h"
#include "src/core/renewal.h"

namespace nope {

namespace {

// Flyweight stand-in for a resident proving key; the byte size drives the
// cache's budget accounting exactly like a real ProvingKeyEntry would.
struct FleetKeyEntry : CachedKey {
  explicit FleetKeyEntry(size_t bytes) : bytes(bytes) {}
  size_t SizeBytes() const override { return bytes; }
  size_t bytes;
};

constexpr uint64_t kFnvPrime = 1099511628211ull;

constexpr uint8_t kDegraded = 1;
constexpr uint8_t kLapsed = 2;
constexpr uint8_t kInLegacy = 4;

}  // namespace

// 16 bytes per domain: 10^6 domains cost 16 MB. Everything else a domain
// "remembers" (pending stage, retry time) lives in its outstanding wheel
// timer or queued proving job — a domain has at most one of either in
// flight, so the struct needs no stage field.
struct FleetSimulator::Domain {
  uint64_t cert_expires_at_ms = 0;
  uint32_t draw_counter = 0;
  uint16_t consecutive_failures = 0;
  uint8_t flags = 0;
  uint8_t pad = 0;
};

// Full-fidelity canary: the renewal_sim_test SimWorld, sharing the fleet's
// clock so the canary's multi-stage cycles interleave with flyweight events
// on one timeline.
struct FleetSimulator::CanaryWorld {
  Rng rng;
  CtLog log1;
  CtLog log2;
  CertificateAuthority ca;
  DnssecHierarchy dns;
  DnsName domain;
  FlakyResolver resolver;
  FlakyCa flaky_ca;
  Bytes tls_key;
  std::unique_ptr<SimulatedPipeline> pipeline;
  std::unique_ptr<RenewalManager> manager;
  size_t consumed_events = 0;
  bool lapsed = false;

  CanaryWorld(SimClock* clock, uint64_t seed, size_t index,
              const FleetConfig& config, MetricsRegistry* metrics,
              KeyCache* cache)
      : rng(seed),
        log1(1, &rng),
        log2(2, &rng),
        ca("fleet-ca", {&log1, &log2}, &rng),
        dns(CryptoSuite::Toy(), seed + 1),
        domain(DnsName::FromString("canary" + std::to_string(index) + ".org")),
        resolver(&dns, clock, seed + 2, /*fault_rate=*/0.0),
        flaky_ca(&ca, clock, seed + 3, /*fault_rate=*/0.0) {
    dns.AddZone(DnsName::FromString("org"));
    dns.AddZone(domain);
    tls_key = GenerateEcdsaKey(&rng).pub.Encode();
    pipeline = std::make_unique<SimulatedPipeline>(&resolver, &flaky_ca, clock,
                                                   domain, tls_key,
                                                   SimulatedPipelineConfig{});
    RenewalConfig rc;
    rc.renewal_period_ms = config.cert_lifetime_ms;
    rc.lead_ms = config.renew_lead_ms;
    rc.lead_jitter_fraction = config.lead_jitter_fraction;
    rc.degrade_after = config.degrade_after;
    manager = std::make_unique<RenewalManager>(rc, clock, pipeline.get(), seed + 4);
    manager->AttachMetrics(metrics);
    manager->AttachKeyCache(cache, "canary" + std::to_string(index), [] {
      return std::make_shared<FleetKeyEntry>(size_t{1} << 16);
    });
  }
};

enum class FleetSimulator::Ev : uint8_t {
  kRenewStart = 0,
  kResolveOk = 1,
  kResolveFail = 2,
  kAcmeOk = 3,
  kAcmeFail = 4,
  kRetry = 5,
  kExpiryCheck = 6,
  kPump = 7,
  kBurst = 8,
  kSample = 9,
  kCanary = 10,
};

FleetSimulator::FleetSimulator(const FleetConfig& config)
    : config_(config),
      clock_(config.start_ms),
      wheel_(config.start_ms, config.tick_ms),
      key_cache_(config.key_cache_budget_bytes, &metrics_),
      driver_(config.bursts, config.seed, config.start_ms) {
  NOPE_INVARIANT(config_.domains > 0, "FleetSimulator: domains must be > 0");
  NOPE_INVARIANT(config_.tenants > 0, "FleetSimulator: tenants must be > 0");
  NOPE_INVARIANT(config_.key_circuits > 0,
                 "FleetSimulator: key_circuits must be > 0");
  uint64_t jitter_window = static_cast<uint64_t>(
      static_cast<double>(config_.renew_lead_ms) * config_.lead_jitter_fraction);
  NOPE_INVARIANT(
      config_.cert_lifetime_ms >
          config_.renew_lead_ms + jitter_window + 3'600'000,
      "FleetSimulator: cert lifetime must exceed renewal lead + jitter");

  // Prover capacity calibration: the initial expiries are staggered across
  // `stagger_span`, so the fleet offers domains/stagger_span proof jobs per
  // ms; one serial prover has capacity 1/cost. load_factor is their ratio.
  uint64_t stagger_span =
      config_.cert_lifetime_ms - config_.renew_lead_ms - jitter_window - 3'600'000;
  prove_cost_ms_ = config_.prove_cost_ms != 0
                       ? config_.prove_cost_ms
                       : std::max<uint64_t>(
                             1, static_cast<uint64_t>(
                                    config_.load_factor *
                                    static_cast<double>(stagger_span) /
                                    static_cast<double>(config_.domains)));

  ProvingServiceConfig sc;
  sc.max_queue_depth = config_.max_queue_depth;
  sc.quantum_ms = config_.quantum_ms;
  sc.default_weight = 1;
  if (!config_.tenant_weights.empty()) {
    for (size_t t = 0; t < config_.tenants; ++t) {
      sc.domain_weights["t" + std::to_string(t)] =
          config_.tenant_weights[t % config_.tenant_weights.size()];
    }
  }
  // EWMA-priced jobs: flyweights submit cost_estimate_ms = 0 and the model
  // learns the true (brownout-inflated) cost from completions. The prior is
  // deliberately optimistic so the adaptation is visible in the transcript.
  sc.use_cost_model = true;
  sc.cost_prior_ms = std::max<uint64_t>(1, prove_cost_ms_ / 2);
  sc.record_results = false;  // 10^5+ jobs: stream through the sinks instead
  sc.record_events = false;
  service_ = std::make_unique<ProvingService>(sc, &clock_, &key_cache_, &metrics_);
  service_->SetResultSink([this](const JobResult& r) { OnJobResult(r); });
  service_->SetEventSink([this](uint64_t t_ms, const std::string& line) {
    Digest(t_ms, "svc " + line);
  });

  lapsed_gauge_ = metrics_.GetGauge("fleet.lapsed_domains");
  backlog_gauge_ = metrics_.GetGauge("fleet.retry_backlog");
  degraded_gauge_ = metrics_.GetGauge("fleet.degraded_domains");

  for (size_t i = 0; i < config_.canaries; ++i) {
    canaries_.push_back(std::make_unique<CanaryWorld>(
        &clock_, config_.seed + 1000 + i * 17, i, config_, &metrics_,
        &key_cache_));
  }
}

FleetSimulator::~FleetSimulator() = default;

void FleetSimulator::ScheduleEv(uint64_t due_ms, Ev kind, uint64_t index) {
  wheel_.Schedule(due_ms,
                  (static_cast<uint64_t>(kind) << 48) | (index & 0xFFFFFFFFFFFFull));
}

void FleetSimulator::Digest(uint64_t t_ms, const std::string& line) {
  char stamp[24];
  int n = std::snprintf(stamp, sizeof(stamp), "t=%012llu ",
                        static_cast<unsigned long long>(t_ms));
  auto fold = [this](const char* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      event_digest_ ^= static_cast<uint8_t>(data[i]);
      event_digest_ *= kFnvPrime;
    }
  };
  fold(stamp, static_cast<size_t>(n));
  fold(line.data(), line.size());
  fold("\n", 1);
  ++event_count_;
  if (kept_events_.size() < config_.keep_events) {
    kept_events_.push_back(std::string(stamp) + line);
  }
}

uint64_t FleetSimulator::DomainDraw(uint32_t idx) {
  // Splitmix-style hash of (seed, domain, per-domain counter): every domain
  // owns an independent deterministic stream, so the draw a domain sees does
  // not depend on how events from OTHER domains interleave — which is what
  // keeps the digest stable when unrelated configuration shifts timing.
  Domain& d = domains_[idx];
  uint64_t z = config_.seed ^ (0x9E3779B97F4A7C15ull * (uint64_t{idx} + 1));
  z += 0xBF58476D1CE4E5B9ull * (uint64_t{++d.draw_counter});
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

bool FleetSimulator::DrawFault(uint32_t idx, double rate) {
  return DomainDraw(idx) % 1'000'000 <
         static_cast<uint64_t>(rate * 1'000'000.0);
}

void FleetSimulator::SeedInitialSchedule() {
  static_assert(sizeof(Domain) == 16, "flyweight domain grew");
  domains_.resize(config_.domains);
  uint64_t lead = config_.renew_lead_ms;
  uint64_t jw = static_cast<uint64_t>(static_cast<double>(lead) *
                                      config_.lead_jitter_fraction);
  // Initial expiries stagger uniformly over (lead + jitter + 1h, lifetime]:
  // the earliest renewal lead lands after the sim starts, and the fleet's
  // offered load is flat from day one instead of a cold-start herd.
  uint64_t lo = lead + jw + 3'600'000;
  uint64_t span = config_.cert_lifetime_ms - lo;
  for (uint32_t i = 0; i < config_.domains; ++i) {
    Domain& d = domains_[i];
    d.cert_expires_at_ms = config_.start_ms + lo + DomainDraw(i) % span;
    uint64_t jitter = jw != 0 ? DomainDraw(i) % (2 * jw + 1) : 0;
    ScheduleEv(d.cert_expires_at_ms - lead - jw + jitter, Ev::kRenewStart, i);
    ScheduleEv(d.cert_expires_at_ms, Ev::kExpiryCheck, i);
  }
  for (size_t i = 0; i < canaries_.size(); ++i) {
    ScheduleEv(config_.start_ms + (i + 1) * 1000, Ev::kCanary, i);
  }
  uint64_t burst = driver_.NextTransitionMs();
  if (burst != UINT64_MAX && burst <= end_ms_) {
    ScheduleEv(burst, Ev::kBurst, 0);
  }
  if (config_.sample_interval_ms != 0) {
    ScheduleEv(config_.start_ms + config_.sample_interval_ms, Ev::kSample, 0);
  }
}

void FleetSimulator::HandleTimer(uint64_t payload, uint64_t due_ms) {
  Ev kind = static_cast<Ev>(payload >> 48);
  uint32_t idx = static_cast<uint32_t>(payload & 0xFFFFFFFFull);
  switch (kind) {
    case Ev::kRenewStart:
      StartCycle(idx);
      break;
    case Ev::kResolveOk:
      OnResolveOk(idx);
      break;
    case Ev::kResolveFail:
      ++stats_.dns_stage_faults;
      OnStageFailed(idx, /*dns_fault=*/true);
      break;
    case Ev::kAcmeOk:
      OnAcmeOk(idx);
      break;
    case Ev::kAcmeFail:
      ++stats_.ca_stage_faults;
      OnStageFailed(idx, /*dns_fault=*/false);
      break;
    case Ev::kRetry:
      --retry_backlog_;
      StartCycle(idx);
      break;
    case Ev::kExpiryCheck: {
      Domain& d = domains_[idx];
      if (d.cert_expires_at_ms > due_ms) {
        break;  // renewed since this check was scheduled
      }
      if (!(d.flags & kLapsed)) {
        d.flags |= kLapsed;
        ++lapsed_now_;
        ++stats_.cert_misses;
        Digest(clock_.NowMs(), "lapsed domain=" + std::to_string(idx));
      }
      break;
    }
    case Ev::kPump:
      PumpProver();
      break;
    case Ev::kBurst: {
      driver_.AdvanceTo(due_ms, [this](uint64_t t_ms, FaultBurstDriver::Dep dep,
                                       bool active) {
        OnBurstTransition(t_ms, dep, active);
      });
      uint64_t next = driver_.NextTransitionMs();
      if (next != UINT64_MAX && next <= end_ms_) {
        ScheduleEv(next, Ev::kBurst, 0);
      }
      break;
    }
    case Ev::kSample:
      Sample();
      break;
    case Ev::kCanary:
      RunCanary(idx);
      break;
  }
}

void FleetSimulator::StartCycle(uint32_t idx) {
  ++stats_.cycles_started;
  Domain& d = domains_[idx];
  d.flags &= ~kInLegacy;  // every cycle probes the proof path first
  uint64_t now = clock_.NowMs();
  if (DrawFault(idx, driver_.DnsFaultRate())) {
    ScheduleEv(now + config_.dns_timeout_ms, Ev::kResolveFail, idx);
  } else {
    ScheduleEv(now + config_.resolve_ms, Ev::kResolveOk, idx);
  }
}

void FleetSimulator::OnResolveOk(uint32_t idx) {
  Domain& d = domains_[idx];
  uint64_t now = clock_.NowMs();
  uint64_t deadline = now + config_.prove_budget_ms;
  if (d.cert_expires_at_ms > now) {
    deadline = std::min(deadline, d.cert_expires_at_ms);
  }
  ProveRequest req;
  req.domain = "t" + std::to_string(idx % config_.tenants);
  req.circuit_id = "c" + std::to_string(idx % config_.key_circuits);
  size_t entry_bytes = config_.key_entry_bytes;
  req.key_loader = [entry_bytes] {
    return std::make_shared<FleetKeyEntry>(entry_bytes);
  };
  // The statement reads the brownout multiplier when it RUNS, not when it
  // was submitted: capacity loss hits the jobs on the prover during the
  // burst, and their inflated observed cost is what teaches the EWMA.
  req.statement = [this](const CachedKey*,
                         const CancellationToken& cancel) -> Status {
    uint64_t burn = static_cast<uint64_t>(
        static_cast<double>(prove_cost_ms_) * driver_.ProverCostMultiplier());
    while (burn > 0) {
      if (cancel.cancelled()) {
        return Error(ErrorCode::kCancelled, "fleet prove cancelled");
      }
      uint64_t slice = std::min(config_.prove_slice_ms, burn);
      clock_.SleepMs(slice);
      burn -= slice;
    }
    return Status::Ok();
  };
  req.deadline_ms = deadline;
  req.cost_estimate_ms = 0;  // defer to the service's EWMA cost model
  ProvingService::SubmitResult res = service_->Submit(std::move(req));
  if (res.admission == Admission::kRejectedQueueFull) {
    ++stats_.submit_rejected_queue_full;
    OnStageFailed(idx, /*dns_fault=*/false);
    return;
  }
  if (res.admission == Admission::kRejectedInfeasible) {
    ++stats_.submit_rejected_infeasible;
    OnStageFailed(idx, /*dns_fault=*/false);
    return;
  }
  job_to_domain_[res.job_id] = idx;
  if (!pump_scheduled_) {
    pump_scheduled_ = true;
    ScheduleEv(now, Ev::kPump, 0);  // clamps to the next tick
  }
}

void FleetSimulator::OnJobResult(const JobResult& result) {
  auto it = job_to_domain_.find(result.job_id);
  if (it == job_to_domain_.end()) {
    return;
  }
  uint32_t idx = it->second;
  job_to_domain_.erase(it);
  switch (result.outcome) {
    case JobOutcome::kOk: {
      ++stats_.jobs_ok;
      // Proof in hand: the ACME leg (order + DNS-01 + finalize).
      uint64_t now = clock_.NowMs();
      if (DrawFault(idx, driver_.CaFaultRate())) {
        ScheduleEv(now + config_.ca_timeout_ms, Ev::kAcmeFail, idx);
      } else {
        ScheduleEv(now + config_.acme_ms, Ev::kAcmeOk, idx);
      }
      break;
    }
    case JobOutcome::kFailed:
      ++stats_.jobs_failed;
      OnStageFailed(idx, /*dns_fault=*/false);
      break;
    case JobOutcome::kCancelled:
      ++stats_.jobs_cancelled;
      OnStageFailed(idx, /*dns_fault=*/false);
      break;
    case JobOutcome::kShedExpired:
    case JobOutcome::kShedCancelled:
      ++stats_.jobs_shed;
      OnStageFailed(idx, /*dns_fault=*/false);
      break;
  }
}

void FleetSimulator::OnStageFailed(uint32_t idx, bool /*dns_fault*/) {
  Domain& d = domains_[idx];
  uint64_t now = clock_.NowMs();
  ++stats_.cycle_failures;
  if (!(d.flags & kInLegacy)) {
    if (d.consecutive_failures < UINT16_MAX) {
      ++d.consecutive_failures;
    }
    if (d.consecutive_failures >= config_.degrade_after) {
      if (!(d.flags & kDegraded)) {
        d.flags |= kDegraded;
        ++degraded_now_;
        ++stats_.degradations;
        Digest(now, "degraded domain=" + std::to_string(idx));
      }
      // Degraded: fall back to legacy (proof-less) issuance this cycle —
      // CA-only, so it skips the prover and survives proving overload.
      StartLegacyAttempt(idx);
      return;
    }
  } else {
    d.flags &= ~kInLegacy;  // the legacy fallback failed too
  }
  // Capped exponential backoff plus a coordinated spread that widens with
  // the retry backlog: when a burst fails thousands of domains in one
  // window, their retries land spread across a wide interval instead of
  // re-converging into a synchronized stampede at burst end.
  uint64_t shift = std::min<uint64_t>(d.consecutive_failures, 6);
  uint64_t backoff =
      std::min(config_.retry_max_ms, config_.retry_base_ms << shift);
  uint64_t window =
      config_.retry_base_ms *
      (1 + std::min<uint64_t>(retry_backlog_, 4096) / 64);
  uint64_t spread = DomainDraw(idx) % std::max<uint64_t>(1, window);
  ++retry_backlog_;
  ++stats_.retries_scheduled;
  stats_.max_retry_backlog =
      std::max<uint64_t>(stats_.max_retry_backlog, retry_backlog_);
  ScheduleEv(now + backoff + spread, Ev::kRetry, idx);
}

void FleetSimulator::StartLegacyAttempt(uint32_t idx) {
  Domain& d = domains_[idx];
  d.flags |= kInLegacy;
  uint64_t now = clock_.NowMs();
  if (DrawFault(idx, driver_.CaFaultRate())) {
    ScheduleEv(now + config_.ca_timeout_ms, Ev::kAcmeFail, idx);
  } else {
    ScheduleEv(now + config_.acme_ms, Ev::kAcmeOk, idx);
  }
}

void FleetSimulator::OnAcmeOk(uint32_t idx) { OnIssued(idx); }

void FleetSimulator::OnIssued(uint32_t idx) {
  Domain& d = domains_[idx];
  uint64_t now = clock_.NowMs();
  bool legacy = (d.flags & kInLegacy) != 0;
  if (legacy) {
    ++stats_.legacy_issued;
  } else {
    ++stats_.nope_issued;
    if (d.flags & kDegraded) {
      d.flags &= ~kDegraded;
      --degraded_now_;
      ++stats_.recoveries;
      Digest(now, "recovered domain=" + std::to_string(idx));
    }
  }
  d.flags &= ~kInLegacy;
  d.consecutive_failures = 0;
  if (d.flags & kLapsed) {
    d.flags &= ~kLapsed;
    --lapsed_now_;
    ++stats_.lapse_recoveries;
  }
  d.cert_expires_at_ms = now + config_.cert_lifetime_ms;
  Digest(now, std::string(legacy ? "issued_legacy" : "issued_nope") +
                  " domain=" + std::to_string(idx));
  uint64_t lead = config_.renew_lead_ms;
  uint64_t jw = static_cast<uint64_t>(static_cast<double>(lead) *
                                      config_.lead_jitter_fraction);
  uint64_t jitter = jw != 0 ? DomainDraw(idx) % (2 * jw + 1) : 0;
  ScheduleEv(d.cert_expires_at_ms - lead - jw + jitter, Ev::kRenewStart, idx);
  ScheduleEv(d.cert_expires_at_ms, Ev::kExpiryCheck, idx);
}

void FleetSimulator::PumpProver() {
  pump_scheduled_ = false;
  // Shed expired heads for free, run at most one real job (it advances the
  // clock), then yield back to the wheel so stage timers that became due
  // during the prove get processed before the next job starts.
  while (service_->queue_depth() > 0) {
    uint64_t before = clock_.NowMs();
    service_->PumpOne();
    if (clock_.NowMs() != before) {
      break;
    }
  }
  if (service_->queue_depth() > 0) {
    pump_scheduled_ = true;
    ScheduleEv(clock_.NowMs(), Ev::kPump, 0);
  }
}

void FleetSimulator::OnBurstTransition(uint64_t t_ms, FaultBurstDriver::Dep dep,
                                       bool active) {
  if (active) {
    ++stats_.bursts;
  }
  Digest(t_ms, std::string(active ? "burst_start" : "burst_end") +
                   " dep=" + FaultBurstDriver::DepName(dep));
  // Canaries feel the same outages through their real fault injectors.
  for (auto& canary : canaries_) {
    canary->resolver.set_fault_rate(driver_.DnsFaultRate());
    canary->flaky_ca.set_fault_rate(driver_.CaFaultRate());
  }
}

void FleetSimulator::RunCanary(size_t which) {
  CanaryWorld& w = *canaries_[which];
  uint64_t now = clock_.NowMs();
  uint64_t expiry = w.manager->cert_expires_at_ms();
  if (expiry != 0 && now > expiry && !w.lapsed) {
    w.lapsed = true;
    ++stats_.canary_lapses;
    Digest(now, "canary_lapsed canary=" + std::to_string(which));
  }
  w.manager->RunOneCycle();
  ++stats_.canary_cycles;
  if (w.manager->cert_expires_at_ms() > clock_.NowMs()) {
    w.lapsed = false;
  }
  const std::vector<RenewalEvent>& events = w.manager->events();
  for (; w.consumed_events < events.size(); ++w.consumed_events) {
    const RenewalEvent& e = events[w.consumed_events];
    std::string line = "canary" + std::to_string(which) + " " +
                       RenewalEventKindName(e.kind);
    if (!e.detail.empty()) {
      line += ' ';
      line += e.detail;
    }
    Digest(e.t_ms, line);
  }
  ScheduleEv(w.manager->next_attempt_at_ms(), Ev::kCanary, which);
}

void FleetSimulator::Sample() {
  uint64_t now = clock_.NowMs();
  lapsed_gauge_->Set(static_cast<int64_t>(lapsed_now_));
  backlog_gauge_->Set(static_cast<int64_t>(retry_backlog_));
  degraded_gauge_->Set(static_cast<int64_t>(degraded_now_));
  Digest(now, "sample lapsed=" + std::to_string(lapsed_now_) +
                  " retry_backlog=" + std::to_string(retry_backlog_) +
                  " degraded=" + std::to_string(degraded_now_) +
                  " queue=" + std::to_string(service_->queue_depth()));
  uint64_t next = now + config_.sample_interval_ms;
  if (next <= end_ms_) {
    ScheduleEv(next, Ev::kSample, 0);
  }
}

FleetReport FleetSimulator::Run() {
  end_ms_ = config_.start_ms + config_.horizon_ms;
  SeedInitialSchedule();
  auto handler = [this](uint64_t payload, uint64_t due_ms) {
    HandleTimer(payload, due_ms);
  };
  while (true) {
    uint64_t next = wheel_.NextDueLowerBoundMs();
    if (next == UINT64_MAX || next > end_ms_) {
      break;
    }
    if (next > clock_.NowMs()) {
      clock_.AdvanceMs(next - clock_.NowMs());
    }
    // Statements may advance the clock mid-callback; the next iteration's
    // AdvanceTo catches the wheel up, so timers that became due during a
    // prove fire (late, as they would on a busy real host) before new work.
    wheel_.AdvanceTo(clock_.NowMs(), handler);
  }
  if (clock_.NowMs() < end_ms_) {
    clock_.AdvanceMs(end_ms_ - clock_.NowMs());
  }
  // Final gauge refresh so the metrics snapshot reflects end-of-run state.
  lapsed_gauge_->Set(static_cast<int64_t>(lapsed_now_));
  backlog_gauge_->Set(static_cast<int64_t>(retry_backlog_));
  degraded_gauge_->Set(static_cast<int64_t>(degraded_now_));

  FleetReport report;
  report.stats = stats_;
  report.cache = key_cache_.stats();
  report.metrics_json = metrics_.SnapshotJson();
  report.event_count = event_count_;
  report.event_digest = event_digest_;
  report.events = std::move(kept_events_);
  report.end_ms = clock_.NowMs();
  report.prove_cost_ms = prove_cost_ms_;
  return report;
}

std::string FleetReport::SummaryJson() const {
  auto field = [](const char* key, uint64_t value) {
    return "\"" + std::string(key) + "\": " + std::to_string(value);
  };
  std::string out = "{";
  out += field("cycles_started", stats.cycles_started) + ", ";
  out += field("nope_issued", stats.nope_issued) + ", ";
  out += field("legacy_issued", stats.legacy_issued) + ", ";
  out += field("cycle_failures", stats.cycle_failures) + ", ";
  out += field("degradations", stats.degradations) + ", ";
  out += field("recoveries", stats.recoveries) + ", ";
  out += field("cert_misses", stats.cert_misses) + ", ";
  out += field("rejected_queue_full", stats.submit_rejected_queue_full) + ", ";
  out += field("rejected_infeasible", stats.submit_rejected_infeasible) + ", ";
  out += field("jobs_ok", stats.jobs_ok) + ", ";
  out += field("jobs_cancelled", stats.jobs_cancelled) + ", ";
  out += field("jobs_shed", stats.jobs_shed) + ", ";
  out += field("bursts", stats.bursts) + ", ";
  out += field("canary_cycles", stats.canary_cycles) + ", ";
  out += field("canary_lapses", stats.canary_lapses) + ", ";
  out += field("max_retry_backlog", stats.max_retry_backlog) + ", ";
  out += field("key_cache_hits", cache.hits) + ", ";
  out += field("key_cache_misses", cache.misses) + ", ";
  out += field("key_cache_evictions", cache.evictions) + ", ";
  out += field("event_count", event_count) + ", ";
  out += field("event_digest", event_digest) + ", ";
  out += field("prove_cost_ms", prove_cost_ms);
  out += "}";
  return out;
}

}  // namespace nope
