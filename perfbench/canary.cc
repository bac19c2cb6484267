#include "perfbench/canary.h"

#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

constexpr long kPeriodNs = 10'000'000;
constexpr int kIterations = 2048;
// The kernel's time on an uncontended core of the reference host: the 5th
// percentile of 6000 samples on the 4-core Xeon at 2.1 GHz (its median was
// 17 us and its 95th percentile 24 us).
constexpr double kReferenceUs = 11.8;
constexpr size_t kMaxSamples = 1 << 17;  // 21 minutes at 10 ms
constexpr double kContextMs = 50;

struct Sample {
  double end_ms;  // CLOCK_MONOTONIC, the clock NowMs() reads
  double us;
};
Sample g_samples[kMaxSamples];
std::atomic<size_t> g_count{0};
volatile uint64_t g_sink;
timer_t g_timer;
bool g_running = false;

double MonotonicMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

uint64_t Kernel() {
  uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const uint64_t m = 0x9e3779b97f4a7c15ull;
  for (int it = 0; it < kIterations; ++it) {
    for (int j = 0; j < 8; ++j) {
      unsigned __int128 p = static_cast<unsigned __int128>(a[j]) * m;
      a[j] = static_cast<uint64_t>(p) + static_cast<uint64_t>(p >> 64) + j;
    }
  }
  uint64_t x = 0;
  for (uint64_t v : a) {
    x ^= v;
  }
  return x;
}

// Runs on the measuring thread; touches only its own globals and async-
// signal-safe calls.
void OnTimer(int) {
  int saved_errno = errno;
  double start = MonotonicMs();
  g_sink = Kernel();
  double end = MonotonicMs();
  size_t i = g_count.load(std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_samples[i] = {end, (end - start) * 1000.0};
    g_count.store(i + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

}  // namespace

bool StartCanary() {
  struct sigaction sa {};
  sa.sa_handler = OnTimer;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, nullptr) != 0) {
    return false;
  }
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
    return false;
  }
  itimerspec spec{};
  spec.it_interval.tv_nsec = kPeriodNs;
  spec.it_value.tv_nsec = kPeriodNs;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    timer_delete(g_timer);
    return false;
  }
  g_running = true;
  return true;
}

void StopCanary() {
  if (g_running) {
    timer_delete(g_timer);
    g_running = false;
  }
}

size_t CanarySamples() { return g_count.load(std::memory_order_acquire); }

double CanaryMeanUs() {
  size_t n = CanarySamples();
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += g_samples[i].us;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

double ScaledMs(double start_ms, double end_ms) {
  const Sample* begin = g_samples;
  const Sample* end = g_samples + CanarySamples();
  auto after = [](const Sample& s, double t) { return s.end_ms < t; };
  // The canary's own interruptions inside the interval are not its time.
  double own_ms = end_ms - start_ms;
  for (const Sample* s = std::lower_bound(begin, end, start_ms, after);
       s < end && s->end_ms <= end_ms; ++s) {
    own_ms -= s->us / 1000.0;
  }
  // The core's speed over the interval: the mean sample from kContextMs
  // either side (a short operation has none inside), which follows the
  // share of the interval spent in slow phases. Samples above three times
  // the median are the kernel being preempted, not a slow core.
  std::vector<double> near;
  for (const Sample* s = std::lower_bound(begin, end, start_ms - kContextMs, after);
       s < end && s->end_ms <= end_ms + kContextMs; ++s) {
    near.push_back(s->us);
  }
  if (near.empty()) {
    return own_ms;
  }
  std::nth_element(near.begin(), near.begin() + near.size() / 2, near.end());
  const double cap = 3 * near[near.size() / 2];
  double sum = 0;
  size_t n = 0;
  for (double us : near) {
    if (us <= cap) {
      sum += us;
      ++n;
    }
  }
  return own_ms * kReferenceUs * static_cast<double>(n) / sum;
}

}  // namespace perfbench
