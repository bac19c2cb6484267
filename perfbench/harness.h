// Shared plumbing for the two benchmark programs (nope_bench, the untraced
// end-to-end run, and nope_bench_trace, the traced per-layer run): argument
// parsing, wall-clock timing, sample statistics, in-memory spans, the host
// fingerprint and the one-line JSON result the driver reads.
//
// The benchmark times the repository only from the outside, around calls to
// its public functions; src/ holds no benchmark code.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  std::string trace_out;  // traced run only: where the spans are written
};

// Parses --workload, --seed, --seconds and (optionally) --trace-out. Exits
// with status 2 on anything else.
Args ParseArgs(int argc, char** argv);

// Independent sub-seeds from the one --seed, so every input the program
// receives (hierarchy, TLS keys, prover Rng, chain order, scenario window,
// fleet seed) is a function of the seed alone.
uint64_t DeriveSeed(uint64_t seed, const char* tag);

// Milliseconds on the monotonic clock (CLOCK_MONOTONIC on Linux).
double NowMs();

double Median(std::vector<double> v);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);
double Sum(const std::vector<double>& v);

// Peak resident set size of this process so far.
double PeakRssMb();

// Host and configuration fingerprint as one JSON object: nproc,
// NOPE_THREADS, the SIMD backend in use, CPU model, commit and seed.
std::string HostJson(const Args& args);

// Spans kept in memory (name, start, end, parent) and written out at exit as
// Chrome trace-event JSON. Begin/End nest as a stack on one thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  int Begin(const std::string& name);
  // Closes span `id` (the innermost open one) and returns its duration in ms.
  double End(int id);
  // Adds an already finished span under the innermost open one (for stage
  // times reported after the fact, e.g. by groth16::ProveStageHooks).
  void Record(const std::string& name, double start_us, double end_us);
  const std::vector<Span>& spans() const { return spans_; }
  // Writes {"host": ..., "traceEvents": [...]}; returns false on I/O error.
  bool Write(const std::string& path, const std::string& host_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; ms() ends the span early and returns its duration.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { ms(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double ms() {
    if (!done_) {
      ms_ = tracer_->End(id_);
      done_ = true;
    }
    return ms_;
  }

 private:
  Tracer* tracer_;
  int id_;
  bool done_ = false;
  double ms_ = 0;
};

// The result line. Check() counts one checked output into attempted and, if
// it is wrong, into failed (and says why on stderr).
class Result {
 public:
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // Prints the single JSON object as the last line of stdout.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
