#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/base/threadpool.h"
#include "src/ff/fp.h"

namespace perfbench {

namespace {

[[noreturn]] void Usage(const char* prog, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S "
               "[--trace-out PATH]\n",
               prog, problem.c_str(), prog);
  std::exit(2);
}

// JSON string escaping for the few free-text fields (CPU model, names).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(argv[0], "missing value for " + flag);
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage(argv[0], "--seconds must be a positive number");
      }
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(argv[0], "unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    Usage(argv[0], "--workload and --seed are required");
  }
  return args;
}

uint64_t DeriveSeed(uint64_t seed, const char* tag) {
  // FNV-1a over the tag, folded into the seed, then a splitmix64 finalizer.
  uint64_t h = 14695981039346656037ull;
  for (const char* p = tag; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ull;
  }
  uint64_t z = seed ^ h;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string HostJson(const Args& args) {
  const char* threads_env = std::getenv("NOPE_THREADS");
  const char* commit = std::getenv("NOPE_BENCH_COMMIT");
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"nope_threads_env\": " << Quote(threads_env ? threads_env : "")
      << ", \"pool_threads\": " << nope::ThreadPool::GlobalThreads()
      << ", \"simd_backend\": " << Quote(nope::Fr::SimdBackendName())
      << ", \"cpu_model\": " << Quote(CpuModel())
      << ", \"commit\": " << Quote(commit ? commit : "unknown")
      << ", \"workload\": " << Quote(args.workload) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << FormatNumber(args.seconds) << "}";
  return out.str();
}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = NowMs() * 1000.0;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double Tracer::End(int id) {
  Span& span = spans_[id];
  span.end_us = NowMs() * 1000.0;
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  } else {
    std::fprintf(stderr, "span %s closed out of order\n", span.name.c_str());
    open_.erase(std::remove(open_.begin(), open_.end(), id), open_.end());
  }
  return (span.end_us - span.start_us) / 1000.0;
}

void Tracer::Record(const std::string& name, double start_us, double end_us) {
  spans_.push_back({name, start_us, end_us, open_.empty() ? -1 : open_.back()});
}

bool Tracer::Write(const std::string& path, const std::string& host_json) const {
  std::ofstream out(path);
  out << "{\"host\": " << host_json << ",\n\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << Quote(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << FormatNumber(s.start_us)
        << ", \"dur\": " << FormatNumber(s.end_us - s.start_us) << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Result::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Print() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << Quote(m.name) << ": {\"value\": " << FormatNumber(m.value)
        << ", \"unit\": " << Quote(m.unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
