// rsmem benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cli PATH/rsmem_cli --workdir DIR [--golden FILE]
//             [--smoke] [--write-golden]
//
// Prints human-readable lines (host context, metrics with units, gates),
// then, as the LAST line of stdout, one JSON object with exactly the keys
// correct / attempted / failed / metrics. With --trace 0 the metrics are the
// end-to-end set; with --trace 1 they are the per-layer set, and the spans
// recorded around every public call are written to
// DIR/spans-<workload>-<seed>.jsonl.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "gf/simd_mul.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

namespace {
thread_local std::uint64_t t_current_span = 0;
}  // namespace

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name,
                       std::uint64_t request) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  span_.id = tracer.next_id();
  span_.parent = t_current_span;
  span_.request = request;
  span_.name = name;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_current_span = saved_parent_;
  tracer_->record(span_);
}

void RunContext::metric(const std::string& name, double value,
                        const std::string& unit) {
  if (!std::isfinite(value)) {
    gate(false, "metric " + name + " is not finite");
    value = -1.0;
  }
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void RunContext::gate(bool ok, const std::string& what) {
  std::cout << "gate " << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) gate_failures.push_back(what);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string host_context_json(unsigned nproc, double load_start,
                              double load_end) {
  namespace simd = rsmem::gf::simd;
  std::ostringstream os;
  os << "{\"nproc\":" << nproc << ",\"gf_backend\":\""
     << simd::active().name << "\",\"gf_supported\":[";
  bool first = true;
  for (const simd::Backend b : simd::kAllBackends) {
    if (!simd::backend_supported(b)) continue;
    os << (first ? "" : ",") << "\"" << simd::to_string(b) << "\"";
    first = false;
  }
  os << "],\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"loadavg_start\":" << fmt(load_start)
     << ",\"loadavg_end\":" << fmt(load_end) << "}";
  return os.str();
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli PATH --workdir DIR [--golden FILE] "
               "[--smoke] [--write-golden]\n";
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        ctx.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(value());
      } else if (arg == "--trace") {
        ctx.trace = value() == "1";
      } else if (arg == "--cli") {
        ctx.cli_path = value();
      } else if (arg == "--workdir") {
        ctx.workdir = value();
      } else if (arg == "--golden") {
        ctx.golden_path = value();
      } else if (arg == "--smoke") {
        ctx.smoke = true;
      } else if (arg == "--write-golden") {
        ctx.write_golden = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || ctx.workdir.empty() || ctx.cli_path.empty()) {
    usage("--workload, --cli and --workdir are required");
  }
  if (!(ctx.seconds > 0.0)) usage("--seconds must be > 0");
  if (!release_build()) {
    std::cerr << "perfbench: refusing to record numbers from a non-Release "
                 "build (build type '"
              << PERFBENCH_BUILD_TYPE << "')\n";
    return 3;
  }

  // A hard address-space cap keeps a runaway dense allocation (the known
  // 211k-state absorption failure) a clean std::bad_alloc on every host,
  // whatever its overcommit policy. The serve child inherits it.
  // Sanitizer builds reserve terabytes of shadow address space and skip it.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  rlimit cap{};
  cap.rlim_cur = cap.rlim_max = static_cast<rlim_t>(8) << 30;
  setrlimit(RLIMIT_AS, &cap);
#endif

  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  ctx.nproc = cores > 0 ? static_cast<unsigned>(cores) : 1u;
  ctx.tracer.set_enabled(ctx.trace);
  const double load_start = load_average();
  std::cout << "perfbench workload=" << ctx.workload << " seed=" << ctx.seed
            << " seconds=" << ctx.seconds << " trace=" << (ctx.trace ? 1 : 0)
            << (ctx.smoke ? " smoke" : "") << "\n";

  try {
    if (ctx.workload == "mc_duplex_scrub") {
      run_mc_workload(ctx, true);
    } else if (ctx.workload == "mc_simplex_clean") {
      run_mc_workload(ctx, false);
    } else if (ctx.workload == "markov_grid") {
      run_markov_grid(ctx);
    } else if (ctx.workload == "serve_open_mix") {
      run_serve_mix(ctx);
    } else {
      usage("unknown workload " + ctx.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload aborted: " << e.what() << "\n";
    return 1;
  }

  const std::string host =
      host_context_json(ctx.nproc, load_start, load_average());
  std::cout << "host " << host << "\n";
  if (ctx.trace) {
    const std::string path = ctx.workdir + "/spans-" + ctx.workload + "-" +
                             std::to_string(ctx.seed) + ".jsonl";
    ctx.gate(ctx.tracer.write_jsonl(path), "spans written to " + path);
    std::cout << "spans " << ctx.tracer.size() << "\n";
  }
  for (const auto& [name, value] : ctx.notes) {
    std::cout << "note " << name << " = " << fmt(value) << "\n";
  }
  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  for (const Metric& m : ctx.metrics) {
    std::cout << "metric " << m.name << " = " << fmt(m.value) << " " << m.unit
              << "\n";
    metrics << (first ? "" : ", ") << "\"" << json_escape(m.name)
            << "\": {\"value\": " << fmt(m.value) << ", \"unit\": \""
            << json_escape(m.unit) << "\"}";
    first = false;
  }
  metrics << "}";
  // Host context rides along in the per-run record file; the result line
  // keeps exactly the four keys of the benchmark contract.
  {
    const std::string record = ctx.workdir + "/result-" + ctx.workload + "-" +
                               std::to_string(ctx.seed) + "-trace" +
                               (ctx.trace ? "1" : "0") + ".json";
    std::ofstream out(record);
    out << "{\"workload\":\"" << ctx.workload << "\",\"seed\":" << ctx.seed
        << ",\"host\":" << host << ",\"metrics\":" << metrics.str() << "}\n";
  }
  std::cout << "{\"correct\": " << (ctx.correct() ? "true" : "false")
            << ", \"attempted\": " << ctx.attempted
            << ", \"failed\": " << ctx.failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}
