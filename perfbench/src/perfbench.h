// Shared pieces of the rsmem benchmark: run context, metric sink, span
// tracer, order statistics, and the per-layer probe entry points.
//
// The benchmark drives the library and the analysis service only from the
// outside: it calls the public core/rs/memory/models/markov/linalg/service
// surfaces and records spans around those calls from this directory. No
// instrumentation lives inside src/.
#ifndef RSMEM_PERFBENCH_PERFBENCH_H
#define RSMEM_PERFBENCH_PERFBENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/monte_carlo.h"
#include "core/config.h"
#include "models/chain_cache.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

// Order statistics. quantile() interpolates linearly between order
// statistics (q in [0, 1]); both return 0 for an empty sample.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

// 64-bit mix (splitmix64 finalizer) for deriving seeds from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span and request id, kept in memory and
// written out as JSON lines when the run ends. A span opened on a thread
// becomes the parent of the spans opened inside it on that thread.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);
  std::size_t size() const;
  // Writes every recorded span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

std::int64_t now_ns();

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }  // 0 when disabled

 private:
  Tracer* tracer_ = nullptr;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // self-test size: tiny inputs, same code paths
  unsigned nproc = 1;
  std::string cli_path;   // rsmem_cli binary (serve child)
  std::string workdir;    // scratch directory inside the checkout
  std::string golden_path;
  bool write_golden = false;

  Tracer tracer;
  std::vector<Metric> metrics;           // printed in the result line
  std::map<std::string, double> notes;   // printed for humans only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value) { notes[name] = value; }
  // Records a correctness gate; a false gate fails the run.
  void gate(bool ok, const std::string& what);
  bool correct() const { return gate_failures.empty(); }
};

// Set-up time: the median of 25 timed runs of `body`, after untimed runs
// for 0.3 s so the core has left its idle clock (smoke: 2 runs, no warm-up).
template <typename Body>
double median_setup_s(const RunContext& ctx, Body&& body) {
  const auto warm = Clock::now();
  while (!ctx.smoke && seconds_since(warm) < 0.3) body();
  std::vector<double> samples;
  for (int i = 0; i < (ctx.smoke ? 2 : 25); ++i) {
    const auto t0 = Clock::now();
    body();
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

// Peak resident set of this process, in MB.
double self_peak_rss_mb();

// ---------------------------------------------------------------------------
// Per-layer probes (layers.cpp). Each runs the named layer's public calls on
// the workload's own inputs and records the layer metrics listed in
// perfbench/README.md. Every traced run reports every layer metric; a
// workload that bypasses a layer end to end still gets that layer measured
// on its own spec, so the numbers stay comparable across commits.
struct LayerInputs {
  rsmem::core::MemorySystemSpec spec;
  double hours = 48.0;               // campaign horizon
  std::vector<double> solve_times;   // ber_curve sample times (hours)
  std::size_t observe_trials = 1024; // observer campaign size
  std::size_t memory_trials = 256;   // memory/sim probe size
  std::size_t chunk_trials = 1024;
};

// Runs one observer campaign and the gf/rs probes at the observed
// error/erasure weights.
void probe_codec_layers(RunContext& ctx, const LayerInputs& in);
// memory.* and sim.* from a per-trial store/advance/read loop.
void probe_memory_layers(RunContext& ctx, const LayerInputs& in);
// models.build_s/chain_states/chain_nnz, markov.*, linalg.* on the spec's
// chain (built fresh, outside the global cache).
void probe_chain_layers(RunContext& ctx, const LayerInputs& in);
// Two campaigns of the same seed at 1 and nproc threads: gates their bit
// identity and returns both rates (trials/s).
struct ThreadScaling {
  double trials_per_s_1t = 0.0;
  double trials_per_s_n = 0.0;
};
ThreadScaling compare_thread_counts(RunContext& ctx, const LayerInputs& in,
                                    std::size_t trials, std::uint64_t seed);
// campaign.trials_per_s_1t and campaign.scaling_eff.
void record_campaign_layers(RunContext& ctx, const ThreadScaling& scaling);

rsmem::analysis::MonteCarloConfig campaign_config(const LayerInputs& in,
                                                  std::size_t trials,
                                                  std::uint64_t seed,
                                                  unsigned threads);
// An RS(n, 16) code over GF(2^8) at the paper's rates (per bit/symbol per
// day; tsc in seconds, 0 = no scrubbing).
rsmem::core::MemorySystemSpec spec_of(rsmem::analysis::Arrangement a,
                                      unsigned n, double seu, double perm,
                                      double tsc);
// Bitwise equality of two campaign results (every field, doubles by bits).
bool same_mc_result(const rsmem::analysis::MonteCarloResult& a,
                    const rsmem::analysis::MonteCarloResult& b);

// models.cache_*: the change of models::global_chain_cache().stats()
// since `before`.
void record_cache_delta(RunContext& ctx,
                        const rsmem::models::ChainCache::Stats& before);

// Workloads.
void run_mc_workload(RunContext& ctx, bool duplex);
void run_markov_grid(RunContext& ctx);
void run_serve_mix(RunContext& ctx);
// service.*, protocol.*, scheduler.*, loadgen.* from a short open-loop
// burst at one rate against a fresh serve child (used by the traced runs
// of the workloads that do not go through the service end to end).
void probe_service_layers(RunContext& ctx);

}  // namespace perfbench

#endif  // RSMEM_PERFBENCH_PERFBENCH_H
