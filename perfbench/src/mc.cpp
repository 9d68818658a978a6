// Workloads mc_duplex_scrub and mc_simplex_clean: Monte-Carlo campaigns
// through core::simulate at threads = nproc.
#include <algorithm>
#include <iostream>
#include <memory>
#include <mutex>

#include "core/api.h"
#include "perfbench.h"
#include "rs/reed_solomon.h"

namespace perfbench {

namespace rsm = rsmem;

namespace {

struct McWorkload {
  LayerInputs in;
  std::size_t campaign_trials = 0;  // one timed operation
  std::size_t gate_trials = 0;      // threads=1 vs nproc identity check
};

McWorkload make_workload(const RunContext& ctx, bool duplex) {
  McWorkload w;
  rsm::core::MemorySystemSpec& spec = w.in.spec;
  if (duplex) {
    // About one SEU per bit per scrub interval pair: ~96 exponential scrubs
    // per 48 h trial, most of them dirty decodes.
    spec.arrangement = rsm::analysis::Arrangement::kDuplex;
    spec.code = {36, 16, 8, 1};
    spec.seu_rate_per_bit_day = 0.167;
    spec.scrub_period_seconds = 1800.0;
    w.campaign_trials = ctx.smoke ? 128 : 1024;
    w.in.chunk_trials = 64;
  } else {
    // Almost every word stays clean: encode_batch + the syndrome screen.
    spec.arrangement = rsm::analysis::Arrangement::kSimplex;
    spec.code = {255, 223, 8, 1};
    spec.seu_rate_per_bit_day = 2e-5;
    w.campaign_trials = ctx.smoke ? 2048 : 16384;
    w.in.chunk_trials = 1024;
  }
  w.in.hours = 48.0;
  w.in.solve_times = {12.0, 24.0, 36.0, 48.0};
  w.in.observe_trials = w.campaign_trials;
  w.in.memory_trials = duplex ? 512 : 4096;
  w.gate_trials = w.campaign_trials;
  return w;
}

}  // namespace

void run_mc_workload(RunContext& ctx, bool duplex) {
  const McWorkload w = make_workload(ctx, duplex);
  const std::uint64_t seed = mix_seed(ctx.seed, 1);

  // Set-up: what a campaign builds before its first trial -- the codec,
  // its workspace (SIMD constant tables) and one stored system.
  const double setup_s = median_setup_s(ctx, [&] {
    const auto code =
        std::make_shared<const rsm::rs::ReedSolomon>(w.in.spec.code);
    rsm::rs::DecoderWorkspace ws;
    ws.reserve(*code);
    const std::vector<rsm::gf::Element> data(code->k(), 1);
    if (duplex) {
      auto cfg = w.in.spec.to_duplex_system_config(seed);
      cfg.shared_code = code;
      cfg.workspace = &ws;
      rsm::memory::DuplexSystem(cfg).store(data);
    } else {
      auto cfg = w.in.spec.to_simplex_system_config(seed);
      cfg.shared_code = code;
      cfg.workspace = &ws;
      rsm::memory::SimplexSystem(cfg).store(data);
    }
  });

  // Gate: threads=1 and threads=nproc agree bit for bit.
  const ThreadScaling scaling =
      compare_thread_counts(ctx, w.in, w.gate_trials, seed);
  ctx.attempted += 2;

  // Timed operations: campaigns of campaign_trials at threads = nproc, all
  // with the same seed, so every repetition must reproduce the first.
  const auto config =
      campaign_config(w.in, w.campaign_trials, seed, ctx.nproc);
  std::vector<double> untraced, traced;
  rsm::analysis::MonteCarloResult first;
  bool have_first = false, repeat_ok = true;
  std::uint64_t observed = 0;
  std::mutex observed_mutex;
  const double budget = ctx.trace ? ctx.seconds * 0.4 : ctx.seconds;
  const auto start = Clock::now();
  const auto cache_before = rsm::models::global_chain_cache().stats();
  for (std::size_t rep = 0;
       rep < (ctx.trace ? 4u : 3u) || seconds_since(start) < budget; ++rep) {
    // Traced runs alternate untraced and traced (span + per-trial observer)
    // campaigns so the difference is the tracing overhead.
    const bool traced_rep = ctx.trace && rep % 2 == 1;
    ctx.tracer.set_enabled(traced_rep);
    auto cfg = config;
    if (traced_rep) {
      cfg.observer = [&](const rsm::analysis::TrialRecord&) {
        std::lock_guard<std::mutex> lock(observed_mutex);
        ++observed;
      };
    }
    ++ctx.attempted;
    const auto t0 = Clock::now();
    try {
      ScopedSpan span(ctx.tracer, "core.simulate");
      const auto result = rsm::simulate(w.in.spec, cfg);
      (traced_rep ? traced : untraced).push_back(seconds_since(t0));
      if (!have_first) {
        first = result;
        have_first = true;
      }
      repeat_ok = repeat_ok && same_mc_result(first, result) &&
                  result.failure.trials == w.campaign_trials;
    } catch (const std::exception& e) {
      ++ctx.failed;
      std::cout << "operation failed: " << e.what() << "\n";
    }
  }
  ctx.tracer.set_enabled(ctx.trace);
  ctx.gate(have_first && repeat_ok,
           "mc: every repetition reproduces the first result bit for bit");
  if (have_first) {
    ctx.note("mc.p_fail", first.failure.p_hat());
    ctx.note("mc.failures", static_cast<double>(first.failure.failures));
  }

  ctx.note("setup_s", setup_s);
  if (!ctx.trace) {
    const double t50 = median(untraced);
    const double trials = static_cast<double>(w.campaign_trials);
    ctx.metric("setup_s", setup_s, "s");
    ctx.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    ctx.metric("ok_frac",
               static_cast<double>(ctx.attempted - ctx.failed) / ctx.attempted,
               "1");
    ctx.metric("throughput_per_s", trials / t50, "1/s");
    ctx.metric("p50_ms", t50 * 1e3, "ms");
    ctx.note("trials_per_s", trials / t50);
    ctx.note("campaign_trials", trials);
    ctx.note("campaigns", static_cast<double>(untraced.size()));
    ctx.note("campaign_p99_ms", quantile(untraced, 0.99) * 1e3);
    ctx.note("failed_frac",
             static_cast<double>(ctx.failed) / ctx.attempted);
    return;
  }
  ctx.gate(observed == w.campaign_trials * traced.size(),
           "mc: the observer saw every traced trial");
  ctx.metric("trace.overhead_frac", median(traced) / median(untraced) - 1.0,
             "1");
  record_cache_delta(ctx, cache_before);
  record_campaign_layers(ctx, scaling);
  probe_codec_layers(ctx, w.in);
  probe_memory_layers(ctx, w.in);
  probe_chain_layers(ctx, w.in);
  probe_service_layers(ctx);
}

}  // namespace perfbench
