// Per-layer probes: each drives one layer's public calls on a workload's own
// inputs, inside spans, and records that layer's metrics.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

#include "analysis/monte_carlo.h"
#include "core/api.h"
#include "gf/simd_mul.h"
#include "markov/solver_guard.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/chain_cache.h"
#include "perfbench.h"
#include "rs/reed_solomon.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace perfbench {

namespace rsm = rsmem;
using rsm::gf::Element;

namespace {

struct WeightSample {
  unsigned errors = 0;
  unsigned erasures = 0;
};

// Runs `body` repeatedly until `budget_s` has passed (at least `min_reps`
// times, at most `max_reps`); returns the repetitions done.
template <typename Body>
std::size_t repeat_for(double budget_s, std::size_t min_reps,
                       std::size_t max_reps, Body&& body) {
  const auto t0 = Clock::now();
  std::size_t reps = 0;
  while (reps < max_reps && (reps < min_reps || seconds_since(t0) < budget_s)) {
    body();
    ++reps;
  }
  return reps;
}

void fill_random(rsm::sim::Rng& rng, std::span<Element> out, unsigned m) {
  for (Element& e : out) {
    e = static_cast<Element>(rng.uniform_int(std::uint64_t{1} << m));
  }
}

}  // namespace

bool same_mc_result(const rsm::analysis::MonteCarloResult& a,
                    const rsm::analysis::MonteCarloResult& b) {
  const auto bits_equal = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return a.failure.trials == b.failure.trials &&
         a.failure.failures == b.failure.failures &&
         bits_equal(a.mean_seu_per_trial, b.mean_seu_per_trial) &&
         bits_equal(a.mean_permanent_per_trial, b.mean_permanent_per_trial) &&
         a.scrub_failures == b.scrub_failures &&
         a.scrub_miscorrections == b.scrub_miscorrections &&
         a.no_output_failures == b.no_output_failures &&
         a.wrong_data_failures == b.wrong_data_failures;
}

rsm::core::MemorySystemSpec spec_of(rsm::analysis::Arrangement a, unsigned n,
                                    double seu, double perm, double tsc) {
  rsm::core::MemorySystemSpec spec;
  spec.arrangement = a;
  spec.code = {n, 16, 8, 1};
  spec.seu_rate_per_bit_day = seu;
  spec.erasure_rate_per_symbol_day = perm;
  spec.scrub_period_seconds = tsc;
  return spec;
}

rsm::analysis::MonteCarloConfig campaign_config(const LayerInputs& in,
                                                std::size_t trials,
                                                std::uint64_t seed,
                                                unsigned threads) {
  rsm::analysis::MonteCarloConfig config;
  config.trials = trials;
  config.t_end_hours = in.hours;
  config.seed = seed;
  config.threads = threads;
  config.chunk_trials = in.chunk_trials;
  return config;
}

void record_cache_delta(RunContext& ctx,
                        const rsm::models::ChainCache::Stats& before) {
  const auto now = rsm::models::global_chain_cache().stats();
  ctx.metric("models.cache_hits",
             static_cast<double>(now.exact_hits - before.exact_hits), "count");
  ctx.metric("models.cache_replays",
             static_cast<double>(now.replays - before.replays), "count");
  ctx.metric("models.cache_builds",
             static_cast<double>(now.builds - before.builds), "count");
}

void probe_codec_layers(RunContext& ctx, const LayerInputs& in) {
  // 1. Error/erasure weights of the final-read decodes, as the campaign's
  //    observer sees them.
  std::mutex mutex;
  std::vector<WeightSample> dirty;
  std::uint64_t words = 0, dirty_words = 0, failed_words = 0;
  rsm::analysis::MonteCarloConfig config = campaign_config(
      in, in.observe_trials, mix_seed(ctx.seed, 21), ctx.nproc);
  config.observer = [&](const rsm::analysis::TrialRecord& record) {
    std::lock_guard<std::mutex> lock(mutex);
    for (unsigned w = 0; w < record.word_count; ++w) {
      const auto& word = record.words[w];
      ++words;
      if (!word.decode_ok) ++failed_words;
      if (word.corrupted_symbols > 0 || word.erasures_supplied > 0) {
        ++dirty_words;
        if (dirty.size() < 4096) {
          dirty.push_back({word.corrupted_symbols, word.erasures_supplied});
        }
      }
    }
  };
  {
    ScopedSpan span(ctx.tracer, "core.simulate.observe");
    rsm::simulate(in.spec, config);
  }
  ctx.metric("rs.dirty_word_frac",
             words ? static_cast<double>(dirty_words) / words : 0.0, "1");
  ctx.metric("rs.decode_fail_frac",
             words ? static_cast<double>(failed_words) / words : 0.0, "1");
  ctx.note("rs.observed_words", static_cast<double>(words));
  if (dirty.empty()) {
    dirty.push_back({1, 0});  // a clean workload still gets a dirty number
    ctx.note("rs.dirty_weights_synthetic", 1.0);
  }

  const rsm::rs::ReedSolomon code(in.spec.code);
  rsm::rs::DecoderWorkspace ws;
  ws.reserve(code);
  const unsigned n = code.n(), k = code.k(), m = code.m();
  const std::size_t batch = 64;  // the campaign's default plane width
  rsm::sim::Rng rng(mix_seed(ctx.seed, 22));
  const double budget = ctx.smoke ? 0.01 : 0.15;

  // 2. gf: fused multiply-accumulate on the encoder's row shape
  //    (2t parity rows x one plane of `batch` words).
  if (m <= 8) {
    const auto& kernels = rsm::gf::simd::active();
    const std::size_t rows = n - k;
    rsm::gf::AlignedVector<rsm::gf::simd::MulTables> tables(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      rsm::gf::simd::build_tables(
          tables[r], code.field(),
          static_cast<Element>(1 + rng.uniform_int((1u << m) - 1)));
    }
    rsm::gf::AlignedVector<std::uint8_t> src(batch), dst(rows * batch);
    for (auto& b : src) b = static_cast<std::uint8_t>(rng.uniform_int(1u << m));
    const std::size_t calls_per_rep = 256;
    double busy = 0.0;
    const std::size_t reps = repeat_for(budget, 3, 100000, [&] {
      ScopedSpan span(ctx.tracer, "gf.mul_rows_acc");
      const auto t0 = Clock::now();
      for (std::size_t c = 0; c < calls_per_rep; ++c) {
        if (kernels.mul_rows_acc != nullptr) {
          kernels.mul_rows_acc(dst.data(), batch, src.data(), tables.data(),
                               rows, batch);
        } else {
          for (std::size_t r = 0; r < rows; ++r) {
            kernels.mul_const_acc(dst.data() + r * batch, src.data(),
                                  tables[r], batch);
          }
        }
      }
      busy += seconds_since(t0);
    });
    const double bytes =
        static_cast<double>(reps * calls_per_rep * rows * batch);
    ctx.metric("gf.mul_rows_acc_gbps", bytes / busy / 1e9, "GB/s");
  }

  // 3. rs: batch encode, clean and dirty batch decode.
  std::vector<Element> data(batch * k), plane(batch * n), work(batch * n);
  std::vector<std::uint8_t> flags(batch * n);
  std::vector<rsm::rs::DecodeOutcome> outcomes(batch);
  fill_random(rng, data, m);
  // One span per block of calls keeps the trace small next to the work.
  constexpr std::size_t kBlock = 16;
  double busy = 0.0;
  std::size_t reps = repeat_for(budget, 3, 1000000, [&] {
    ScopedSpan span(ctx.tracer, "rs.encode_batch");
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < kBlock; ++b) code.encode_batch(ws, data, plane);
    busy += seconds_since(t0);
  });
  ctx.metric("rs.encode_ns_per_word", busy * 1e9 / (reps * kBlock * batch),
             "ns");

  busy = 0.0;
  bool clean_ok = true;
  reps = repeat_for(budget, 3, 1000000, [&] {
    ScopedSpan span(ctx.tracer, "rs.decode_batch.clean");
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < kBlock; ++b) {
      code.decode_batch(ws, plane, outcomes);
    }
    busy += seconds_since(t0);
    for (const auto& o : outcomes) {
      clean_ok = clean_ok && o.status == rsm::rs::DecodeStatus::kNoError;
    }
  });
  ctx.metric("rs.decode_clean_ns_per_word",
             busy * 1e9 / (reps * kBlock * batch), "ns");
  ctx.gate(clean_ok, "rs: clean codewords decode as kNoError");

  // Dirty plane at the observed weights.
  std::vector<Element> dirty_plane = plane;
  std::vector<unsigned> positions(n);
  for (std::size_t w = 0; w < batch; ++w) {
    const WeightSample s = dirty[rng.uniform_int(dirty.size())];
    for (unsigned p = 0; p < n; ++p) positions[p] = p;
    for (unsigned p = 0; p < n; ++p) {  // partial Fisher-Yates
      std::swap(positions[p], positions[p + rng.uniform_int(n - p)]);
    }
    const unsigned erasures = std::min(s.erasures, n);
    const unsigned errors = std::min(s.errors, n - erasures);
    for (unsigned i = 0; i < erasures + errors; ++i) {
      const unsigned p = positions[i];
      if (i < erasures) flags[w * n + p] = 1;
      dirty_plane[w * n + p] ^=
          static_cast<Element>(1 + rng.uniform_int((1u << m) - 1));
    }
  }
  busy = 0.0;
  reps = repeat_for(budget, 3, 1000000, [&] {
    ScopedSpan span(ctx.tracer, "rs.decode_batch.dirty");
    for (std::size_t b = 0; b < kBlock; ++b) {
      std::copy(dirty_plane.begin(), dirty_plane.end(), work.begin());
      const auto t0 = Clock::now();
      code.decode_batch(ws, work, outcomes, flags);
      busy += seconds_since(t0);
    }
  });
  ctx.metric("rs.decode_dirty_ns_per_word",
             busy * 1e9 / (reps * kBlock * batch), "ns");
}

void probe_memory_layers(RunContext& ctx, const LayerInputs& in) {
  namespace mem = rsm::memory;
  const bool duplex =
      in.spec.arrangement == rsm::analysis::Arrangement::kDuplex;
  const auto code = std::make_shared<const rsm::rs::ReedSolomon>(in.spec.code);
  rsm::rs::DecoderWorkspace ws;
  ws.reserve(*code);
  const unsigned n = code->n(), k = code->k(), m = code->m();
  const std::size_t batch = 64;
  const std::size_t trials = ctx.smoke ? 64 : in.memory_trials;
  rsm::sim::Rng rng(mix_seed(ctx.seed, 31));
  double advance_s = 0.0, read_s = 0.0;
  double scrubs = 0.0, events = 0.0;
  bool batched = true;

  std::vector<Element> data(batch * k), plane(2 * batch * n);
  std::vector<std::uint8_t> flags(2 * batch * n);
  std::vector<rsm::rs::DecodeOutcome> outcomes(2 * batch);
  for (std::size_t base = 0; base < trials; base += batch) {
    const std::size_t count = std::min(batch, trials - base);
    const std::size_t words = duplex ? 2 * count : count;
    fill_random(rng, std::span<Element>(data).first(count * k), m);
    code->encode_batch(ws, std::span<const Element>(data).first(count * k),
                       std::span<Element>(plane).first(count * n));
    const auto account = [&](const mem::SystemStats& s) {
      scrubs += s.scrubs_attempted;
      events += s.seu_injected + s.permanent_injected + s.scrubs_attempted +
                s.scrubs_skipped;
    };
    const auto run_batch = [&](auto& systems, auto make_config) {
      for (std::size_t i = 0; i < count; ++i) {
        auto cfg = make_config(mix_seed(ctx.seed, 1000 + base + i));
        cfg.shared_code = code;
        cfg.workspace = &ws;
        systems.push_back(
            std::make_unique<typename std::decay_t<decltype(
                *systems.front())>>(cfg));
      }
      for (std::size_t i = 0; i < count; ++i) {
        ScopedSpan span(ctx.tracer, "memory.store_advance");
        const auto t0 = Clock::now();
        systems[i]->store_encoded(
            std::span<const Element>(data).subspan(i * k, k),
            std::span<const Element>(plane).subspan(i * n, n));
        systems[i]->advance_to(in.hours);
        advance_s += seconds_since(t0);
      }
    };
    if (duplex) {
      std::vector<std::unique_ptr<mem::DuplexSystem>> systems;
      systems.reserve(count);
      run_batch(systems, [&](std::uint64_t seed) {
        return in.spec.to_duplex_system_config(seed);
      });
      std::vector<mem::ArbiterResult> partials(count);
      {
        ScopedSpan span(ctx.tracer, "memory.read_gather");
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < count; ++i) {
          batched = batched && systems[i]->supports_batched_read();
          systems[i]->read_into_masked_pair(
              std::span<Element>(plane).subspan(2 * i * n, n),
              std::span<Element>(plane).subspan((2 * i + 1) * n, n),
              std::span<std::uint8_t>(flags).subspan(2 * i * n, n),
              std::span<std::uint8_t>(flags).subspan((2 * i + 1) * n, n),
              partials[i]);
        }
        read_s += seconds_since(t0);
      }
      code->decode_batch(ws, std::span<Element>(plane).first(words * n),
                         std::span(outcomes).first(words),
                         std::span<const std::uint8_t>(flags).first(words * n));
      ScopedSpan span(ctx.tracer, "memory.finish_batched_read");
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < count; ++i) {
        (void)systems[i]->finish_batched_read(
            std::span<const Element>(plane).subspan(2 * i * n, n),
            std::span<const Element>(plane).subspan((2 * i + 1) * n, n),
            outcomes[2 * i], outcomes[2 * i + 1], std::move(partials[i]));
      }
      read_s += seconds_since(t0);
      for (const auto& s : systems) account(s->stats());
    } else {
      std::vector<std::unique_ptr<mem::SimplexSystem>> systems;
      systems.reserve(count);
      run_batch(systems, [&](std::uint64_t seed) {
        return in.spec.to_simplex_system_config(seed);
      });
      {
        ScopedSpan span(ctx.tracer, "memory.read_gather");
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < count; ++i) {
          batched = batched && systems[i]->supports_batched_read();
          systems[i]->read_into_plane(
              std::span<Element>(plane).subspan(i * n, n),
              std::span<std::uint8_t>(flags).subspan(i * n, n));
        }
        read_s += seconds_since(t0);
      }
      code->decode_batch(ws, std::span<Element>(plane).first(words * n),
                         std::span(outcomes).first(words),
                         std::span<const std::uint8_t>(flags).first(words * n));
      ScopedSpan span(ctx.tracer, "memory.finish_batched_read");
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < count; ++i) {
        (void)systems[i]->finish_batched_read(
            std::span<const Element>(plane).subspan(i * n, n), outcomes[i]);
      }
      read_s += seconds_since(t0);
      for (const auto& s : systems) account(s->stats());
    }
  }
  ctx.gate(batched, "memory: every probed system supports the batched read");
  const double t = static_cast<double>(trials);
  ctx.metric("memory.advance_ns_per_trial", advance_s * 1e9 / t, "ns");
  ctx.metric("memory.read_ns_per_trial", read_s * 1e9 / t, "ns");
  ctx.metric("memory.scrubs_per_trial", scrubs / t, "count");
  ctx.metric("sim.events_per_trial", events / t, "count");

  // sim: schedule + pop cost of a queue holding one trial's event count.
  const std::size_t per_queue =
      std::max<std::size_t>(1, static_cast<std::size_t>(events / t + 0.5));
  std::uint64_t fired = 0;
  double busy = 0.0;
  std::vector<double> when(per_queue);
  for (double& w : when) w = rng.uniform() * in.hours;
  constexpr std::size_t kQueues = 16;  // queues per span
  const std::size_t reps = repeat_for(ctx.smoke ? 0.01 : 0.1, 3, 10000000, [&] {
    ScopedSpan span(ctx.tracer, "sim.event_queue");
    for (std::size_t q = 0; q < kQueues; ++q) {
      rsm::sim::EventQueue queue;
      const auto t0 = Clock::now();
      for (const double w : when) {
        queue.schedule_at(w, [&fired] { ++fired; });
      }
      queue.run_until(in.hours);
      busy += seconds_since(t0);
    }
  });
  ctx.gate(fired == reps * kQueues * per_queue,
           "sim: every scheduled event fired");
  ctx.metric("sim.event_ns", busy * 1e9 / static_cast<double>(fired), "ns");
}

void probe_chain_layers(RunContext& ctx, const LayerInputs& in) {
  namespace models = rsm::models;
  const bool duplex =
      in.spec.arrangement == rsm::analysis::Arrangement::kDuplex;
  models::ChainCache cache;  // private: always a cold build
  std::shared_ptr<const rsm::markov::StateSpace> space;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(ctx.tracer, "models.build");
    space = duplex ? cache.duplex(in.spec.to_duplex_params())
                   : cache.simplex(in.spec.to_simplex_params());
  }
  ctx.metric("models.build_s", seconds_since(t0), "s");
  const auto& generator = space->chain.generator();
  ctx.metric("models.chain_states", static_cast<double>(space->size()),
             "count");
  ctx.metric("models.chain_nnz", static_cast<double>(generator.nnz()), "count");

  const rsm::markov::GuardedTransientSolver solver;
  rsm::markov::SolverWorkspace ws;
  const auto fail = duplex ? models::DuplexModel::fail_state()
                           : models::SimplexModel::fail_state();
  const auto t1 = Clock::now();
  models::BerCurve curve;
  {
    ScopedSpan span(ctx.tracer, "markov.ber_curve");
    curve = models::ber_curve(
        *space, fail,
        models::ber_scale(in.spec.code.n, in.spec.code.k, in.spec.code.m),
        in.solve_times, solver, ws);
  }
  ctx.metric("markov.solve_s", seconds_since(t1), "s");
  bool finite = true;
  for (const double p : curve.fail_probability) {
    finite = finite && std::isfinite(p) && p >= 0.0 && p <= 1.0;
  }
  ctx.gate(finite, "markov: ber_curve probabilities lie in [0, 1]");
  const double t_max =
      *std::max_element(in.solve_times.begin(), in.solve_times.end());
  const double lambda_t = space->chain.max_exit_rate() * t_max;
  const rsm::markov::PoissonWindow window =
      rsm::markov::poisson_window(lambda_t, 1e-14);
  ctx.metric("markov.lambda_t", lambda_t, "1");
  ctx.metric("markov.poisson_terms",
             static_cast<double>(window.first_k + window.weights.size()),
             "count");

  // linalg: y = Q^T x, the uniformization step's kernel.
  const std::size_t states = generator.rows();
  std::vector<double> x(states, 1.0 / static_cast<double>(states)),
      y(states, 0.0);
  double busy = 0.0;
  const std::size_t reps =
      repeat_for(ctx.smoke ? 0.01 : 0.2, 3, 1000000, [&] {
        ScopedSpan span(ctx.tracer, "linalg.apply_transpose");
        const auto t2 = Clock::now();
        generator.apply_transpose(x, y);
        busy += seconds_since(t2);
      });
  const double nnz = static_cast<double>(generator.nnz());
  ctx.metric("linalg.spmv_ns_per_nnz", busy * 1e9 / (reps * nnz), "ns");
  // Bytes one CSC pass moves: value + row index + gathered x per nonzero,
  // column pointer + y store per column.
  const double bytes = nnz * 24.0 + static_cast<double>(states) * 16.0;
  ctx.metric("linalg.spmv_gbps", bytes * reps / busy / 1e9, "GB/s");
}

ThreadScaling compare_thread_counts(RunContext& ctx, const LayerInputs& in,
                                    std::size_t trials, std::uint64_t seed) {
  rsm::analysis::MonteCarloResult one, many;
  auto t0 = Clock::now();
  {
    ScopedSpan span(ctx.tracer, "core.simulate.threads1");
    one = rsm::simulate(in.spec, campaign_config(in, trials, seed, 1));
  }
  const double t1 = seconds_since(t0);
  t0 = Clock::now();
  {
    ScopedSpan span(ctx.tracer, "core.simulate.threadsN");
    many = rsm::simulate(in.spec, campaign_config(in, trials, seed, ctx.nproc));
  }
  const double tn = seconds_since(t0);
  ctx.gate(same_mc_result(one, many),
           "campaign: threads=1 and threads=" + std::to_string(ctx.nproc) +
               " results are bit-identical");
  return {static_cast<double>(trials) / t1, static_cast<double>(trials) / tn};
}

void record_campaign_layers(RunContext& ctx, const ThreadScaling& s) {
  ctx.metric("campaign.trials_per_s_1t", s.trials_per_s_1t, "1/s");
  ctx.metric("campaign.scaling_eff",
             s.trials_per_s_n / (s.trials_per_s_1t * ctx.nproc), "1");
}

}  // namespace perfbench
