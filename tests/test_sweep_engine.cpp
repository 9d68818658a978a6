// Equivalence tests for the parallel sweep engine: the cached/parallel
// path must reproduce a serial per-point build-and-solve for every figure
// workload of the paper, identically across thread counts, and the chain
// cache's replayed generators must be bitwise equal to direct builds.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "analysis/code_search.h"
#include "analysis/experiment.h"
#include "core/units.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/chain_cache.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"

namespace rsmem::analysis {
namespace {

constexpr SweepOptions kEngine1{1};
constexpr SweepOptions kEngine4{4};

using Rates = std::array<double, 3>;  // {seu, erasure, scrub}, per hour

// The reference: a serial loop of models::simplex_ber_curve /
// duplex_ber_curve with a plain UniformizationSolver -- a fresh chain build
// and solve per point, no cache, no workspace, no thread pool.
std::vector<std::vector<double>> reference_sweep(
    Arrangement arrangement, const CodeSpec& code,
    const std::vector<Rates>& points, std::span<const double> times) {
  const markov::UniformizationSolver solver;
  std::vector<std::vector<double>> out;
  for (const auto& [seu, erasure, scrub] : points) {
    const auto fill = [&](auto params) {
      params.n = code.n;
      params.k = code.k;
      params.m = code.m;
      params.seu_rate_per_bit_hour = seu;
      params.erasure_rate_per_symbol_hour = erasure;
      params.scrub_rate_per_hour = scrub;
      return params;
    };
    out.push_back(
        arrangement == Arrangement::kSimplex
            ? models::simplex_ber_curve(fill(models::SimplexParams{}), times,
                                        solver)
                  .ber
            : models::duplex_ber_curve(fill(models::DuplexParams{}), times,
                                       solver)
                  .ber);
  }
  return out;
}

// One point per per-day rate, converted to per hour into slot `slot`.
std::vector<Rates> per_day_points(std::span<const double> per_day,
                                  std::size_t slot) {
  std::vector<Rates> out(per_day.size(), Rates{});
  for (std::size_t i = 0; i < per_day.size(); ++i) {
    out[i][slot] = core::per_day_to_per_hour(per_day[i]);
  }
  return out;
}

double max_rel_diff(const std::vector<Series>& engine,
                    const std::vector<std::vector<double>>& reference) {
  EXPECT_EQ(engine.size(), reference.size());
  double worst = 0.0;
  for (std::size_t s = 0; s < engine.size() && s < reference.size(); ++s) {
    const std::vector<double>& a = engine[s].y;
    const std::vector<double>& b = reference[s];
    EXPECT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const double scale =
          std::max({std::fabs(a[i]), std::fabs(b[i]), 1e-300});
      worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
    }
  }
  return worst;
}

void expect_bitwise(const std::vector<Series>& a,
                    const std::vector<Series>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].label, b[s].label);
    EXPECT_EQ(a[s].x, b[s].x);
    EXPECT_EQ(a[s].y, b[s].y) << "series=" << a[s].label;
  }
}

// Reduced point counts vs the figure benches (25): the equivalence is per
// point, so 7 points per curve exercise the same code paths in a fraction
// of the time.
constexpr std::size_t kPoints = 7;
constexpr double kSeuRates[] = {1.7e-5, 3.6e-6, 7.3e-7};
constexpr double kPermRates[] = {1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10};
constexpr double kScrubPeriods[] = {900.0, 1200.0, 1800.0, 3600.0};

TEST(SweepEngine, Fig5SimplexSeuMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  const auto engine = seu_rate_sweep(Arrangement::kSimplex, code, kSeuRates,
                                     48.0, kPoints, kEngine4);
  const auto reference =
      reference_sweep(Arrangement::kSimplex, code, per_day_points(kSeuRates, 0),
                      models::time_grid_hours(48.0, kPoints));
  EXPECT_LE(max_rel_diff(engine, reference), 1e-12);
}

TEST(SweepEngine, Fig6DuplexSeuMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  const auto engine = seu_rate_sweep(Arrangement::kDuplex, code, kSeuRates,
                                     48.0, kPoints, kEngine4);
  const auto reference =
      reference_sweep(Arrangement::kDuplex, code, per_day_points(kSeuRates, 0),
                      models::time_grid_hours(48.0, kPoints));
  EXPECT_LE(max_rel_diff(engine, reference), 1e-12);
}

TEST(SweepEngine, Fig7DuplexScrubbingMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  const auto engine = scrub_period_sweep(Arrangement::kDuplex, code, 1.7e-5,
                                         kScrubPeriods, 48.0, kPoints,
                                         kEngine4);
  std::vector<Rates> points;
  for (const double period : kScrubPeriods) {
    points.push_back({core::per_day_to_per_hour(1.7e-5), 0.0,
                      core::scrub_rate_per_hour(period)});
  }
  const auto reference = reference_sweep(
      Arrangement::kDuplex, code, points, models::time_grid_hours(48.0, kPoints));
  EXPECT_LE(max_rel_diff(engine, reference), 1e-12);
}

TEST(SweepEngine, Fig8And9PermanentMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  const auto times =
      models::time_grid_hours(core::months_to_hours(24.0), kPoints);
  for (const Arrangement arr :
       {Arrangement::kSimplex, Arrangement::kDuplex}) {
    const auto engine =
        permanent_rate_sweep(arr, code, kPermRates, 24.0, kPoints, kEngine4);
    const auto reference =
        reference_sweep(arr, code, per_day_points(kPermRates, 1), times);
    EXPECT_LE(max_rel_diff(engine, reference), 1e-12) << to_string(arr);
  }
}

TEST(SweepEngine, Fig10Rs3616PermanentMatchesLegacy) {
  const CodeSpec wide{36, 16, 8};
  const auto engine = permanent_rate_sweep(Arrangement::kSimplex, wide,
                                           kPermRates, 24.0, kPoints, kEngine4);
  const auto reference = reference_sweep(
      Arrangement::kSimplex, wide, per_day_points(kPermRates, 1),
      models::time_grid_hours(core::months_to_hours(24.0), kPoints));
  EXPECT_LE(max_rel_diff(engine, reference), 1e-12);
}

TEST(SweepEngine, ThreadCountDoesNotChangeResults) {
  const CodeSpec code{18, 16, 8};
  const auto one = scrub_period_sweep(Arrangement::kDuplex, code, 1.7e-5,
                                      kScrubPeriods, 48.0, kPoints, kEngine1);
  const auto four = scrub_period_sweep(Arrangement::kDuplex, code, 1.7e-5,
                                       kScrubPeriods, 48.0, kPoints, kEngine4);
  expect_bitwise(one, four);
  const auto perm1 = permanent_rate_sweep(Arrangement::kSimplex, code,
                                          kPermRates, 24.0, kPoints, kEngine1);
  const auto perm4 = permanent_rate_sweep(Arrangement::kSimplex, code,
                                          kPermRates, 24.0, kPoints, kEngine4);
  expect_bitwise(perm1, perm4);
}

TEST(ChainCacheTest, ReplayedChainBitwiseMatchesDirectBuild) {
  models::ChainCache cache;
  models::SimplexParams base;
  base.n = 18;
  base.k = 16;
  base.m = 8;
  base.scrub_rate_per_hour = 4.0;
  // First rate point: a direct build that records the structure.
  base.seu_rate_per_bit_hour = 1e-6;
  const auto first = cache.simplex(base);
  EXPECT_EQ(cache.stats().builds, 1u);
  // Further points with the same zero-pattern: replays.
  for (const double rate : {2e-6, 5e-7, 1.7e-5 / 24.0}) {
    models::SimplexParams p = base;
    p.seu_rate_per_bit_hour = rate;
    const auto cached = cache.simplex(p);
    const markov::StateSpace direct = models::SimplexModel{p}.build();
    ASSERT_EQ(cached->size(), direct.size());
    EXPECT_EQ(cached->states, direct.states);
    EXPECT_EQ(cached->chain.initial_state(), direct.chain.initial_state());
    const linalg::CsrMatrix& a = cached->chain.generator();
    const linalg::CsrMatrix& b = direct.chain.generator();
    ASSERT_EQ(a.nnz(), b.nnz());
    EXPECT_TRUE(std::equal(a.values().begin(), a.values().end(),
                           b.values().begin()));
    EXPECT_TRUE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                           b.col_indices().begin()));
    EXPECT_TRUE(std::equal(a.row_pointers().begin(), a.row_pointers().end(),
                           b.row_pointers().begin()));
  }
  EXPECT_EQ(cache.stats().replays, 3u);
  EXPECT_EQ(cache.stats().replay_fallbacks, 0u);
  // Exactly repeated params short-circuit to the shared memo entry.
  const auto again = cache.simplex(base);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_GE(cache.stats().exact_hits, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().builds, 0u);
}

TEST(ChainCacheTest, DuplexReplayAndZeroPatternSeparation) {
  models::ChainCache cache;
  models::DuplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1e-6;
  cache.duplex(p);
  p.seu_rate_per_bit_hour = 3e-6;
  const auto cached = cache.duplex(p);
  const markov::StateSpace direct = models::DuplexModel{p}.build();
  EXPECT_EQ(cached->states, direct.states);
  const linalg::CsrMatrix& a = cached->chain.generator();
  const linalg::CsrMatrix& b = direct.chain.generator();
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_TRUE(
      std::equal(a.values().begin(), a.values().end(), b.values().begin()));
  EXPECT_EQ(cache.stats().replays, 1u);
  // Turning a rate on changes the reachable set: must be a fresh build,
  // not a replay of the SEU-only structure.
  p.erasure_rate_per_symbol_hour = 1e-7;
  const auto wider = cache.duplex(p);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_GT(wider->size(), cached->size());
}

TEST(CodeSearch, ParallelEvaluationMatchesSerial) {
  CodeSearchSpec spec;
  spec.base.seu_rate_per_bit_day = 1.7e-5;
  const std::vector<CodeCandidate> candidates = default_candidates(16);
  spec.threads = 1;
  const auto serial = evaluate_candidates(spec, candidates);
  spec.threads = 4;
  const auto parallel = evaluate_candidates(spec, candidates);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].candidate.n, parallel[i].candidate.n);
    EXPECT_EQ(serial[i].candidate.arrangement, parallel[i].candidate.arrangement);
    EXPECT_EQ(serial[i].ber, parallel[i].ber) << "i=" << i;
    EXPECT_EQ(serial[i].storage_overhead, parallel[i].storage_overhead);
    EXPECT_EQ(serial[i].decode_cycles, parallel[i].decode_cycles);
    EXPECT_EQ(serial[i].area_gates, parallel[i].area_gates);
    EXPECT_EQ(serial[i].pareto_efficient, parallel[i].pareto_efficient);
  }
}

}  // namespace
}  // namespace rsmem::analysis
