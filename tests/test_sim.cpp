// Tests for the simulation substrate: RNG determinism and distribution
// sanity, the event queue, and the Poisson process helper.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/mt19937_64.h"
#include "sim/poisson.h"
#include "sim/rng.h"

namespace rsmem::sim {
namespace {

TEST(Mt19937_64, StandardCheckValue) {
  // [rand.predef]: the 10000th draw of a default-seeded mt19937_64.
  Mt19937_64 engine{5489};
  std::uint64_t value = 0;
  for (int i = 0; i < 10000; ++i) value = engine();
  EXPECT_EQ(value, 9981545732273789042ull);
}

TEST(Mt19937_64, MatchesStdEngineAcrossRefillAndBlockBoundaries) {
  // Draw counts straddle the 4-word first refill, the 156-word half block (where
  // the twist starts reading regenerated words) and the 312-word block.
  const std::uint64_t seeds[] = {0,          1,          5489,
                                 0x9E3779B97F4A7C15ull, ~std::uint64_t{0}};
  const int lengths[] = {1, 2, 3, 4, 5, 155, 156, 157, 311, 312, 313, 1000};
  for (const std::uint64_t seed : seeds) {
    for (const int length : lengths) {
      std::mt19937_64 reference{seed};
      Mt19937_64 engine{seed};
      for (int i = 0; i < length; ++i) {
        ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
      }
    }
  }
}

TEST(Mt19937_64, CopiesResumeTheSameSequence) {
  Mt19937_64 engine{42};
  for (int i = 0; i < 20; ++i) engine();
  Mt19937_64 copy = engine;
  for (int i = 0; i < 400; ++i) EXPECT_EQ(copy(), engine());
}

TEST(Mt19937_64, GenerateMatchesSingleDraws) {
  // Runs of every length from 1 to 40, starting inside the first refill,
  // across the block boundary and in later blocks.
  Mt19937_64 bulk{7};
  Mt19937_64 single{7};
  std::uint64_t out[40];
  for (int run = 1; run <= 40; ++run) {
    bulk.generate(out, static_cast<std::size_t>(run));
    for (int i = 0; i < run; ++i) ASSERT_EQ(out[i], single()) << "run " << run;
  }
  EXPECT_EQ(bulk(), single());
}

TEST(Rng, FillUniformIntMatchesSuccessiveDraws) {
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{256},
        std::uint64_t{255}, std::uint64_t{1} << 32}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{223}, std::size_t{700}}) {
      Rng bulk{31};
      Rng single{31};
      std::vector<std::uint32_t> out(count);
      bulk.fill_uniform_int(out, bound);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], single.uniform_int(bound))
            << "bound " << bound << " draw " << i;
      }
      EXPECT_EQ(bulk.next_u64(), single.next_u64()) << "bound " << bound;
    }
  }
  std::vector<std::uint32_t> out(4);
  Rng rng{1};
  EXPECT_THROW(rng.fill_uniform_int(out, 0), std::invalid_argument);
  EXPECT_THROW(rng.fill_uniform_int(out, (std::uint64_t{1} << 32) + 1),
               std::invalid_argument);
}

TEST(Rng, PrimeLeavesEveryStreamUnchanged) {
  // Group sizes around the eight-lane interleave; draw hints below, at and
  // past the first refill; one stream per group already drawn from, so its
  // group cannot run in lockstep.
  const Rng root{2024};
  for (const std::size_t streams : {1u, 7u, 8u, 9u, 17u}) {
    for (const std::size_t draws : {0u, 1u, 4u, 5u, 223u, 400u}) {
      std::vector<Rng> primed;
      std::vector<Rng> plain;
      for (std::size_t i = 0; i < streams; ++i) {
        primed.push_back(root.split(i));
        plain.push_back(root.split(i));
      }
      primed[streams / 2].next_u64();
      plain[streams / 2].next_u64();
      std::vector<Rng*> pointers;
      for (Rng& stream : primed) pointers.push_back(&stream);
      Rng::prime(pointers, draws);
      for (std::size_t i = 0; i < streams; ++i) {
        for (int d = 0; d < 500; ++d) {
          ASSERT_EQ(primed[i].next_u64(), plain[i].next_u64())
              << "streams " << streams << " hint " << draws << " stream " << i
              << " draw " << d;
        }
      }
    }
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng root{999};
  Rng s1 = root.split(1);
  Rng s2 = root.split(2);
  Rng s1_again = root.split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.next_u64() == s2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformPositiveNeverZero) {
  Rng rng{8};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.uniform_positive(), 0.0);
  }
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng{9};
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    ++hits[v];
  }
  for (const int h : hits) EXPECT_GT(h, 700);  // ~1000 each
}

TEST(Rng, BernoulliEdges) {
  Rng rng{10};
  EXPECT_THROW(rng.bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.1), std::invalid_argument);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{11};
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, PoissonMeanAndVariance) {
  Rng rng{12};
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  const double mean = 6.5;
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng.poisson(mean));
    sum += x;
    sum2 += x * x;
  }
  const double mu = sum / n;
  const double var = sum2 / n - mu * mu;
  EXPECT_NEAR(mu, mean, 0.1);
  EXPECT_NEAR(var, mean, 0.2);
}

TEST(Rng, PoissonLargeMeanChunking) {
  Rng rng{13};
  const double mean = 1800.0;  // exercises the chunked path
  double sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
  EXPECT_NEAR(sum / n / mean, 1.0, 0.01);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(3); });
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.5, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(3.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> ping = [&] {
    ++count;
    if (count < 5) q.schedule_in(1.0, ping);
  };
  q.schedule_at(0.5, ping);
  q.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const auto id = q.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // already cancelled
  q.run_until(2.0);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(q.cancel(9999));  // unknown id
}

TEST(EventQueue, RejectsPastAndNonFinite) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run_until(5.0);
  EXPECT_THROW(q.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(
      q.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(q.schedule_at(6.0, EventAction{}), std::invalid_argument);
  EXPECT_THROW(q.run_until(1.0), std::invalid_argument);
}

TEST(EventQueue, StepSingleEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(PoissonProcess, ZeroRateNeverFires) {
  PoissonProcess p{0.0, Rng{1}};
  EXPECT_TRUE(std::isinf(p.next_after(0.0)));
  EXPECT_TRUE(p.arrivals_in(0.0, 100.0).empty());
}

TEST(PoissonProcess, RejectsNegativeRate) {
  EXPECT_THROW(PoissonProcess(-1.0, Rng{1}), std::invalid_argument);
}

TEST(PoissonProcess, ArrivalCountMatchesRate) {
  PoissonProcess p{5.0, Rng{77}};
  const auto arrivals = p.arrivals_in(0.0, 2000.0);
  // Expect ~10000 arrivals, sd = 100.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 10000.0, 500.0);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
  }
  EXPECT_GT(arrivals.front(), 0.0);
  EXPECT_LE(arrivals.back(), 2000.0);
}

TEST(PoissonProcess, EmptyWindow) {
  PoissonProcess p{5.0, Rng{78}};
  EXPECT_TRUE(p.arrivals_in(10.0, 10.0).empty());
  EXPECT_TRUE(p.arrivals_in(10.0, 5.0).empty());
}

}  // namespace
}  // namespace rsmem::sim
