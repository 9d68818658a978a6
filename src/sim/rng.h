// Deterministic random number generation for the Monte-Carlo simulator.
//
// Draws from MT19937-64 (sim/mt19937_64.h: the std::mt19937_64 sequence,
// seeded and twisted lazily) and implements every distribution transform
// in-house (std:: distributions are implementation defined, which would
// make simulation results differ across standard libraries). Streams can
// be split so that independent subsystems (fault
// injection per module, scrubbing jitter, ...) draw from decorrelated
// sequences while staying reproducible from one root seed.
//
// THREAD-SAFETY INVARIANT (parallel Monte-Carlo campaigns): an Rng holds a
// mutable engine and is NOT safe for concurrent draws. The library keeps
// every generator strictly SHARD-LOCAL: there are no global/static
// generators anywhere in rsmem, each simulated system owns the Rngs it
// draws from, and a campaign derives each trial's streams from the root
// seed via split() keyed by the GLOBAL trial index (split() is const and
// safe to call concurrently -- it only mixes seeds, touching no engine
// state). Worker threads therefore never share engine state, and trial
// results are independent of the thread or shard that ran them.
#ifndef RSMEM_SIM_RNG_H
#define RSMEM_SIM_RNG_H

#include <cstdint>
#include <optional>
#include <span>

#include "sim/mt19937_64.h"

namespace rsmem::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Deterministically derives an independent stream (SplitMix64 mixing of
  // the root seed with the stream id).
  Rng split(std::uint64_t stream_id) const;

  // Uniform in [0, 1) with 53 bits of precision.
  double uniform();
  // Uniform in (0, 1]; never returns exactly 0 (safe for log()).
  double uniform_positive();
  // Uniform integer in [0, bound); bound must be > 0.
  std::uint64_t uniform_int(std::uint64_t bound);
  // Fills `out` with uniform_int(bound) draws in order -- the values
  // out.size() successive uniform_int(bound) calls return -- without a
  // call per draw. Requires 0 < bound <= 2^32.
  void fill_uniform_int(std::span<std::uint32_t> out, std::uint64_t bound);
  bool bernoulli(double p);
  // Exponential with the given rate (> 0); mean 1/rate.
  double exponential(double rate);
  // Poisson count with the given mean (>= 0) by inversion/chunking.
  std::uint64_t poisson(double mean);

  std::uint64_t next_u64() { return engine()(); }

  // Materializes the engines of `streams` and runs the seeding their first
  // `draws` draws need, interleaved across streams
  // (Mt19937_64::seed_lockstep). A batch of trials primes its streams
  // together instead of paying one serial seeding chain per stream; every
  // draw that follows is unchanged.
  static void prime(std::span<Rng* const> streams, std::size_t draws);

 private:
  // The engine (312 state words) is materialized on the first draw.
  // Campaign trial setup creates several Rngs that are only ever split()
  // -- the campaign root, each system's root -- and copies them by value;
  // those never carry an engine at all.
  Mt19937_64& engine();
  std::uint64_t root_seed_;
  std::optional<Mt19937_64> engine_;
};

}  // namespace rsmem::sim

#endif  // RSMEM_SIM_RNG_H
